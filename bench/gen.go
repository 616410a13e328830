package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"r3bench/internal/dbgen"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// The seeded generator. -seed drives key choice, literals, op order and
// which write template a transaction uses; the program under test only ever
// sees the SQL texts and parameters generated here. The database itself is
// dbgen's fixed-seed population (dbgen takes no seed), so answers to a given
// (shape, key) are the same under every seed.

// subSeed derives an independent stream seed from the run seed and the
// stream's coordinates (splitmix64 finalizer over a running sum).
func subSeed(seed int64, coords ...int64) int64 {
	x := uint64(seed) * 0x9E3779B97F4A7C15
	for _, c := range coords {
		x += uint64(c) + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// Logical pass numbers below the timed passes 0..n-1.
const (
	passWarmUp = -1
	passSim    = -2
)

// How an op is sent.
const (
	sendAdhoc    = iota // Conn.Query / Session.Exec of each text in sqls
	sendPrepared        // Stmt.Query of prepared statement stmt
	sendArray           // Conn.QueryArray of sqls[0] (in process: Session.Exec)
)

// What answer an op must give.
const (
	wantLookup   = iota // the in-process answer for (shape, key); the database is not changed by such ops
	wantAffected        // a write: wantN rows affected, no rows
	wantRows            // the rows whose fingerprint is wantFP (read-back of what the transaction wrote)
)

// Prepared statements, the same table on every wire connection and on the
// benchmark's in-process session.
const (
	stPkOrders = iota
	stPkCustomer
	stPkPart
	stRange
	stSecIndex
	stArray
	stInsOrder
	stInsLine
	stReadBack
	stDelLines
	stDelOrder
	stFloor
	numStmts
)

var stmtSQL = [numStmts]string{
	stPkOrders:   "SELECT * FROM orders WHERE o_orderkey = ?",
	stPkCustomer: "SELECT * FROM customer WHERE c_custkey = ?",
	stPkPart:     "SELECT * FROM part WHERE p_partkey = ?",
	stRange:      "SELECT * FROM lineitem WHERE l_orderkey = ?",
	stSecIndex:   "SELECT * FROM orders WHERE o_custkey = ?",
	stArray:      "SELECT * FROM lineitem WHERE l_orderkey BETWEEN ? AND ?",
	stInsOrder:   "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
	stInsLine:    "INSERT INTO lineitem VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
	stReadBack: "SELECT l_linenumber, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate " +
		"FROM lineitem WHERE l_orderkey = ? ORDER BY l_linenumber",
	stDelLines: "DELETE FROM lineitem WHERE l_orderkey = ?",
	stDelOrder: "DELETE FROM orders WHERE o_orderkey = ?",
	stFloor:    "SELECT r_name FROM region WHERE r_regionkey = ?",
}

// The literal-inlined form of the three lookup shapes; %d takes the key.
var adhocSQL = map[int]string{
	stPkOrders:   "SELECT * FROM orders WHERE o_orderkey = %d",
	stPkCustomer: "SELECT * FROM customer WHERE c_custkey = %d",
	stPkPart:     "SELECT * FROM part WHERE p_partkey = %d",
	stRange:      "SELECT * FROM lineitem WHERE l_orderkey = %d",
	stSecIndex:   "SELECT * FROM orders WHERE o_custkey = %d",
}

// arrayOrders is how many consecutive orders one array_stream op fetches:
// at four lineitems an order that is about a thousand rows, ten packets of
// cost.ArrayFetchRows.
const arrayOrders = 250

// deleteLag is how far back a new-order transaction deletes, which keeps
// the number of live new orders per stream at deleteLag.
const deleteLag = 100

// streamBlock separates the order keys of the write streams (two wire
// clients, their in-process sim twins, their traced-replay twins, the
// open transaction of the durability check); INTEGER keys are 32 bit,
// which leaves room for 200 blocks on either side.
const streamBlock = 10_000_000

// op is one operation a client sends and waits for.
type op struct {
	class  uint8
	send   uint8
	stmt   uint8
	want   uint8
	shape  uint8 // with key, names the answer of a wantLookup op
	sqls   []string
	params []val.Value
	key    int64
	wantN  int64
	wantFP uint64
	line   int64 // insert_line: the line number, for the durability check
}

// expKey names a read-only answer: the statement shape and its key.
type expKey struct {
	shape uint8
	key   int64
}

// keySpace maps Zipf ranks to the keys dbgen generated for one table
// (1..n, dense). The permutation is fixed per seed, so every client and
// every pass shares one hot set, scattered over the table's pages.
type keySpace struct{ perm []int64 }

func newKeySpace(seed int64, id int64, n int) *keySpace {
	r := rand.New(rand.NewSource(subSeed(seed, 100, id)))
	ks := &keySpace{perm: make([]int64, n)}
	for i, p := range r.Perm(n) {
		ks.perm[i] = int64(p + 1)
	}
	return ks
}

// picker draws keys for one client in one pass: 90 % Zipf(1.1), 10 %
// uniform.
type picker struct {
	r *rand.Rand
	z map[*keySpace]*rand.Zipf
}

func newPicker(seed int64, client, pass int, spaces ...*keySpace) *picker {
	p := &picker{r: rand.New(rand.NewSource(subSeed(seed, 200, int64(client), int64(pass)))), z: map[*keySpace]*rand.Zipf{}}
	for _, ks := range spaces {
		p.z[ks] = rand.NewZipf(p.r, 1.1, 1, uint64(len(ks.perm)-1))
	}
	return p
}

func (p *picker) key(ks *keySpace) int64 { return p.keyMix(ks, 10) }

// keyMix draws uniformly with probability uniformPct/100, by Zipf rank
// otherwise.
func (p *picker) keyMix(ks *keySpace, uniformPct int) int64 {
	if p.r.Intn(100) < uniformPct {
		return ks.perm[p.r.Intn(len(ks.perm))]
	}
	return ks.perm[p.z[ks].Uint64()]
}

// opGen generates a workload's ops.
type opGen struct {
	seed                     int64
	sz                       size
	g                        *dbgen.Generator
	orders, customers, parts *keySpace
	queries                  []tpcd.Query
	templates                []*dbgen.Order
	// written counts what the generated write ops add and remove, for the
	// row-count identities of the durability check.
	written struct{ orders, lines int64 }
}

func newOpGen(seed int64, sz size, g *dbgen.Generator) *opGen {
	og := &opGen{
		seed:      seed,
		sz:        sz,
		g:         g,
		orders:    newKeySpace(seed, 1, g.NumOrders()),
		customers: newKeySpace(seed, 2, g.NumCustomers()),
		parts:     newKeySpace(seed, 3, g.NumParts()),
		queries:   tpcd.Queries(g.SF),
	}
	// Write templates: dbgen's own new-order set, re-keyed per transaction.
	_ = g.UF1Orders(func(o *dbgen.Order) error {
		cp := *o
		cp.Lines = append([]dbgen.Lineitem(nil), o.Lines...)
		og.templates = append(og.templates, &cp)
		return nil
	})
	return og
}

// drawSeed is the seed an oltp pass's random choices are drawn from: the
// run's, except for the sim pass, which is drawn from seed 0 under every
// -seed so that sim_pass_s is the simulated time of one fixed sequence of
// ranks, classes and templates. What still varies with -seed there is the
// hot set the drawn ranks map to, and the state the warm-up pass left
// behind.
func (og *opGen) drawSeed(pass int) int64 {
	if pass == passSim {
		return 0
	}
	return og.seed
}

func (og *opGen) picker(client, pass int, spaces ...*keySpace) *picker {
	return newPicker(og.drawSeed(pass), client, pass, spaces...)
}

// --- dss_*: the 17 queries, one op each, in a seeded order per pass ---

var dssClasses = func() []string {
	names := make([]string, 17)
	for i := range names {
		names[i] = fmt.Sprintf("q%02d", i+1)
	}
	return names
}()

func (og *opGen) dssPass(pass int) []op {
	// Every pass has an order of its own under the run's seed, the sim pass
	// too: a fixed order there would make sim_pass_s on the serial workload
	// read the same to the digit under every seed, which the driver takes
	// for a number that was not measured.
	r := rand.New(rand.NewSource(subSeed(og.seed, 300, int64(pass))))
	ops := make([]op, 0, len(og.queries))
	for _, qi := range r.Perm(len(og.queries)) {
		q := og.queries[qi]
		ops = append(ops, op{class: uint8(qi), send: sendAdhoc, want: wantLookup, shape: uint8(qi), sqls: q.SQL})
	}
	return ops
}

// --- oltp_read_wire ---

const (
	clPkPrepared = iota
	clRangePrepared
	clSecIndexPrepared
	clAdhocLiteral
	clArrayStream
)

var readClasses = []string{"pk_prepared", "range_prepared", "sec_index_prepared", "adhoc_literal", "array_stream"}

// readClassOf is the class of a prepared lookup by its statement.
var readClassOf = map[int]uint8{stPkOrders: clPkPrepared, stPkCustomer: clPkPrepared, stPkPart: clPkPrepared,
	stRange: clRangePrepared, stSecIndex: clSecIndexPrepared}

// readMix is the op mix of oltp_read_wire, exact in every block of 100 ops
// (a drawn mix would make the count of the dear array fetches, and with it
// allocs_per_op, wander from pass to pass): 40 prepared PK lookups, 20
// LINEITEM ranges, 9 secondary-index lookups, 30 of the same shapes with
// the literal inlined (in the same 40:20:9 proportion), 1 array fetch.
var readMix = func() []readSlot {
	var mix []readSlot
	add := func(n int, s readSlot) {
		for i := 0; i < n; i++ {
			mix = append(mix, s)
		}
	}
	for _, adhoc := range []bool{false, true} {
		counts := map[int]int{stPkOrders: 14, stPkCustomer: 13, stPkPart: 13, stRange: 20, stSecIndex: 9}
		if adhoc {
			counts = map[int]int{stPkOrders: 6, stPkCustomer: 6, stPkPart: 5, stRange: 9, stSecIndex: 4}
		}
		for _, stmt := range []int{stPkOrders, stPkCustomer, stPkPart, stRange, stSecIndex} {
			add(counts[stmt], readSlot{stmt: stmt, adhoc: adhoc})
		}
	}
	add(1, readSlot{stmt: stArray})
	return mix
}()

// adhocUniformPct is the uniform share of the keys inlined as literals. At
// SF 0.01 the tables are so small that the hot Zipf head's texts all sit in
// the engine's 4096-entry fingerprint cache after warm-up; the uniform half
// keeps the literal statements what they stand for, texts the front end has
// not seen (about half of them miss the cache).
const adhocUniformPct = 50

type readSlot struct {
	stmt  int
	adhoc bool
}

// readPass generates one client's ops for one pass: blocks of readMix, each
// shuffled.
func (og *opGen) readPass(client, pass int) []op {
	p := og.picker(client, pass, og.orders, og.customers, og.parts)
	keysOf := map[int]*keySpace{stPkOrders: og.orders, stPkCustomer: og.customers, stPkPart: og.parts,
		stRange: og.orders, stSecIndex: og.customers, stArray: og.orders}
	ops := make([]op, 0, og.sz.passOps)
	block := append([]readSlot(nil), readMix...)
	for len(ops) < og.sz.passOps {
		p.r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, slot := range block {
			key := p.key(keysOf[slot.stmt])
			if slot.adhoc {
				key = p.keyMix(keysOf[slot.stmt], adhocUniformPct)
			}
			switch {
			case slot.stmt == stArray:
				ops = append(ops, op{class: clArrayStream, send: sendArray, want: wantLookup, shape: stArray, key: key,
					sqls: []string{stmtSQL[stArray]}, params: []val.Value{val.Int(key), val.Int(key + arrayOrders - 1)}})
			case slot.adhoc:
				ops = append(ops, op{class: clAdhocLiteral, send: sendAdhoc, want: wantLookup,
					shape: uint8(slot.stmt), key: key, sqls: []string{fmt.Sprintf(adhocSQL[slot.stmt], key)}})
			default:
				ops = append(ops, op{class: readClassOf[slot.stmt], send: sendPrepared, stmt: uint8(slot.stmt), want: wantLookup,
					shape: uint8(slot.stmt), key: key, params: []val.Value{val.Int(key)}})
			}
		}
	}
	return ops[:og.sz.passOps]
}

// --- oltp_write_wal ---

const (
	clInsertOrder = iota
	clInsertLine
	clReadBack
	clPointRead
	clDeleteLines
	clDeleteOrder
)

var writeClasses = []string{"insert_order", "insert_line", "read_back", "point_read", "delete_lines", "delete_order"}

// txStream is one sequence of new-order transactions with its own block of
// order keys. client and the logical pass select the random choices, so a
// twin stream (sim, traced replay) repeats a wire stream's transactions
// under other keys. first is the index of the first transaction the stream
// ever runs: nothing before it can be deleted.
type txStream struct {
	block  int64
	client int
	first  int
}

// orderKey is the key of a stream's idx-th new order. Client 0's streams
// count up from above the loaded range, client 1's count down from below
// it, so the two sessions that write at the same time work at opposite ends
// of every key-ordered index. That is deliberate: a B-tree iterator is not
// stable against another session's insert into the leaf it stands in (an
// index range scan then skips or repeats an entry), and with adjacent key
// ranges about one transaction in 10^4 read back a wrong row set. A
// workload must be one on which no op fails; README.md lists the anomaly
// as a blind spot for a correctness issue to close.
func (og *opGen) orderKey(ts txStream, idx int) int64 {
	off := ts.block*streamBlock + int64(idx)
	if ts.client%2 == 1 {
		return -off
	}
	return int64(og.g.NumOrders()) + 1 + off
}

// template picks transaction idx's write template: a pure function of the
// client and the index, so the transaction deleteLag later knows how many
// lines it deletes.
func (og *opGen) template(seed int64, client, idx int) *dbgen.Order {
	return og.templates[int(uint64(subSeed(seed, 400, int64(client), int64(idx)))%uint64(len(og.templates)))]
}

// writePass generates transactions ordinal*passOps .. +passOps-1 of a
// stream. A transaction inserts an order and its lines, reads the lines
// back, reads two base rows, and deletes the order deleteLag back.
func (og *opGen) writePass(ts txStream, pass, ordinal int) []op {
	p := og.picker(ts.client, pass, og.orders, og.customers)
	seed := og.drawSeed(pass)
	n := og.sz.passOps
	ops := make([]op, 0, n*11)
	for idx := ordinal * n; idx < (ordinal+1)*n; idx++ {
		t := og.template(seed, ts.client, idx)
		key := og.orderKey(ts, idx)
		o := *t
		o.Key = key
		ops = append(ops, op{class: clInsertOrder, send: sendPrepared, stmt: stInsOrder, want: wantAffected, wantN: 1,
			key: key, params: tpcd.OrderRow(&o)})
		back := make([][]val.Value, 0, len(t.Lines))
		for _, li := range t.Lines {
			li.OrderKey = key
			row := tpcd.LineitemRow(li)
			ops = append(ops, op{class: clInsertLine, send: sendPrepared, stmt: stInsLine, want: wantAffected, wantN: 1,
				key: key, line: li.LineNumber, params: row})
			back = append(back, []val.Value{row[3], row[1], row[2], row[4], row[5], row[6], row[7], row[10]})
		}
		ops = append(ops, op{class: clReadBack, send: sendPrepared, stmt: stReadBack, want: wantRows,
			wantFP: fingerprintRows(back), key: key, params: []val.Value{val.Int(key)}})
		baseOrder, baseCust := p.key(og.orders), p.key(og.customers)
		ops = append(ops,
			op{class: clPointRead, send: sendPrepared, stmt: stPkOrders, want: wantLookup, shape: stPkOrders, key: baseOrder, params: []val.Value{val.Int(baseOrder)}},
			op{class: clPointRead, send: sendPrepared, stmt: stPkCustomer, want: wantLookup, shape: stPkCustomer, key: baseCust, params: []val.Value{val.Int(baseCust)}})
		og.written.orders++
		og.written.lines += int64(len(t.Lines))
		if old := idx - deleteLag; old >= ts.first {
			oldKey := og.orderKey(ts, old)
			oldLines := int64(len(og.template(seed, ts.client, old).Lines))
			ops = append(ops,
				op{class: clDeleteLines, send: sendPrepared, stmt: stDelLines, want: wantAffected, wantN: oldLines, key: oldKey, params: []val.Value{val.Int(oldKey)}},
				op{class: clDeleteOrder, send: sendPrepared, stmt: stDelOrder, want: wantAffected, wantN: 1, key: oldKey, params: []val.Value{val.Int(oldKey)}})
			og.written.orders--
			og.written.lines -= oldLines
		}
	}
	return ops
}

// describe names an op in a failure note.
func (o *op) describe(classes []string) string {
	s := classes[o.class]
	if o.send == sendPrepared {
		s += " " + stmtSQL[o.stmt]
	} else if len(o.sqls) > 0 {
		s += " " + o.sqls[len(o.sqls)-1]
	}
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return s + " key=" + strconv.FormatInt(o.key, 10)
}
