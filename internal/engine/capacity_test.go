package engine_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"r3bench/internal/btree"
	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/storage"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// capacityViews are the views capacityCases read: a join read alone, so
// that its plan streams into the reader's scan.
var capacityViews = []string{
	`CREATE VIEW cust_nation AS SELECT c_custkey, c_name, c_acctbal, n_name FROM customer, nation WHERE c_nationkey = n_nationkey`,
}

// capacityCase is one statement of TestUnobservedCapacityChargesAlike: run
// once through Exec when args is nil, else prepared and executed once per
// parameter list.
type capacityCase struct {
	sql  string
	args [][]val.Value
}

// capacityCases are the short statements of the read workload — prepared
// and literal key lookups, a LINEITEM range and a thousand-row BETWEEN —
// and blocks of each shape the capacity rule tells apart: a lead with a
// hash join and a filter after it, a second hash join, a streamed view, a
// grouped and sorted block cut by LIMIT, LIMIT without ORDER BY, and a
// lead of a thousand rows with an index nested-loop join, which the planner
// picks because an UPDATE it has no statistics of made the lead's filter
// pass them.
var capacityCases = func() []capacityCase {
	keys := func(ks ...int64) [][]val.Value {
		var out [][]val.Value
		for _, k := range ks {
			out = append(out, []val.Value{val.Int(k)})
		}
		return out
	}
	return []capacityCase{
		{`SELECT * FROM orders WHERE o_orderkey = ?`, keys(1, 7, 4001, 5988)},
		{`SELECT * FROM customer WHERE c_custkey = ?`, keys(1, 150, 299)},
		{`SELECT * FROM part WHERE p_partkey = ?`, keys(3, 200, 400)},
		{`SELECT * FROM lineitem WHERE l_orderkey = ?`, keys(1, 7, 33, 4001, 5988)},
		{`SELECT * FROM orders WHERE o_custkey = ?`, keys(1, 2, 100, 298)},
		{`SELECT * FROM lineitem WHERE l_orderkey BETWEEN ? AND ?`, [][]val.Value{{val.Int(1), val.Int(1000)}, {val.Int(3000), val.Int(4000)}}},
		{`SELECT * FROM orders WHERE o_orderkey = 4001`, nil},
		{`SELECT * FROM customer WHERE c_custkey = 150`, nil},
		{`SELECT * FROM part WHERE p_partkey = 200`, nil},
		{`SELECT * FROM lineitem WHERE l_orderkey = 33`, nil},
		{`SELECT * FROM orders WHERE o_custkey = 100`, nil},
		{`SELECT * FROM lineitem WHERE l_orderkey BETWEEN 1000 AND 2000`, nil},
		{`SELECT o_orderkey, o_totalprice, c_name FROM orders, customer
			WHERE o_custkey = c_custkey AND o_totalprice > c_acctbal * 20`, nil},
		{`SELECT ps_partkey, s_name, ps_supplycost FROM partsupp, supplier
			WHERE ps_suppkey = s_suppkey AND ps_supplycost < s_acctbal / 10 ORDER BY ps_supplycost DESC, ps_partkey`, nil},
		{`SELECT c_name, n_name, r_name FROM customer, nation, region
			WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey AND c_acctbal > 9000`, nil},
		{`SELECT c_name, n_name FROM cust_nation WHERE c_acctbal > 5000`, nil},
		{`SELECT n_name, COUNT(*), MAX(c_acctbal) FROM cust_nation GROUP BY n_name ORDER BY 3 DESC, 1 LIMIT 4`, nil},
		{`SELECT l_suppkey, SUM(l_quantity) FROM lineitem WHERE l_shipdate > DATE '1996-01-01'
			GROUP BY l_suppkey ORDER BY 2 DESC, 1 LIMIT 5`, nil},
		{`SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_discount > 0.05 LIMIT 70`, nil},
		{`UPDATE orders SET o_totalprice = 500000 WHERE o_orderkey < 1200`, nil},
		{`SELECT o_orderkey, l_linenumber FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_totalprice > 450000`, nil},
		{`UPDATE lineitem SET l_extendedprice = 99000 WHERE l_orderkey < 1200`, nil},
		{`SELECT l_orderkey, o_orderdate FROM lineitem, orders WHERE o_orderkey = l_orderkey AND l_extendedprice > 95000`, nil},
	}
}()

// capacityTables are the TPC-D tables, whose pages capacitySnapshot looks up
// in the pool.
var capacityTables = []string{"LINEITEM", "ORDERS", "CUSTOMER", "PART", "PARTSUPP", "SUPPLIER", "NATION", "REGION"}

// coldCounters is what db's buffer pool, readahead and index cache had
// counted when it started cold: capacitySnapshot reports what came after.
type coldCounters struct {
	shards []storage.ShardStats
	ra     [3]int64 // readahead windows, pages and hits
	ix     btree.PageCacheStats
}

func countersOf(db *engine.DB) coldCounters {
	c := coldCounters{shards: db.Pool().Stats(), ix: db.IndexCache().Stats()}
	c.ra[0], c.ra[1], c.ra[2] = db.Pool().ReadaheadStats()
	return c
}

// capacitySnapshot is everything the buffer pool, the index cache and the
// meter have counted on db's session s since cold, and which pages the pool
// holds.
func capacitySnapshot(db *engine.DB, s *engine.Session, cold coldCounters) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lap %v;", s.Meter.Elapsed())
	for k := cost.SeqRead; k <= cost.WalWrite; k++ {
		fmt.Fprintf(&b, " %s %d", k, s.Meter.Count(k))
	}
	pool := db.Pool()
	for i, sh := range pool.Stats() {
		c := cold.shards[i]
		fmt.Fprintf(&b, "; shard %d %d/%d/%d young %d old %d", i, sh.Hits-c.Hits, sh.Misses-c.Misses, sh.ReadaheadHits-c.ReadaheadHits, sh.Young, sh.Old)
	}
	for _, name := range capacityTables {
		heap := db.Table(name).Heap
		fmt.Fprintf(&b, "; %s ", name)
		for pg := 0; pg < heap.Pages(); pg++ {
			if pool.Contains(heap.File(), storage.PageID(pg)) {
				b.WriteByte('+')
			} else {
				b.WriteByte('.')
			}
		}
	}
	w, p, h := pool.ReadaheadStats()
	ix := db.IndexCache().Stats()
	fmt.Fprintf(&b, "; readahead %d/%d/%d; index cache %d/%d/%d/%d", w-cold.ra[0], p-cold.ra[1], h-cold.ra[2],
		ix.Hits-cold.ix.Hits, ix.Misses-cold.ix.Misses, ix.ScanBypass-cold.ix.ScanBypass, ix.Resident)
	return b.String()
}

// coldStart empties db's buffer pool and index cache of every table's
// pages, so that two loads whose streams interleaved differently start
// their reads alike.
func coldStart(db *engine.DB) {
	for _, name := range db.TableNames() {
		t := db.Table(name)
		db.Pool().DropFile(t.Heap.File())
		for _, ix := range t.Indexes {
			ix.Tree.ReleaseCache()
		}
	}
}

// TestUnobservedCapacityChargesAlike is the oracle for the batch capacity
// rule (selectPlan.batchCap): on a pool about a fifth the size of the data, two
// identically loaded databases, started cold, run TPC-D Q1–Q17 and
// capacityCases in the same order, one at the capacities planSelect derives
// and one with every block back on the growing batch. After each execution
// both must have returned the same rows, charged the same simulated time
// and the same count of every event kind, and left the same pages in the
// pool, the same hits, misses (since the cold start) and occupancy in every
// pool shard, the readahead counters and the index cache. Blocks under
// every rule of batchCap take part.
func TestUnobservedCapacityChargesAlike(t *testing.T) {
	const sf = 0.002
	// The load's streams run in parallel and leave the pool as they
	// interleaved: each side starts cold and counts from there.
	open := func() (*engine.DB, *engine.Session, coldCounters) {
		db := engine.Open(engine.Config{BufferBytes: 64 * storage.PageSize})
		if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
			t.Fatal(err)
		}
		coldStart(db)
		cold := countersOf(db)
		s := db.NewSession()
		for _, v := range capacityViews {
			if _, err := s.Exec(v); err != nil {
				t.Fatal(err)
			}
		}
		return db, s, cold
	}
	type side struct {
		db   *engine.DB
		s    *engine.Session
		cold coldCounters
	}
	var sides [2]side
	for i := range sides {
		sides[i].db, sides[i].s, sides[i].cold = open()
	}
	rules := map[string]int{}
	defer engine.WatchCapacities(func(rule string) { rules[rule]++ })()
	defer engine.GrowEveryBatch(false)
	// compare runs fn on both sides, the second on the growing batch.
	compare := func(what string, fn func(i int) (*engine.Result, error)) {
		t.Helper()
		var got [2]string
		for i, sd := range sides {
			engine.GrowEveryBatch(i == 1)
			res, err := fn(i)
			engine.GrowEveryBatch(false)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got[i] = fmt.Sprintf("%d rows %x; %s", len(res.Rows), sha256.Sum256(fmt.Append(nil, res.Rows)), capacitySnapshot(sd.db, sd.s, sd.cold))
		}
		derived, growing := strings.Split(got[0], "; "), strings.Split(got[1], "; ")
		for j := range min(len(derived), len(growing)) {
			if derived[j] != growing[j] {
				t.Errorf("%s:\n at the derived capacity %s\n on the growing batch   %s", what, derived[j], growing[j])
				break
			}
		}
	}
	if a, b := capacitySnapshot(sides[0].db, sides[0].s, sides[0].cold), capacitySnapshot(sides[1].db, sides[1].s, sides[1].cold); a != b {
		t.Fatalf("fixture: the two loads leave different counters:\n%s\n%s", a, b)
	}
	for _, q := range tpcd.Queries(sf) {
		for _, sql := range q.SQL {
			compare(fmt.Sprintf("Q%d", q.Num), func(i int) (*engine.Result, error) { return sides[i].s.Exec(sql) })
		}
	}
	for _, c := range capacityCases {
		if c.args == nil {
			compare(c.sql, func(i int) (*engine.Result, error) { return sides[i].s.Exec(c.sql) })
			continue
		}
		var stmts [2]*engine.Stmt
		for i, sd := range sides {
			st, err := sd.s.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			stmts[i] = st
		}
		for _, args := range c.args {
			compare(fmt.Sprintf("%s %v", c.sql, args), func(i int) (*engine.Result, error) { return stmts[i].Query(args...) })
		}
	}
	for _, rule := range []string{"stops early", "unobserved", "unobserved hash join", "growing"} {
		if rules[rule] == 0 {
			t.Errorf("fixture: no block takes its capacity from the rule %q (%v)", rule, rules)
		}
	}
	t.Logf("blocks planned by capacity rule: %v", rules)
}
