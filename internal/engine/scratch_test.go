package engine_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"runtime/debug"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// scratchFixture is the executor tests' tt/dim fixture beside TPC-D: a
// 4-row dimension and 1500 rows of tt, its CHAR column varied.
func scratchFixture(t *testing.T, s *engine.Session) {
	t.Helper()
	exec := func(sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE dim (g_id INTEGER PRIMARY KEY, g_name CHAR(12))`)
	exec(`INSERT INTO dim VALUES (0, 'GROUP0'), (1, 'GROUP1'), (2, 'GROUP2'), (3, 'GROUP3')`)
	exec(`CREATE TABLE tt (id INTEGER PRIMARY KEY, grp INTEGER, v DECIMAL(10,2), pad CHAR(200))`)
	for lo := 0; lo < 1500; lo += 100 {
		var rows []string
		for i := lo; i < lo+100; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d.%02d, 'pad%03d')", i, i%4, (i*7919)%1000, i%100, i%37))
		}
		exec(`INSERT INTO tt VALUES ` + strings.Join(rows, ", "))
	}
}

// scratchOp is one step of TestSessionScratchAgainstFreshSessions: the
// statements of one TPC-D query, run ad hoc, or one statement whose ?
// markers take args, run prepared or with the values inlined, and with
// reenter prepared and executed again from its own row sink.
type scratchOp struct {
	sqls    []string
	args    func(rng *rand.Rand) []val.Value
	reenter bool
}

// scratchOps are the fixture's statements of TestSessionScratchAgainstFreshSessions:
// hash joins whose build rows are 0, 1, 3 and 2 values wide (the last two
// joins in one block), GROUP BY, DISTINCT, ORDER BY with LIMIT, a range
// read, Q2's correlated sub-block that hash-joins per outer row, a
// correlated sub-block that sorts per outer row, and a hash join re-entered
// from its own row sink.
var scratchOps = func() []scratchOp {
	upTo := func(lo, hi int) func(rng *rand.Rand) []val.Value {
		return func(rng *rand.Rand) []val.Value { return []val.Value{val.Int(int64(lo + rng.Intn(hi-lo)))} }
	}
	span := func(rng *rand.Rand) []val.Value {
		lo := rng.Intn(1400)
		return []val.Value{val.Int(int64(lo)), val.Int(int64(lo + 1 + rng.Intn(100)))}
	}
	return []scratchOp{
		{sqls: []string{`SELECT COUNT(*) FROM tt a, tt b WHERE a.id = b.grp AND a.id < ?`}, args: upTo(1, 1500)},
		{sqls: []string{`SELECT a.id, d.g_name FROM tt a, dim d WHERE a.grp = d.g_id AND a.v > ?`}, args: upTo(0, 1000)},
		{sqls: []string{`SELECT a.id, b.id, b.v, b.pad FROM tt a, tt b WHERE b.v = a.v AND a.id < ?`}, args: upTo(1, 400)},
		{sqls: []string{`SELECT a.id, d.g_name, b.v FROM tt a, tt b, dim d WHERE b.v = a.v AND d.g_id = b.grp AND a.id < ?`}, args: upTo(1, 400)},
		{sqls: []string{`SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(pad), MAX(v) FROM tt WHERE id < ? GROUP BY grp ORDER BY grp`}, args: upTo(1, 1500)},
		{sqls: []string{`SELECT id, COUNT(*), MAX(pad) FROM tt WHERE id < ? GROUP BY id`}, args: upTo(1, 1500)},
		{sqls: []string{`SELECT DISTINCT grp, pad FROM tt WHERE id < ?`}, args: upTo(1, 1500)},
		{sqls: []string{`SELECT id, v, pad FROM tt WHERE id < ? ORDER BY v DESC, id LIMIT 50`}, args: upTo(1, 1500)},
		{sqls: []string{`SELECT id, v, pad FROM tt WHERE id >= ? AND id < ?`}, args: span},
		{sqls: []string{`SELECT COUNT(*) FROM tt a WHERE a.id < ? AND a.v = (SELECT MIN(b.v) FROM dim d, tt b WHERE b.grp = d.g_id AND b.id >= a.id AND b.id < a.id + 4)`}, args: upTo(1, 400)},
		{sqls: []string{`SELECT a.id, (SELECT b.pad FROM tt b WHERE b.id >= a.id AND b.id < a.id + 20 AND b.grp = a.grp ORDER BY b.v DESC, b.id LIMIT 1) FROM tt a WHERE a.id < ?`}, args: upTo(1, 400)},
		{sqls: []string{`SELECT a.id, d.g_name, a.v FROM tt a, dim d WHERE a.grp = d.g_id AND a.id >= ? AND a.id < ?`}, args: span, reenter: true},
	}
}()

// inline writes args into sql's ? markers as literals.
func inline(sql string, args []val.Value) string {
	for _, a := range args {
		sql = strings.Replace(sql, "?", fmt.Sprint(a.AsInt()), 1)
	}
	return sql
}

// TestSessionScratchAgainstFreshSessions is the oracle for the memory a
// session lends its statements: two identically loaded databases, started
// cold, run one seeded sequence — TPC-D Q1–Q17 at SF 0.002 ad hoc or
// prepared, and scratchOps prepared or ad hoc — one on two long-lived
// sessions taken in turn by the seed, whose prepared statements are kept,
// the other with every step on a session of its own. A garbage collection
// runs at seeded points, and everything a statement hands back to its
// session's scratch is poisoned (PoisonScratch). After every step both must
// have returned the same rows and charged the same simulated time and count
// of every event kind. It runs serially and at parallel degrees 2 and 8,
// where the big scans and hash builds split into lanes.
func TestSessionScratchAgainstFreshSessions(t *testing.T) {
	for _, degree := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) { scratchOracle(t, degree) })
	}
}

func scratchOracle(t *testing.T, degree int) {
	const sf, steps = 0.002, 200
	engine.PoisonScratch(true)
	defer engine.PoisonScratch(false)
	var dbs [2]*engine.DB
	for i := range dbs {
		db := engine.Open(engine.Config{Parallel: degree})
		if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
			t.Fatal(err)
		}
		scratchFixture(t, db.NewSession())
		if err := db.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		coldStart(db)
		dbs[i] = db
	}
	ops := scratchOps
	for _, q := range tpcd.Queries(sf) {
		ops = append(ops, scratchOp{sqls: q.SQL})
	}
	long := []*engine.Session{dbs[0].NewSession(), dbs[0].NewSession()}
	kept := []map[string]*engine.Stmt{{}, {}}

	// run runs op on s — prepared through prepare unless adHoc — and
	// reports its rows and what it charged s's meter.
	run := func(s *engine.Session, prepare func(string) (*engine.Stmt, error), op scratchOp, args []val.Value, adHoc bool) string {
		var b strings.Builder
		rows := func(res *engine.Result, err error) {
			if err != nil {
				fmt.Fprintf(&b, "error %v; ", err)
				return
			}
			fmt.Fprintf(&b, "%d rows %x; ", len(res.Rows), sha256.Sum256(fmt.Append(nil, res.Rows)))
		}
		var st *engine.Stmt
		if !adHoc {
			var err error
			if st, err = prepare(op.sqls[0]); err != nil {
				return "prepare: " + err.Error()
			}
		}
		start := s.Meter.Elapsed()
		var counts [cost.WalWrite + 1]int64
		for k := range counts {
			counts[k] = s.Meter.Count(cost.Kind(k))
		}
		switch {
		case adHoc:
			for _, sql := range op.sqls {
				rows(s.Exec(inline(sql, args)))
			}
		case op.reenter:
			var outer, inner [][]val.Value
			_, err := st.QueryTo(scratchSink(func(row []val.Value) error {
				outer = append(outer, append([]val.Value(nil), row...))
				if len(outer) != 3 {
					return nil
				}
				res, err := st.Query(args...)
				if err == nil {
					inner = res.Rows
				}
				return err
			}), args...)
			rows(&engine.Result{Rows: outer}, err)
			rows(&engine.Result{Rows: inner}, nil)
		default:
			rows(st.Query(args...))
		}
		fmt.Fprintf(&b, "lap %v;", s.Meter.Lap(start))
		for k := range counts {
			fmt.Fprintf(&b, " %s %d", cost.Kind(k), s.Meter.Count(cost.Kind(k))-counts[k])
		}
		return b.String()
	}

	rng := rand.New(rand.NewSource(44))
	gcs := 0
	for step := 0; step < steps; step++ {
		op := ops[rng.Intn(len(ops))]
		var args []val.Value
		if op.args != nil {
			args = op.args(rng)
		}
		adHoc := len(op.sqls) > 1 || !op.reenter && rng.Intn(2) == 0
		i := rng.Intn(len(long))
		got := run(long[i], func(sql string) (*engine.Stmt, error) {
			if st, ok := kept[i][sql]; ok {
				return st, nil
			}
			st, err := long[i].Prepare(sql)
			if err == nil {
				kept[i][sql] = st
			}
			return st, err
		}, op, args, adHoc)
		fresh := dbs[1].NewSession()
		want := run(fresh, fresh.Prepare, op, args, adHoc)
		if got != want {
			t.Fatalf("step %d, session %d, ad hoc %v: %s %v\n long-lived: %s\n fresh:      %s", step, i, adHoc, op.sqls[0], args, got, want)
		}
		if held := engine.ScratchHeld(long[i]); held != 0 {
			t.Fatalf("step %d, session %d: %s left %d cuts, accumulators and lent tables in the scratch", step, i, op.sqls[0], held)
		}
		if rng.Intn(8) == 0 {
			stdruntime.GC()
			gcs++
		}
	}
	if gcs == 0 {
		t.Fatal("fixture: no garbage collection ran between the steps")
	}
	if runs := dbs[0].Stats().ParallelRuns; (degree > 1) != (runs > 0) {
		t.Fatalf("fixture: %d parallel runs at degree %d", runs, degree)
	}
}

// scratchSink is a RowSink that hands each row to a function.
type scratchSink func(row []val.Value) error

func (scratchSink) Header([]string) error       { return nil }
func (f scratchSink) Row(row []val.Value) error { return f(row) }

// TestSecondPowerPassReusesScratch: TPC-D Q1–Q17 at SF 0.002 run twice on
// one session with the collector off, and the second pass takes its batch
// frames, projection slabs, hash tables and accumulators from the session's
// scratch, which the first pass sized. The second pass allocated 9 367 KiB
// while every statement backed them afresh (the first 10 166), 818 KiB
// while accumulators and ORDER BY buffers still came from the heap; now it
// allocates 113 KiB, and the first, which sizes the scratch, 6 896. The
// bound, 2 MiB, is 22 % of the first figure. It holds at parallel degrees 2
// and 8, whose lanes take scratches of their own from the statement's: the
// second pass allocates 172 and 1 049 KiB there, where it allocated 7 546
// and 12 415 while a lane's frames, slabs, partition tables and accumulator
// came from the heap.
func TestSecondPowerPassReusesScratch(t *testing.T) {
	for _, degree := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) { secondPowerPass(t, degree) })
	}
}

func secondPowerPass(t *testing.T, degree int) {
	const sf = 0.002
	db := engine.Open(engine.Config{Parallel: degree})
	if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	pass := func() int64 {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for _, q := range tpcd.Queries(sf) {
			for _, stmt := range q.SQL {
				if _, err := s.Exec(stmt); err != nil {
					t.Fatalf("Q%d: %v", q.Num, err)
				}
			}
		}
		stdruntime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) >> 10
	}
	stdruntime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := pass()
	if second := pass(); second > 2048 {
		t.Errorf("the second pass of Q1–Q17 allocated %d KiB (the first %d), budget 2048", second, first)
	}
}

// TestScratchLetsGoAfterStatement is the live-heap side of the scratch:
// between statements a session holds it only weakly, so once a collection
// has run, the Q9 join leaves nothing behind on the session that ran it —
// the plans and pages it reads were warmed by another session before. A
// session that held its scratch strongly would keep the frames and hash
// tables Q9 sizes at SF 0.002: 3.1 MiB at degree 1, 1.5 MiB at degree 2,
// where the lanes' scratches go with the statement's.
func TestScratchLetsGoAfterStatement(t *testing.T) {
	for _, degree := range []int{1, 2} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) { scratchLetsGo(t, degree) })
	}
}

func scratchLetsGo(t *testing.T, degree int) {
	const sf = 0.002
	db := engine.Open(engine.Config{Parallel: degree})
	if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
		t.Fatal(err)
	}
	q9 := tpcd.Queries(sf)[8]
	if q9.Num != 9 {
		t.Fatalf("fixture: query %d where Q9 was expected", q9.Num)
	}
	if _, err := db.NewSession().Exec(q9.SQL[0]); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if grown := engine.HeapGrowth(func() {
		if _, err := s.Exec(q9.SQL[0]); err != nil {
			t.Fatal(err)
		}
	}); grown > 64<<10 {
		t.Errorf("after Q9 and a collection the heap is %d KiB larger than before, budget 64", grown>>10)
	}
	// The session has to outlive the collection: one that is dead by then
	// goes with all it holds, and a strong hold would pass unseen.
	stdruntime.KeepAlive(s)
}
