package engine

import (
	"fmt"
	stdruntime "runtime"
	"strings"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/race"
	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// TestBatchCapacitySchedule pins the two halves of a batch apart: the
// logical capacity — when it flushes, which is all the simulated clock can
// see — follows 64 → 256 → 1024 (or stays at a fixed 64 or 1, or, rowFirst,
// stays at 1 for 1024 fills before it grows), while the frames backing it
// never run ahead of the rows that reached them by more than one growth step
// (two frames, then four times as many).
func TestBatchCapacitySchedule(t *testing.T) {
	var rowFirstCaps []int
	for range batchSize {
		rowFirstCaps = append(rowFirstCaps, 1)
	}
	for _, c := range []struct {
		max  int
		caps []int // capacity during the 1st, 2nd, ... fill
	}{
		{batchSize, []int{64, 256, 1024, 1024}},
		{vecBatchInitial, []int{64, 64, 64}},
		{1, []int{1, 1, 1}},
		{rowFirst, append(rowFirstCaps, 64, 256, 1024, 1024)},
	} {
		v := newVecRun(&selectPlan{nSlots: 3, steps: []stepper{&scanStep{rel: &relInfo{width: 3}}}}, nil, c.max)
		st := &v.stages[0]
		b := &st.out
		reached := 0 // the most frames rows have reached in any fill so far
		for fill, want := range c.caps {
			if b.cap != want {
				t.Fatalf("max %d: capacity during fill %d = %d, want %d", c.max, fill+1, b.cap, want)
			}
			for b.n = 0; b.n < b.cap; b.n++ {
				if f := st.frame(b.n, nil); len(f) != 3 || cap(f) != 3 {
					t.Fatalf("frame %d has len %d cap %d", b.n, len(f), cap(f))
				}
				reached = max(reached, b.n+1)
				if len(b.frames) > min(max(4*(reached-1), 2), want) {
					t.Fatalf("max %d: %d frames backed when %d were reached", c.max, len(b.frames), reached)
				}
			}
			if len(b.frames) != want {
				t.Fatalf("max %d: a full batch of %d is backed by %d frames", c.max, want, len(b.frames))
			}
			b.grow()
		}
	}
}

// TestFlushSchedule replays two 3-step joins — two hash joins with a
// fan-out of two, two row-at-a-time outer joins — and compares every flush
// (stage:frames) with the trace the executor produced when every batch was
// backed in full before its first row: frames on demand must not move one
// flush point, because the flush order is the order in which the stages
// reach the buffer pool. The two blocks the pool cannot see
// (planUnobserved) keep their own schedule: a single-table block flushes
// every row for its first 1024 rows, then as a growing batch does, and a
// lead with one hash join flushes every 64 rows and never grows, its lead's
// first flush — the build — where the growing batch has it.
func TestFlushSchedule(t *testing.T) {
	s := vecDB(t, 1500, 0)
	hash := `SELECT a.id, d.g_name, b.v FROM tt a, tt b, dim d WHERE b.v = a.v AND d.g_id = b.grp AND a.id < %d`
	outer := `SELECT a.id, d.g_name, e.g_name FROM tt a LEFT OUTER JOIN dim d ON a.grp = d.g_id LEFT OUTER JOIN dim e ON e.g_id <= a.grp WHERE a.id < %d`
	single := `SELECT id, v FROM tt WHERE id < %d`
	lone := `SELECT a.id, b.id FROM tt a, tt b WHERE b.v = a.v AND a.id < %d`
	for _, c := range []struct {
		q     string
		lead  int
		rows  int
		trace string
	}{
		{hash, 70, 140, "0:64 1:64 2:64 0:6 1:76 2:76"},
		{hash, 300, 600, "0:64 1:64 2:64 0:236 1:256 2:256 1:280 2:280"},
		{hash, 1500, 2500, "0:64 1:64 2:64 0:256 1:256 2:256 0:1024 1:1024 2:1024 0:156 1:156 2:1024 2:132"},
		{outer, 70, 173, "0:64 1:64 2:64 0:6 1:6 2:109"},
		{outer, 300, 750, "0:64 1:64 2:64 0:236 1:236 2:256 2:430"},
		{outer, 1500, 3750, "0:64 1:64 2:64 0:256 1:256 2:256 0:1024 1:1024 2:1024 2:1024 0:156 1:156 2:1024 2:358"},
		{single, 5, 5, "0:1 0:1 0:1 0:1 0:1"},
		{single, 1100, 1100, strings.Repeat("0:1 ", 1024) + "0:64 0:12"},
		{lone, 70, 140, "0:64 1:64 1:64 0:6 1:12"},
		{lone, 300, 600, "0:64 1:64 1:64 0:64 1:64 1:64 0:64 1:64 1:64 0:64 1:64 1:64 0:44 1:64 1:24"},
	} {
		ast, err := sqlparse.Parse(fmt.Sprintf(c.q, c.lead))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.db.planSelect(ast.(*sqlparse.SelectStmt), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		v := newVecRun(plan, newBlockExec(&runtime{sess: s}, nil), plan.batchCap())
		var trace []string
		v.trace = func(stage, n int) { trace = append(trace, fmt.Sprintf("%d:%d", stage, n)) }
		rows := 0
		if err := v.project(func(outRow) error { rows++; return nil }, true); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(trace, " "); got != c.trace || rows != c.rows {
			t.Errorf("%d lead rows of %q:\n got %d rows, flushes %s\nwant %d rows, flushes %s", c.lead, c.q, rows, got, c.rows, c.trace)
		}
	}
}

// heapGrowth is the live heap fn leaves behind.
func heapGrowth(fn func()) int64 {
	var before, after stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&before)
	fn()
	stdruntime.GC()
	stdruntime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestStmtRetainsPlanShapeOnly is the retention rule of statement-owned
// run state: 200 prepared statements that have each returned 5 000 rows —
// through a sort, a DISTINCT set, a hash table and a cached sub-block, or
// out of 5 000 groups — hold within 1 MiB of what 200 that never ran hold.
// The cursor caches keep hundreds of Stmts alive; whatever an execution
// sized by its rows has to be gone when it ends.
func TestStmtRetainsPlanShapeOnly(t *testing.T) {
	s := vecDB(t, 5000, 0)
	for _, q := range []string{
		`SELECT DISTINCT a.id, a.v, a.pad, d.g_name FROM tt a, dim d
			WHERE a.grp = d.g_id AND a.id >= (SELECT MIN(id) FROM tt) ORDER BY a.v, a.id`,
		`SELECT id, MAX(pad), SUM(v) FROM tt GROUP BY id`,
	} {
		prepare := func(run bool) func() {
			return func() {
				stmts := make([]*Stmt, 200)
				for i := range stmts {
					st, err := s.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					if run {
						res, err := st.Query()
						if err != nil || len(res.Rows) != 5000 {
							t.Fatalf("%d rows, %v", len(res.Rows), err)
						}
					}
					stmts[i] = st
				}
				keep = append(keep, stmts)
			}
		}
		idle := heapGrowth(prepare(false))
		ran := heapGrowth(prepare(true))
		keep = nil
		if extra := ran - idle; extra > 1<<20 {
			t.Errorf("%q:\n200 executed Stmts hold %d KiB more than 200 idle ones (idle %d KiB), want < 1024", q, extra>>10, idle>>10)
		}
	}
}

// keep holds TestStmtRetainsPlanShapeOnly's statements across its GCs.
var keep [][]*Stmt

// TestUnobservedAllocationsFlat: a block the buffer pool cannot see
// (planUnobserved) hands on its first 1024 rows one at a time, so a prepared
// single-table SELECT rewrites one frame per stage, and what an execution
// allocates does not grow with the rows it returns — the
// same count for 4, 10 and 1 000 rows into a RowSink that only counts them
// (none today). On the growing batch every execution that returned more
// than two rows backed its frames afresh: 4, 6 and 12 allocations.
func TestUnobservedAllocationsFlat(t *testing.T) {
	s := vecDB(t, 1500, 0)
	st, err := s.Prepare(`SELECT id, v, pad FROM tt WHERE id >= ? AND id < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.plan.batchCap() != rowFirst {
		t.Fatalf("fixture: the block runs at capacity %d, want rowFirst", st.plan.batchCap())
	}
	var allocs []float64
	for _, n := range []int64{4, 10, 1000} {
		rows := int64(0)
		sink := rowFunc(func([]val.Value) error { rows++; return nil })
		args := []val.Value{val.Int(100), val.Int(100 + n)}
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			rows = 0
			if _, err := st.QueryTo(sink, args...); err != nil || rows != n {
				t.Fatalf("%d rows, %v; want %d", rows, err, n)
			}
		}))
	}
	if !race.Enabled && (allocs[1] != allocs[0] || allocs[2] != allocs[0]) {
		t.Errorf("4, 10 and 1000 rows allocate %v times per execution, want the same", allocs)
	}
}

// rowFunc is a RowSink that only looks at rows.
type rowFunc func(row []val.Value) error

func (rowFunc) Header([]string) error       { return nil }
func (f rowFunc) Row(row []val.Value) error { return f(row) }

// TestRunStateReentry covers the two ways a block's run state can be asked
// for while it is in use: one view scanned twice by one statement, and a
// Stmt executed again from inside its own row sink. Neither may share the
// busy state; both must answer as if they ran alone.
func TestRunStateReentry(t *testing.T) {
	s := vecDB(t, 300, 0)
	mustExec(t, s, `CREATE VIEW gsum AS SELECT grp, SUM(v) AS total, COUNT(*) AS n FROM tt GROUP BY grp`)
	st, err := s.Prepare(`SELECT a.grp, b.grp, a.n FROM gsum a, gsum b WHERE a.total >= b.total ORDER BY a.grp, b.grp`)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRows(mustExec(t, s, `SELECT a.grp, b.grp, a.n FROM gsum a, gsum b WHERE a.total >= b.total ORDER BY a.grp, b.grp`).Rows)
	for i := 0; i < 3; i++ {
		res, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 || encodeRows(res.Rows) != want {
			t.Fatalf("execution %d of the two-view join returned %d rows, differing from the ad-hoc answer", i, len(res.Rows))
		}
	}

	st, err = s.Prepare(`SELECT id, v FROM tt WHERE id >= ? AND id < ? ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := st.Query(val.Int(100), val.Int(110))
	if err != nil {
		t.Fatal(err)
	}
	var outer, inner [][]val.Value
	_, err = st.QueryTo(rowFunc(func(row []val.Value) error {
		outer = append(outer, append([]val.Value(nil), row...))
		if len(outer) != 5 {
			return nil
		}
		// Half way through its own result the statement runs again.
		res, err := st.Query(val.Int(100), val.Int(110))
		if err == nil {
			inner = res.Rows
		}
		return err
	}), val.Int(0), val.Int(70))
	if err != nil {
		t.Fatal(err)
	}
	if len(outer) != 70 || outer[69][0].AsInt() != 69 {
		t.Errorf("the outer execution returned %d rows ending in %v", len(outer), outer[len(outer)-1])
	}
	if encodeRows(inner) != encodeRows(alone.Rows) {
		t.Errorf("the re-entrant execution returned %v, alone %v", inner, alone.Rows)
	}
	again, err := st.Query(val.Int(100), val.Int(110))
	if err != nil || encodeRows(again.Rows) != encodeRows(alone.Rows) {
		t.Errorf("after the re-entry the statement returned %v (%v), want %v", again, err, alone.Rows)
	}
}

// TestPreparedStmtSeesDDL is the stale-plan regression: a prepared
// statement used to run the plan it was prepared with forever. Dropping the
// index the plan probes left it probing the dropped, no longer maintained
// tree (6 rows for 7); dropping and re-creating its table left it reading
// the dropped heap (0 rows, or an error, for 50). DDL that touches nothing
// the statement reads must not make it replan.
func TestPreparedStmtSeesDDL(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	load := func(rows, perKey int) {
		t.Helper()
		mustExec(t, s, `CREATE TABLE D (ID INTEGER PRIMARY KEY, N INTEGER, PAD CHAR(200))`)
		for i := 0; i < rows; i++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO D VALUES (%d, %d, 'x')`, i, i%(rows/perKey)))
		}
	}
	load(3000, 6)
	mustExec(t, s, `CREATE INDEX D_N ON D (N)`)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TABLE OTHER (X INTEGER PRIMARY KEY)`)
	st, err := s.Prepare(`SELECT ID FROM D WHERE N = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Explain(), "via D_N") {
		t.Fatalf("fixture: the statement does not use D_N:\n%s", st.Explain())
	}
	rows := func(want int) {
		t.Helper()
		res, err := st.Query(val.Int(3))
		if err != nil {
			t.Fatal(err)
		}
		adhoc := mustExec(t, s, `SELECT ID FROM D WHERE N = 3`)
		if len(res.Rows) != want || len(adhoc.Rows) != want {
			t.Fatalf("prepared returns %d rows, ad hoc %d, want %d", len(res.Rows), len(adhoc.Rows), want)
		}
	}
	rows(6)

	// Unrelated DDL and plain writes: same plan, no optimizer round.
	start := s.Meter.Elapsed()
	mustExec(t, s, `CREATE INDEX OTHER_X ON OTHER (X)`)
	mustExec(t, s, `CREATE VIEW OV AS SELECT X FROM OTHER`)
	ddl := s.Meter.Lap(start)
	start = s.Meter.Elapsed()
	rows(6)
	withDDL := s.Meter.Lap(start)
	start = s.Meter.Elapsed()
	rows(6)
	if plain := s.Meter.Lap(start); withDDL != plain {
		t.Errorf("an execution after unrelated DDL (%v) took %v on the simulated clock, the next one %v", ddl, withDDL, plain)
	}

	mustExec(t, s, `DROP INDEX D_N`)
	mustExec(t, s, `INSERT INTO D VALUES (10000, 3, 'x')`)
	start = s.Meter.Elapsed()
	rows(7)
	if replanned := s.Meter.Lap(start); replanned < s.Meter.Model().PerEvent[cost.Optimize] {
		t.Errorf("the execution after DROP INDEX took %v, less than one optimizer round", replanned)
	}
	if strings.Contains(st.Explain(), "D_N") {
		t.Errorf("the statement still plans through the dropped index:\n%s", st.Explain())
	}

	mustExec(t, s, `DROP TABLE D`)
	if _, err := st.Query(val.Int(3)); err == nil || !strings.Contains(err.Error(), "D") {
		t.Errorf("with its table dropped the statement returned %v, want an error naming D", err)
	}
	load(5000, 50)
	rows(50)
}

// TestPreparedDMLSeesDDL is TestPreparedStmtSeesDDL for INSERT, UPDATE and
// DELETE, which keep their plan between executions too: an INSERT prepared
// before CREATE INDEX maintains the new index, an UPDATE and a DELETE planned
// through an index stop probing it once it is dropped (the dropped tree
// misses a row inserted since), each names its dropped table in its error and
// works again once the table is re-created, and DDL on another table makes
// none of them plan again.
func TestPreparedDMLSeesDDL(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	load := func() {
		t.Helper()
		mustExec(t, s, `CREATE TABLE D (ID INTEGER PRIMARY KEY, N INTEGER, V INTEGER, PAD CHAR(200))`)
		for lo := 0; lo < 3000; lo += 100 {
			var vals []string
			for i := lo; i < lo+100; i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, 0, 'x')", i, i%300))
			}
			mustExec(t, s, `INSERT INTO D VALUES `+strings.Join(vals, ", "))
		}
		mustExec(t, s, `CREATE INDEX D_N ON D (N)`)
		if err := db.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
	}
	load()
	mustExec(t, s, `CREATE TABLE OTHER (X INTEGER PRIMARY KEY)`)
	prepare := func(sql string) *Stmt {
		t.Helper()
		st, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ins := prepare(`INSERT INTO D VALUES (?, ?, 0, 'y')`)
	upd := prepare(`UPDATE D SET V = V + 1 WHERE N = ?`)
	del := prepare(`DELETE FROM D WHERE N = ?`)
	if !strings.Contains(upd.Explain(), "not yet planned") {
		t.Errorf("before its first execution the UPDATE explains as\n%s", upd.Explain())
	}
	run := func(st *Stmt, want int64, params ...val.Value) {
		t.Helper()
		res, err := st.Query(params...)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != want {
			t.Fatalf("%s affected %d rows, want %d", st.Explain(), res.RowsAffected, want)
		}
	}
	indexed := func() {
		t.Helper()
		d := db.Table("D")
		for _, ix := range d.Indexes {
			if ix.Tree.Entries() != d.Heap.Rows() {
				t.Fatalf("index %s has %d entries for %d rows", ix.Name, ix.Tree.Entries(), d.Heap.Rows())
			}
		}
	}
	run(upd, 10, val.Int(1))
	run(del, 10, val.Int(2))
	run(ins, 1, val.Int(10000), val.Int(3))
	for _, st := range []*Stmt{upd, del} {
		if !strings.Contains(st.Explain(), "index scan D via D_N") {
			t.Fatalf("fixture: the statement does not match through D_N:\n%s", st.Explain())
		}
	}

	// DDL on another table: the same plans, not one block planned again.
	mustExec(t, s, `CREATE INDEX OTHER_X ON OTHER (X)`)
	before := []*dmlPlan{ins.dml, upd.dml, del.dml}
	blocks := 0
	planned = func(*selectPlan) { blocks++ }
	defer func() { planned = nil }()
	run(upd, 10, val.Int(1))
	run(del, 0, val.Int(2))
	run(ins, 1, val.Int(10001), val.Int(3))
	planned = nil
	if blocks != 0 || ins.dml != before[0] || upd.dml != before[1] || del.dml != before[2] {
		t.Errorf("after DDL on another table the statements planned %d blocks; plans kept: %v %v %v",
			blocks, ins.dml == before[0], upd.dml == before[1], del.dml == before[2])
	}

	mustExec(t, s, `CREATE INDEX D_V ON D (V)`)
	run(ins, 1, val.Int(10002), val.Int(4))
	indexed()

	mustExec(t, s, `DROP INDEX D_N`)
	mustExec(t, s, `INSERT INTO D VALUES (20000, 5, 0, 'z')`)
	run(upd, 11, val.Int(5))
	if strings.Contains(upd.Explain(), "D_N") {
		t.Errorf("the UPDATE still matches through the dropped index:\n%s", upd.Explain())
	}
	run(del, 11, val.Int(5))
	indexed()

	mustExec(t, s, `DROP TABLE D`)
	for i, st := range []*Stmt{ins, upd, del} {
		if _, err := st.Query(val.Int(30000), val.Int(6)); err == nil || !strings.Contains(err.Error(), "D") {
			t.Errorf("with its table dropped the %s returned %v, want an error naming D", []string{"INSERT", "UPDATE", "DELETE"}[i], err)
		}
	}
	load()
	run(ins, 1, val.Int(30000), val.Int(6))
	run(upd, 11, val.Int(6))
	run(del, 11, val.Int(6))
	indexed()
}

// TestCorrelatedTablesPoisoned: a correlated sub-block that hash-joins
// rebuilds its table, for every outer row, in the storage the previous
// outer row's build filled (blockRun), and keeps its rows in the chunks the
// previous outer row's rows filled (subRows). With every table poisoned
// when it is emptied for the next build and when its block's execution is
// over, and every kept row when the next outer row's run releases it, the
// answers — a DECIMAL and a CHAR carried through the build rows, build rows
// with a NULL key, outer rows that match nothing; a Q17-shaped comparison
// with a correlated AVG; an IN over several kept rows — are still the ones
// computed here from the fixture, ad hoc and prepared, twice.
func TestCorrelatedTablesPoisoned(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE q (g INTEGER PRIMARY KEY, label CHAR(8))`)
	mustExec(t, s, `INSERT INTO q VALUES (0, 'L0'), (1, 'L1'), (2, 'L2'), (3, 'L3')`)
	mustExec(t, s, `CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, v DECIMAL(10,2), name CHAR(200))`)
	const n = 1500
	key := func(id int) (int, bool) { return id % 4, id%11 != 0 && (id < 700 || id >= 720) }
	v := func(id int) float64 { return float64(id*37%100) + 0.25 }
	name := func(id int) string { return fmt.Sprintf("N%05d", id*7919%1000) }
	for id := 0; id < n; id++ {
		k := "NULL"
		if g, ok := key(id); ok {
			k = fmt.Sprint(g)
		}
		mustExec(t, s, fmt.Sprintf(`INSERT INTO p VALUES (%d, %s, %v, '%s')`, id, k, v(id), name(id)))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	const where = `FROM q, p y WHERE y.k = q.g AND y.id >= x.id AND y.id < x.id + 5`
	const query = `SELECT x.id, (SELECT MAX(y.name) ` + where + `), (SELECT SUM(y.v) ` + where + `) FROM p x ORDER BY x.id`
	var want strings.Builder
	for x := 0; x < n; x++ {
		maxName, sum, any := "", 0.0, false
		for id := x; id < min(x+5, n); id++ {
			if _, ok := key(id); ok {
				maxName, sum, any = max(maxName, name(id)), sum+v(id), true
			}
		}
		if any {
			fmt.Fprintf(&want, "%d %s %v\n", x, maxName, sum)
		} else {
			fmt.Fprintf(&want, "%d NULL NULL\n", x)
		}
	}

	hashed := false
	planned = func(p *selectPlan) {
		for _, st := range p.steps {
			if _, ok := st.(*hashStep); ok && p.correlated {
				hashed = true
			}
		}
	}
	const q17 = `SELECT x.id FROM p x WHERE x.v < (SELECT AVG(y.v) FROM p y WHERE y.k = x.k AND y.id >= x.id AND y.id < x.id + 5) ORDER BY x.id`
	const in = `SELECT x.id FROM p x WHERE x.k IN (SELECT y.k FROM p y WHERE y.id > x.id AND y.id < x.id + 9) ORDER BY x.id`
	var wantQ17, wantIn strings.Builder
	for x := 0; x < n; x++ {
		gx, ok := key(x)
		if !ok {
			continue
		}
		sum, cnt, match := 0.0, 0, false
		for id := x; id < min(x+9, n); id++ {
			if g, ok := key(id); ok && g == gx {
				if id < x+5 {
					sum, cnt = sum+v(id), cnt+1
				}
				match = match || id > x
			}
		}
		if v(x) < sum/float64(cnt) {
			fmt.Fprintf(&wantQ17, "%d\n", x)
		}
		if match {
			fmt.Fprintf(&wantIn, "%d\n", x)
		}
	}

	poisoned, rowsPoisoned := 0, 0
	val.Poison = func(released any) {
		switch released.(type) {
		case *hashTable:
			poisoned++
		case *[]val.Value:
			rowsPoisoned++
		}
		poisonReleased(released)
	}
	defer func() { planned, val.Poison = nil, nil }()
	for _, q := range []struct{ sql, want string }{{query, want.String()}, {q17, wantQ17.String()}, {in, wantIn.String()}} {
		st, err := s.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			for _, how := range []string{"ad hoc", "prepared"} {
				var res *Result
				if how == "ad hoc" {
					res = mustExec(t, s, q.sql)
				} else if res, err = st.Query(); err != nil {
					t.Fatal(err)
				}
				var got strings.Builder
				for _, r := range res.Rows {
					fmt.Fprintf(&got, "%d", r[0].AsInt())
					for _, c := range r[1:] {
						if c.IsNull() {
							got.WriteString(" NULL")
						} else {
							got.WriteString(" " + strings.TrimRight(c.AsStr(), " "))
						}
					}
					got.WriteByte('\n')
				}
				if got.String() != q.want {
					t.Fatalf("%s: run %d %s: answers differ from the fixture's", q.sql, run, how)
				}
			}
		}
	}
	if !hashed || poisoned < 2*n || rowsPoisoned < 3*n {
		t.Fatalf("the sub-blocks hash-joined: %v; tables poisoned %d times, kept rows %d times", hashed, poisoned, rowsPoisoned)
	}
}
