package engine

import (
	"fmt"
	"reflect"
	stdruntime "runtime"
	"testing"

	"r3bench/internal/race"
	"r3bench/internal/val"
)

func parseStats(db *DB) (stmts, hits, misses int64) {
	st := db.Stats()
	return st.ParseStatements, st.ParseHits, st.ParseMisses
}

func TestParseCacheHitsAndMisses(t *testing.T) {
	db, s := testDB(t)
	base, _, _ := parseStats(db)
	const q = `SELECT e_id FROM emp WHERE e_id = 7`
	want := mustExec(t, s, q)
	for i := 0; i < 4; i++ {
		res := mustExec(t, s, q)
		if !reflect.DeepEqual(res.Rows, want.Rows) {
			t.Fatalf("run %d: rows diverged", i)
		}
	}
	stmts, hits, misses := parseStats(db)
	if got := stmts - base; got != 5 {
		t.Fatalf("statements = %d, want 5", got)
	}
	if hits != 4 {
		t.Fatalf("cache_hits = %d, want 4", hits)
	}
	if stmts != hits+misses {
		t.Fatalf("statements %d != hits %d + misses %d", stmts, hits, misses)
	}
}

func TestParseCacheSharedAcrossSessions(t *testing.T) {
	db, s1 := testDB(t)
	s2 := db.NewSession()
	const q = `SELECT COUNT(*) FROM emp`
	mustExec(t, s1, q)
	_, hitsBefore, _ := parseStats(db)
	if _, err := s2.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, hits, _ := parseStats(db); hits != hitsBefore+1 {
		t.Fatalf("second session did not hit the cache: hits %d -> %d", hitsBefore, hits)
	}
}

// TestParseCacheKeysRawBytes: the fingerprint covers the raw statement
// bytes, so a text that differs only in trailing whitespace is a new
// statement and misses, while repeating a text hits. The miss sides of
// the meter-equality tests rely on this.
func TestParseCacheKeysRawBytes(t *testing.T) {
	db, s := testDB(t)
	const q = `SELECT e_id FROM emp WHERE e_id = 7`
	mustExec(t, s, q)
	mustExec(t, s, q+" ")
	mustExec(t, s, q+"  ")
	if _, hits, _ := parseStats(db); hits != 0 {
		t.Fatalf("cache_hits = %d for texts differing in whitespace, want 0", hits)
	}
	mustExec(t, s, q+" ")
	if _, hits, _ := parseStats(db); hits != 1 {
		t.Fatalf("cache_hits = %d after repeating a text, want 1", hits)
	}
}

// TestParseCacheMeterEquality runs the same mixed statement sequence on
// two identical databases, one repeating its statement texts (hits) and
// one making every text unique with trailing whitespace (misses), and
// requires bit-identical simulated meters: the fingerprint cache must be
// invisible to the virtual clock.
func TestParseCacheMeterEquality(t *testing.T) {
	run := func(hit bool) (int64, [][]val.Value) {
		db, s := testDB(t)
		pad := ""
		exec := func(q string) *Result {
			if !hit {
				pad += " "
			}
			return mustExec(t, s, q+pad)
		}
		start := int64(s.Meter.Elapsed())
		var last [][]val.Value
		for i := 0; i < 3; i++ {
			exec(`SELECT d_name, COUNT(*) FROM emp, dept WHERE e_dept = d_id GROUP BY d_name ORDER BY d_name`)
			exec(`UPDATE emp SET e_salary = e_salary + 1 WHERE e_id = 3`)
			last = exec(`SELECT e_id, e_salary FROM emp WHERE e_id <= 5 ORDER BY e_id`).Rows
		}
		if _, hits, _ := parseStats(db); (hits > 0) != hit {
			t.Fatalf("hit=%v run recorded %d fingerprint hits", hit, hits)
		}
		return int64(s.Meter.Elapsed()) - start, last
	}
	hitTime, hitRows := run(true)
	missTime, missRows := run(false)
	if hitTime != missTime {
		t.Fatalf("simulated time diverged: hits %d, misses %d", hitTime, missTime)
	}
	if !reflect.DeepEqual(hitRows, missRows) {
		t.Fatal("results diverged between hits and misses")
	}
}

// currentPlan is the plan planFor would serve from entry now.
func currentPlan(db *DB, entry *parseEntry) *selectPlan {
	return entry.cachedPlan(db.planEpoch.Load(), db.snap())
}

// TestParseCachePlanInvalidation: a cached plan must not survive DDL on a
// table it reads, or ANALYZE, which can change what the optimizer would
// choose.
func TestParseCachePlanInvalidation(t *testing.T) {
	db, s := testDB(t)
	const q = `SELECT e_salary FROM emp WHERE e_salary > 1990`
	mustExec(t, s, q) // plan now cached
	entry := db.pcache.lookup(fingerprint(q), q)
	if entry == nil {
		t.Fatal("statement not in the fingerprint cache")
	}
	if currentPlan(db, entry) == nil {
		t.Fatal("no plan cached")
	}
	mustExec(t, s, `CREATE INDEX emp_sal ON emp (e_salary)`)
	if currentPlan(db, entry) != nil {
		t.Fatal("cached plan survived CREATE INDEX")
	}
	mustExec(t, s, q) // replans and re-caches
	if err := db.Analyze("emp"); err != nil {
		t.Fatal(err)
	}
	if currentPlan(db, entry) != nil {
		t.Fatal("cached plan survived ANALYZE")
	}
	mustExec(t, s, q)
	if currentPlan(db, entry) == nil {
		t.Fatal("re-execution did not re-cache the plan")
	}
}

// TestParseCacheWriteInvalidation: before ANALYZE a table's row estimate
// is its live row count, so a write to t retires the cached plans that
// read t, and leaves a plan over u served.
func TestParseCacheWriteInvalidation(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)`)
	mustExec(t, s, `CREATE TABLE u (a INTEGER PRIMARY KEY, b INTEGER)`)
	const qt, qu = `SELECT COUNT(*) FROM t`, `SELECT COUNT(*) FROM u`
	if n := mustExec(t, s, qt).Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("want 0, got %d", n)
	}
	mustExec(t, s, qu)
	et, eu := db.pcache.lookup(fingerprint(qt), qt), db.pcache.lookup(fingerprint(qu), qu)
	if currentPlan(db, et) == nil || currentPlan(db, eu) == nil {
		t.Fatal("plans not cached")
	}
	mustExec(t, s, `INSERT INTO t VALUES (1, 10)`)
	if currentPlan(db, et) != nil {
		t.Fatal("a plan over t survived an insert into t")
	}
	if currentPlan(db, eu) == nil {
		t.Fatal("an insert into t retired the plan over u")
	}
	before := db.Stats()
	if n := mustExec(t, s, qt).Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("want 1 after insert, got %d", n)
	}
	mustExec(t, s, qu)
	if st := db.Stats(); st.PlanHits != before.PlanHits+1 || st.PlanMisses != before.PlanMisses+1 {
		t.Fatalf("plan hits %d -> %d, misses %d -> %d; want one of each (u served, t planned)",
			before.PlanHits, st.PlanHits, before.PlanMisses, st.PlanMisses)
	}
}

func TestParseCacheCap(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (a INTEGER PRIMARY KEY)`)
	for i := 0; i < parseCacheCap+50; i++ {
		mustExec(t, s, fmt.Sprintf(`SELECT a FROM t WHERE a = %d`, i))
	}
	db.pcache.mu.RLock()
	n := db.pcache.n
	db.pcache.mu.RUnlock()
	if n > parseCacheCap {
		t.Fatalf("cache grew past cap: %d > %d", n, parseCacheCap)
	}
	// Statements past the cap still execute, uncached.
	res := mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("want 0, got %v", res.Rows[0][0])
	}
}

// TestParseCacheErrorsUncached: a failing parse is never cached and the
// error text matches the direct parser's.
func TestParseCacheErrorsUncached(t *testing.T) {
	db := Open(Config{})
	const bad = `SELECT FROM t`
	_, err1 := db.Parse(bad)
	_, err2 := db.Parse(bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	_, hits, _ := parseStats(db)
	if hits != 0 {
		t.Fatalf("a failing statement hit the cache: hits = %d", hits)
	}
}

func TestParseEntryPlanLifecycle(t *testing.T) {
	e := &parseEntry{sql: "x"}
	if e.cachedPlan(0, nil) != nil {
		t.Fatal("empty entry returned a plan")
	}
	p := &selectPlan{}
	e.storePlan(p, 3)
	if e.cachedPlan(3, nil) != p {
		t.Fatal("stored plan not served at its epoch")
	}
	if e.cachedPlan(4, nil) != nil {
		t.Fatal("stale plan served past its epoch")
	}
	e.storePlan(p, 4)
	e.invalidatePlan()
	if e.cachedPlan(4, nil) != nil {
		t.Fatal("invalidated plan still served")
	}
	// nil receiver safety (uncached statements).
	var nilE *parseEntry
	if nilE.cachedPlan(0, nil) != nil {
		t.Fatal("nil entry returned a plan")
	}
	nilE.storePlan(p, 0)
	nilE.invalidatePlan()
}

// TestParseCacheEntryFootprint bounds the live heap one cached literal
// statement keeps: 4 096 distinct point SELECTs fill the fingerprint cache,
// and what they leave behind, per entry, stays within budget. A detached
// AST holds only the nodes its statement uses.
func TestParseCacheEntryFootprint(t *testing.T) {
	const budget = 1024 // 511 B measured; 6 716 B with a 16-element chunk per node type
	db := Open(Config{})
	grew := heapGrowth(func() {
		for i := 0; i < parseCacheCap; i++ {
			if _, err := db.Parse(fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey = %d", 100000+i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := grew / parseCacheCap; !race.Enabled && per > budget {
		t.Errorf("a cached point SELECT keeps %d B, budget %d", per, budget)
	}
	stdruntime.KeepAlive(db)
}
