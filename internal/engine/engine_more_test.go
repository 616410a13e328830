package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"r3bench/internal/val"
)

// --- three-valued logic and NULL edge cases ---

func nullDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c CHAR(4))`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10, 'x'), (2, NULL, 'y'), (3, 30, NULL), (4, NULL, NULL)`)
	db.AnalyzeAll()
	return db, s
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	_, s := nullDB(t)
	// b = NULL is unknown, never true.
	if res := mustExec(t, s, `SELECT a FROM t WHERE b = NULL`); len(res.Rows) != 0 {
		t.Fatalf("= NULL matched %d rows", len(res.Rows))
	}
	if res := mustExec(t, s, `SELECT a FROM t WHERE b <> 10`); len(res.Rows) != 1 {
		t.Fatalf("<> over NULLs matched %d rows, want 1 (only a=3)", len(res.Rows))
	}
	// NOT (unknown) is still unknown.
	if res := mustExec(t, s, `SELECT a FROM t WHERE NOT (b = 10)`); len(res.Rows) != 1 {
		t.Fatalf("NOT over NULLs matched %d rows", len(res.Rows))
	}
}

func TestNotInWithNullIsEmpty(t *testing.T) {
	_, s := nullDB(t)
	// Standard SQL: x NOT IN (set containing NULL) is never true.
	res := mustExec(t, s, `SELECT a FROM t WHERE a NOT IN (SELECT b FROM t)`)
	if len(res.Rows) != 0 {
		t.Fatalf("NOT IN with NULLs matched %d rows, want 0", len(res.Rows))
	}
	// Excluding the NULLs restores the intuitive result.
	res = mustExec(t, s, `SELECT a FROM t WHERE a NOT IN (SELECT b FROM t WHERE b IS NOT NULL)`)
	if len(res.Rows) != 4 {
		t.Fatalf("filtered NOT IN matched %d rows, want 4", len(res.Rows))
	}
}

func TestNullsInGroupingAndOrdering(t *testing.T) {
	_, s := nullDB(t)
	res := mustExec(t, s, `SELECT c, COUNT(*) FROM t GROUP BY c ORDER BY c`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3 (x, y, NULL group)", len(res.Rows))
	}
	// NULLs sort first (the engine's convention).
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("first group = %v", res.Rows[0])
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	_, s := nullDB(t)
	res := mustExec(t, s, `SELECT CASE WHEN a > 100 THEN 1 END FROM t WHERE a = 1`)
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("CASE without ELSE = %v", res.Rows[0][0])
	}
}

func TestCoalesce(t *testing.T) {
	_, s := nullDB(t)
	res := mustExec(t, s, `SELECT COALESCE(b, -1) FROM t ORDER BY a`)
	want := []int64{10, -1, 30, -1}
	for i, w := range want {
		if res.Rows[i][0].AsInt() != w {
			t.Fatalf("row %d = %v, want %d", i, res.Rows[i][0], w)
		}
	}
}

// --- plan-equivalence properties ---

// TestJoinOrderInvariance: permuting the FROM list must not change the
// result (the optimizer reorders anyway, but each permutation replans).
func TestJoinOrderInvariance(t *testing.T) {
	_, s := testDB(t)
	perms := []string{
		`SELECT e_id, d_name FROM emp, dept WHERE e_dept = d_id AND e_id <= 20`,
		`SELECT e_id, d_name FROM dept, emp WHERE e_dept = d_id AND e_id <= 20`,
	}
	var base []string
	for pi, q := range perms {
		res := mustExec(t, s, q)
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, fmt.Sprint(r))
		}
		sort.Strings(rows)
		if pi == 0 {
			base = rows
			continue
		}
		if strings.Join(rows, ";") != strings.Join(base, ";") {
			t.Fatalf("permutation %d differs", pi)
		}
	}
}

// TestIndexScanMatchesSeqScan: every indexed predicate must return the
// same rows as the same query without the index.
func TestIndexScanMatchesSeqScan(t *testing.T) {
	db, s := bigDB(t)
	queries := []string{
		`SELECT b_id FROM big WHERE b_k = 123`,
		`SELECT b_id FROM big WHERE b_v < 40`,
		`SELECT b_id FROM big WHERE b_v BETWEEN 100 AND 120`,
		`SELECT b_id FROM big WHERE b_k = 5 AND b_v > 1000`,
	}
	collect := func(q string) []string {
		res := mustExec(t, s, q)
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, fmt.Sprint(r))
		}
		sort.Strings(rows)
		return rows
	}
	withIdx := make([][]string, len(queries))
	for i, q := range queries {
		withIdx[i] = collect(q)
	}
	mustExec(t, s, `DROP INDEX big_k`)
	mustExec(t, s, `DROP INDEX big_v`)
	db.AnalyzeAll()
	for i, q := range queries {
		if got := collect(q); strings.Join(got, ";") != strings.Join(withIdx[i], ";") {
			t.Fatalf("query %d: index and seq scans disagree (%d vs %d rows)",
				i, len(got), len(withIdx[i]))
		}
	}
}

// TestRandomizedFilterAgainstModel cross-checks random range predicates
// against a straightforward in-memory evaluation.
func TestRandomizedFilterAgainstModel(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE m (id INTEGER PRIMARY KEY, x INTEGER, y INTEGER)`)
	const n = 2000
	xs := make([]int64, n)
	ys := make([]int64, n)
	r := rand.New(rand.NewSource(99))
	rows := make([][]val.Value, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Int63n(1000)
		ys[i] = r.Int63n(1000)
		rows[i] = []val.Value{val.Int(int64(i)), val.Int(xs[i]), val.Int(ys[i])}
	}
	if err := db.BulkLoad("m", rows, nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE INDEX m_x ON m (x)`)
	db.AnalyzeAll()
	for trial := 0; trial < 50; trial++ {
		lo := r.Int63n(1000)
		hi := lo + r.Int63n(200)
		yv := r.Int63n(1000)
		res := mustExec(t, s,
			fmt.Sprintf(`SELECT COUNT(*) FROM m WHERE x BETWEEN %d AND %d AND y < %d`, lo, hi, yv))
		var want int64
		for i := 0; i < n; i++ {
			if xs[i] >= lo && xs[i] <= hi && ys[i] < yv {
				want++
			}
		}
		if got := res.Rows[0][0].AsInt(); got != want {
			t.Fatalf("trial %d [%d,%d] y<%d: got %d want %d", trial, lo, hi, yv, got, want)
		}
	}
}

// --- subquery depth and correlation ---

func TestDoublyNestedCorrelation(t *testing.T) {
	_, s := testDB(t)
	// Depth-2 correlation: the innermost block references the outermost.
	res := mustExec(t, s, `SELECT d_id FROM dept d WHERE EXISTS (
		SELECT 1 FROM emp e WHERE e.e_dept = d.d_id AND e.e_salary > (
			SELECT AVG(e2.e_salary) FROM emp e2 WHERE e2.e_dept = d.d_id))
		ORDER BY d_id`)
	if len(res.Rows) != 4 {
		t.Fatalf("every dept has above-average earners; got %d rows", len(res.Rows))
	}
}

func TestScalarSubqueryCardinalityError(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.Exec(`SELECT e_id FROM emp WHERE e_salary = (SELECT e_salary FROM emp)`); err == nil {
		t.Fatal("multi-row scalar subquery must error")
	}
}

func TestEmptyScalarSubqueryIsNull(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, `SELECT COUNT(*) FROM emp
		WHERE e_salary = (SELECT MAX(e_salary) FROM emp WHERE e_id > 99999)`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatal("comparison with empty scalar subquery must be unknown")
	}
}

// --- DISTINCT / LIMIT interactions ---

func TestDistinctWithNulls(t *testing.T) {
	_, s := nullDB(t)
	res := mustExec(t, s, `SELECT DISTINCT b FROM t`)
	if len(res.Rows) != 3 { // 10, 30, NULL
		t.Fatalf("distinct over nulls = %d rows", len(res.Rows))
	}
}

func TestLimitZero(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, `SELECT e_id FROM emp LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

func TestLimitPastEnd(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, `SELECT e_id FROM emp WHERE e_id > 95 LIMIT 100`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// --- prepared-statement plan reuse under data change ---

func TestPreparedStatementSurvivesDML(t *testing.T) {
	_, s := testDB(t)
	stmt, err := s.Prepare(`SELECT COUNT(*) FROM emp WHERE e_dept = ?`)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := stmt.Query(val.Int(1))
	mustExec(t, s, `DELETE FROM emp WHERE e_id = 4`) // dept 1
	after, err := stmt.Query(val.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].AsInt() != before.Rows[0][0].AsInt()-1 {
		t.Fatalf("prepared plan did not see the delete: %v -> %v",
			before.Rows[0][0], after.Rows[0][0])
	}
}

// --- meter accounting sanity ---

func TestQueriesChargeSimulatedTime(t *testing.T) {
	_, s := bigDB(t)
	before := s.Meter.Elapsed()
	mustExec(t, s, `SELECT COUNT(*) FROM big`)
	if s.Meter.Lap(before) <= 0 {
		t.Fatal("a full scan must charge simulated time")
	}
	// A repeated scan is cheaper or equal (buffer hits), never free.
	mid := s.Meter.Elapsed()
	mustExec(t, s, `SELECT COUNT(*) FROM big`)
	if s.Meter.Lap(mid) <= 0 {
		t.Fatal("even a cached scan charges CPU")
	}
}

func TestUpdateAdjustsIndexes(t *testing.T) {
	_, s := bigDB(t)
	mustExec(t, s, `UPDATE big SET b_k = 999999 WHERE b_id = 7`)
	res := mustExec(t, s, `SELECT b_id FROM big WHERE b_k = 999999`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("index lookup after update = %v", res.Rows)
	}
	// The old key must no longer find row 7.
	res = mustExec(t, s, `SELECT b_id FROM big WHERE b_k = 7`)
	for _, r := range res.Rows {
		if r[0].AsInt() == 7 {
			t.Fatal("stale index entry after update")
		}
	}
}

// TestFailedInsertLeavesNoRows: a multi-row INSERT is one statement, so when
// one of its rows fails none of them stays — not one whose parameter is
// missing (ad hoc or prepared), nor the first of two that share a primary
// key, with or without WAL, committed by the next statement or recovered
// after a crash.
func TestFailedInsertLeavesNoRows(t *testing.T) {
	for _, wal := range []bool{false, true} {
		db := Open(Config{})
		s := db.NewSession()
		mustExec(t, s, `CREATE TABLE t (a INTEGER PRIMARY KEY, b CHAR(4))`)
		if wal {
			db.EnableWAL(1)
		}
		ins, err := s.Prepare(`INSERT INTO t VALUES (?, 'a'), (?, 'b')`)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			run  func() (*Result, error)
		}{
			{"a row with an unbound parameter", func() (*Result, error) { return s.Exec(`INSERT INTO t VALUES (1, 'a'), (?, 'b')`) }},
			{"a prepared INSERT given one of two values", func() (*Result, error) { return ins.Query(val.Int(2)) }},
			{"two rows with one key", func() (*Result, error) { return s.Exec(`INSERT INTO t VALUES (7, 'x'), (7, 'y')`) }},
		} {
			if res, err := c.run(); err == nil {
				t.Errorf("wal %v, %s: %v, want an error", wal, c.what, res)
			}
		}
		mustExec(t, s, `INSERT INTO t VALUES (8, 'z')`) // commits the open transaction
		if wal {
			if _, err := db.CrashRecover(-1, nil); err != nil {
				t.Fatal(err)
			}
		}
		res := mustExec(t, s, `SELECT a, b FROM t`)
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 8 {
			t.Errorf("wal %v: the table holds %v, want only row 8", wal, res.Rows)
		}
		tab := db.Table("T")
		if n := tab.Indexes[0].Tree.Entries(); n != 1 || tab.Heap.Rows() != 1 {
			t.Errorf("wal %v: %d index entries for %d rows, want 1 and 1", wal, n, tab.Heap.Rows())
		}
		mustExec(t, s, `INSERT INTO t VALUES (7, 'y')`)
	}
}

// --- refusals of the SELECT-only entry points ---

// TestSelectOnlyRefusals pins the errors of the entry points that run only
// a SELECT, or only one a shard can compute a piece of. A statement that
// is not a SELECT is refused before any simulated time is charged.
func TestSelectOnlyRefusals(t *testing.T) {
	_, s := testDB(t)
	partial := func(sql string) *Partial {
		t.Helper()
		pa, err := s.QueryPartial(sql)
		if err != nil {
			t.Fatalf("QueryPartial(%q): %v", sql, err)
		}
		return pa
	}
	const update = `UPDATE emp SET e_salary = 0 WHERE e_id = 1`
	cases := []struct {
		name, want string
		uncharged  bool
		run        func() error
	}{
		{"ExplainAnalyze UPDATE", "EXPLAIN ANALYZE supports only SELECT", true, func() error {
			_, err := s.ExplainAnalyze(update)
			return err
		}},
		{"QueryPartial UPDATE", "QueryPartial requires a SELECT", true, func() error {
			_, err := s.QueryPartial(update)
			return err
		}},
		{"Explain UPDATE", "EXPLAIN supports only SELECT", true, func() error {
			_, err := s.Explain(update)
			return err
		}},
		{"QueryPartial LIMIT", "LIMIT without ORDER BY", false, func() error {
			_, err := s.QueryPartial(`SELECT e_id FROM emp LIMIT 3`)
			return err
		}},
		{"QueryPartial DISTINCT", "DISTINCT without ORDER BY", false, func() error {
			_, err := s.QueryPartial(`SELECT DISTINCT e_dept FROM emp`)
			return err
		}},
		{"MergePartials none", "of no partials", true, func() error {
			_, err := s.MergePartials(nil)
			return err
		}},
		{"MergePartials aggregate and rows", "mismatched partials", false, func() error {
			_, err := s.MergePartials([]*Partial{
				partial(`SELECT COUNT(*) FROM emp`), partial(`SELECT e_id FROM emp`)})
			return err
		}},
		{"MergePartials aggregate counts", "mismatched aggregate plans", false, func() error {
			_, err := s.MergePartials([]*Partial{
				partial(`SELECT COUNT(*) FROM emp`), partial(`SELECT COUNT(*), SUM(e_salary) FROM emp`)})
			return err
		}},
	}
	for _, c := range cases {
		start := s.Meter.Elapsed()
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if lap := s.Meter.Lap(start); c.uncharged && lap != 0 {
			t.Errorf("%s: refusal charged %v", c.name, lap)
		}
	}
	if n := mustExec(t, s, `SELECT e_salary FROM emp WHERE e_id = 1`).Rows[0][0]; n.AsFloat() == 0 {
		t.Errorf("a refused UPDATE ran: e_salary = %v", n)
	}
}
