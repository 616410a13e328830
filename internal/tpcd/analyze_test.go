package tpcd

import (
	"strings"
	"testing"

	"r3bench/internal/engine"
)

// TestExplainAnalyzeReconciles runs every TPC-D query under
// Session.ExplainAnalyze at serial and parallel degrees and asserts the
// property that makes the attribution trustworthy: the root span's total
// equals — exactly — the simulated time the statement added to the
// session meter. Serially that means every charge landed in some
// operator span; under parallel execution the "parallel" span absorbs
// the max-combined lane time, so the identity must still be exact.
func TestExplainAnalyzeReconciles(t *testing.T) {
	db, _ := loadedDB(t)
	qs := Queries(testSF)
	for _, degree := range []int{1, 2, 8} {
		db.SetOptions(engine.Options{Parallel: degree})
		sess := db.NewSession()
		for _, q := range qs {
			for _, sql := range q.SQL {
				trimmed := strings.TrimSpace(sql)
				isSelect := strings.HasPrefix(strings.ToUpper(trimmed), "SELECT")
				if !isSelect {
					// Q15's CREATE VIEW / DROP VIEW bracket its SELECT.
					if _, err := sess.Exec(sql); err != nil {
						t.Fatalf("deg %d Q%d: %v", degree, q.Num, err)
					}
					continue
				}
				start := sess.Meter.Elapsed()
				ap, err := sess.ExplainAnalyze(sql)
				if err != nil {
					t.Fatalf("deg %d Q%d: %v", degree, q.Num, err)
				}
				charged := sess.Meter.Lap(start)
				if total := ap.Root.Total(); total != charged {
					t.Errorf("deg %d Q%d: span total %v != meter lap %v\n%s",
						degree, q.Num, total, charged, ap)
				}
				if len(ap.Result.Rows) > 0 && ap.Root.Total() == 0 {
					t.Errorf("deg %d Q%d: produced rows but attributed no time", degree, q.Num)
				}
			}
		}
	}
}

// TestExplainAnalyzeRender sanity-checks the rendered tree: operators,
// rows and the parallel region show up.
func TestExplainAnalyzeRender(t *testing.T) {
	db, _ := loadedDB(t)
	db.SetOptions(engine.Options{Parallel: 4})
	sess := db.NewSession()
	ap, err := sess.ExplainAnalyze(
		`SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag`)
	if err != nil {
		t.Fatal(err)
	}
	out := ap.String()
	for _, want := range []string{"statement", "parse+optimize", "row-ship", "parallel", "rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeMatchesExec pins that an analyzed run charges the
// session meter the same simulated time as a plain Exec of the same
// statement (profiling must not distort the clock).
func TestExplainAnalyzeMatchesExec(t *testing.T) {
	db, _ := loadedDB(t)
	const sql = `SELECT SUM(l_extendedprice * l_discount) FROM lineitem
	             WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`
	s1 := db.NewSession()
	if _, err := s1.Exec(sql); err != nil {
		t.Fatal(err)
	}
	s2 := db.NewSession()
	if _, err := s2.ExplainAnalyze(sql); err != nil {
		t.Fatal(err)
	}
	if s1.Meter.Elapsed() != s2.Meter.Elapsed() {
		t.Errorf("Exec charged %v, ExplainAnalyze charged %v", s1.Meter.Elapsed(), s2.Meter.Elapsed())
	}
}
