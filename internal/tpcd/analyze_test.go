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
