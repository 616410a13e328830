package engine_test

import (
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
)

// TestSlotLayoutTPCD is TestSlotLayout over the real workload: every block
// of TPC-D Q1–Q17 — the correlated sub-blocks of Q2, Q4, Q16 and Q17, Q11's
// HAVING sub-block and Q15's view among them — obeys the layout rule and
// returns the same rows from poisoned frames.
func TestSlotLayoutTPCD(t *testing.T) {
	const sf = 0.002
	db := engine.Open(engine.Config{})
	if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for _, q := range tpcd.Queries(sf) {
		stmts = append(stmts, q.SQL...)
	}
	engine.CheckLayouts(t, db.NewSession(), stmts)
}
