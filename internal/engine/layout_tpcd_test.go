package engine_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
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

// TestScanDecodesOutputColumnsForSurvivors: over TPC-D Q1–Q17, a scan
// decodes a row's output-only columns only when the row has passed its
// filters, so the values decoded stay at most 0.8 of the tuples examined
// times the columns read of them — what decoding every read column of every
// examined tuple costs.
func TestScanDecodesOutputColumnsForSurvivors(t *testing.T) {
	const sf = 0.002
	db := engine.Open(engine.Config{})
	if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	var examined, decoded atomic.Int64
	val.DecodeHook = func(width, n int) {
		examined.Add(int64(width))
		decoded.Add(int64(n))
	}
	defer func() { val.DecodeHook = nil }()
	for _, q := range tpcd.Queries(sf) {
		for _, stmt := range q.SQL {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatalf("Q%d: %v", q.Num, err)
			}
		}
	}
	ratio := float64(decoded.Load()) / float64(examined.Load())
	t.Logf("Q1–Q17 decoded %d values of %d examined (%.3f)", decoded.Load(), examined.Load(), ratio)
	if ratio > 0.8 {
		t.Errorf("values decoded are %.3f of the tuples examined times their width, want at most 0.8", ratio)
	}
}

// TestPowerSumsStayInTheExpansion: every SUM and AVG of TPC-D Q1–Q17, at
// degrees 1, 2 and 8, finalizes from its expansion — none takes the
// big.Float path — while a sum the expansion cannot hold does take it.
func TestPowerSumsStayInTheExpansion(t *testing.T) {
	const sf = 0.002
	db := engine.Open(engine.Config{})
	if err := tpcd.Load(db, dbgen.New(sf), nil); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	count, stop := engine.WatchExpOverflows()
	defer stop()
	for _, degree := range []int{1, 2, 8} {
		db.SetOptions(engine.Options{Parallel: degree})
		before := db.Stats().ParallelRuns
		for _, q := range tpcd.Queries(sf) {
			for _, stmt := range q.SQL {
				if _, err := s.Exec(stmt); err != nil {
					t.Fatalf("degree %d, Q%d: %v", degree, q.Num, err)
				}
			}
			if n := count(); n != 0 {
				t.Fatalf("degree %d, Q%d: %d sums took the big.Float path", degree, q.Num, n)
			}
		}
		if degree > 1 && db.Stats().ParallelRuns == before {
			t.Errorf("degree %d: no query ran on parallel lanes", degree)
		}
	}
	// 1e308 is past the expansion's guard.
	if _, err := s.Exec(`SELECT SUM(1` + strings.Repeat("0", 308) + `.0 + R_REGIONKEY) FROM REGION`); err != nil {
		t.Fatal(err)
	}
	if count() == 0 {
		t.Errorf("a sum past the expansion's guard did not take the big.Float path")
	}
}
