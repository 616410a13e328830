package tpcd

import (
	"strings"
	"testing"

	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// encodeResult serializes a query result byte-exactly: any difference in a
// value (down to the last float ulp) or in row order changes the encoding.
func encodeResult(rows [][]val.Value) string {
	var b []byte
	for _, r := range rows {
		b = append(b, val.EncodeKey(r...)...)
		b = append(b, 0xFE, 0xFD) // row separator, outside key byte patterns
	}
	return string(b)
}

// TestParallelResultsByteIdentical asserts the tentpole determinism
// guarantee: every TPC-D query returns byte-identical results under any
// parallel degree, because partitions recombine in order and float
// aggregation is exact (order-independent).
func TestParallelResultsByteIdentical(t *testing.T) {
	db, g := loadedDB(t)
	impl := NewRDBMS(db, g)

	serial := make([]string, 18)
	for q := 1; q <= 17; q++ {
		rows, err := impl.RunQuery(q)
		if err != nil {
			t.Fatalf("serial Q%d: %v", q, err)
		}
		serial[q] = encodeResult(rows)
	}

	for _, deg := range []int{1, 2, 8} {
		db.SetOptions(engine.Options{Parallel: deg})
		for q := 1; q <= 17; q++ {
			rows, err := impl.RunQuery(q)
			if err != nil {
				t.Fatalf("parallel=%d Q%d: %v", deg, q, err)
			}
			if got := encodeResult(rows); got != serial[q] {
				t.Errorf("parallel=%d Q%d result differs from serial run", deg, q)
			}
		}
	}
}

// TestParallelPlansEngage guards against the determinism suite passing
// vacuously: at degree 4 the big-scan queries must actually plan parallel.
func TestParallelPlansEngage(t *testing.T) {
	db, g := loadedDB(t)
	db.SetOptions(engine.Options{Parallel: 4})
	sess := db.NewSession()
	qs := Queries(g.SF)
	engaged := 0
	for q := 1; q <= 17; q++ {
		for _, sql := range qs[q-1].SQL {
			if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "SELECT") {
				continue
			}
			plan, err := sess.Explain(sql)
			if err != nil {
				// Q15-style statements reference a view created by an
				// earlier statement of the query; skip those here.
				continue
			}
			if strings.Contains(plan, "parallel degree") {
				engaged++
			}
		}
	}
	// Q1 and Q6 lead with full lineitem scans and must split; several
	// joins also qualify. Require a healthy floor rather than an exact
	// count so plan changes don't silently disable parallelism.
	if engaged < 4 {
		t.Errorf("only %d query blocks planned parallel at degree 4; want >= 4", engaged)
	}
}

// TestParallelDeterminismWithOptimizerKnobs re-runs the byte-identical
// check with bind peeking and adaptive replanning enabled: the
// statistics-and-adaptivity layer must never change what a query returns,
// only how it runs.
func TestParallelDeterminismWithOptimizerKnobs(t *testing.T) {
	db, g := loadedDB(t)
	impl := NewRDBMS(db, g)

	serial := make([]string, 18)
	for q := 1; q <= 17; q++ {
		rows, err := impl.RunQuery(q)
		if err != nil {
			t.Fatalf("serial Q%d: %v", q, err)
		}
		serial[q] = encodeResult(rows)
	}

	for _, deg := range []int{1, 2, 8} {
		db.SetOptions(engine.Options{PeekBinds: true, Adaptive: true, Parallel: deg})
		for q := 1; q <= 17; q++ {
			rows, err := impl.RunQuery(q)
			if err != nil {
				t.Fatalf("knobs on, parallel=%d Q%d: %v", deg, q, err)
			}
			if got := encodeResult(rows); got != serial[q] {
				t.Errorf("knobs on, parallel=%d Q%d result differs from serial run", deg, q)
			}
		}
	}
}
