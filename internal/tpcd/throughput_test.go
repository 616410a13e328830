package tpcd

import (
	"fmt"
	"sync"
	"testing"

	"r3bench/internal/engine"
)

// TestPermutationsCoverAllQueries: every stream's order is a true
// permutation of 1..17, and adjacent streams differ (so concurrent
// streams are not in lockstep on the same query).
func TestPermutationsCoverAllQueries(t *testing.T) {
	for s := 0; s < 32; s++ {
		perm := Permutation(s)
		seen := make(map[int]bool, 17)
		for _, q := range perm {
			if q < 1 || q > 17 || seen[q] {
				t.Fatalf("stream %d: bad permutation %v", s, perm)
			}
			seen[q] = true
		}
		if len(seen) != 17 {
			t.Fatalf("stream %d: permutation %v misses queries", s, perm)
		}
	}
	a, b := Permutation(0), Permutation(1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("streams 0 and 1 share an order: %v", a)
	}
}

// TestThroughputStreamsByteIdentical is the multi-session determinism
// guarantee: a query stream running next to N-1 concurrent rivals must
// return exactly the rows it returns running alone — at every parallel
// degree and stream count. The catalog snapshots, copy-on-write pages
// and atomic plan cache are only correct if concurrency is invisible in
// the answers.
func TestThroughputStreamsByteIdentical(t *testing.T) {
	db, g := loadedDB(t)

	// Solo reference: each stream's permutation run with the machine to
	// itself. Keyed by query number — the rows Qn returns do not depend
	// on which stream ran it, only determinism of the engine.
	solo := make(map[int]string, 17)
	ref := NewQueryStream(db, g, 0)
	sr := ref.RunStream(true)
	if sr.Err != nil {
		t.Fatalf("solo stream: %v", sr.Err)
	}
	for q, rows := range sr.Rows {
		solo[q] = encodeResult(rows)
	}

	for _, deg := range []int{1, 2} {
		for _, streams := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("deg%d_streams%d", deg, streams), func(t *testing.T) {
				db.SetOptions(engine.Options{Parallel: deg})
				results := make([]*StreamResult, streams)
				var wg sync.WaitGroup
				for i := 0; i < streams; i++ {
					s := NewQueryStream(db, g, i)
					wg.Add(1)
					go func(i int, s *QueryStream) {
						defer wg.Done()
						results[i] = s.RunStream(true)
					}(i, s)
				}
				wg.Wait()
				for i, sr := range results {
					if sr.Err != nil {
						t.Fatalf("stream %d: %v", i, sr.Err)
					}
					for q, rows := range sr.Rows {
						if got := encodeResult(rows); got != solo[q] {
							t.Errorf("stream %d Q%d differs from solo run", i, q)
						}
					}
				}
			})
		}
	}
}

// TestRunThroughputReportsQPH sanity-checks the harness arithmetic: the
// simulated wall is the slowest stream, total queries is 17 per stream,
// and qph follows from the two.
func TestRunThroughputReportsQPH(t *testing.T) {
	db, g := loadedDB(t)
	tr, err := RunThroughput(db, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Queries != 34 {
		t.Fatalf("Queries = %d, want 34", tr.Queries)
	}
	if tr.Wall <= 0 {
		t.Fatalf("Wall = %v", tr.Wall)
	}
	for _, sr := range tr.PerStream {
		if sr.Elapsed > tr.Wall {
			t.Fatalf("stream %d elapsed %v exceeds wall %v", sr.Stream, sr.Elapsed, tr.Wall)
		}
	}
	want := float64(tr.Queries) / tr.Wall.Hours()
	if diff := tr.QPH - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("QPH = %v, want %v", tr.QPH, want)
	}
}
