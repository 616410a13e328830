package tpcd

import (
	"testing"

	"r3bench/internal/engine"
)

// TestParseCacheByteIdenticalAcrossDegrees asserts the fingerprint
// cache's end-to-end guarantee on the real workload: every TPC-D query
// returns byte-identical results whether its statement texts hit the
// cache or miss it, at serial and parallel degrees, and each query
// charges the two meters identically — the cache saves only real CPU,
// never simulated time. The miss side runs every statement text made
// unique by trailing whitespace; the fingerprint covers the raw bytes, so
// each execution misses. The suite runs twice per degree, so the second
// pass exercises warm AST and plan hits on the cached side (Q15's view
// DDL bumps the plan epoch in both passes, exercising invalidation on
// the way).
func TestParseCacheByteIdenticalAcrossDegrees(t *testing.T) {
	dbHot, g := loadedDB(t)
	dbCold, _ := loadedDB(t)
	hot := NewRDBMS(dbHot, g)
	cold := NewRDBMS(dbCold, g)
	coldHits := dbCold.Stats().ParseHits
	texts, pad := Queries(g.SF), ""
	unique := func(q int) {
		for i, sql := range texts[q-1].SQL {
			pad += " "
			cold.qs[q-1].SQL[i] = sql + pad
		}
	}

	for _, deg := range []int{1, 2, 8} {
		dbHot.SetOptions(engine.Options{Parallel: deg})
		dbCold.SetOptions(engine.Options{Parallel: deg})
		for pass := 1; pass <= 2; pass++ {
			for q := 1; q <= 17; q++ {
				hStart, cStart := hot.Meter().Elapsed(), cold.Meter().Elapsed()
				hRows, err := hot.RunQuery(q)
				if err != nil {
					t.Fatalf("deg=%d pass=%d cached Q%d: %v", deg, pass, q, err)
				}
				unique(q)
				cRows, err := cold.RunQuery(q)
				if err != nil {
					t.Fatalf("deg=%d pass=%d uncached Q%d: %v", deg, pass, q, err)
				}
				if encodeResult(hRows) != encodeResult(cRows) {
					t.Errorf("deg=%d pass=%d Q%d: cached result differs from uncached", deg, pass, q)
				}
				hLap := hot.Meter().Elapsed() - hStart
				cLap := cold.Meter().Elapsed() - cStart
				if hLap != cLap {
					t.Errorf("deg=%d pass=%d Q%d: cached cost %v != uncached cost %v",
						deg, pass, q, hLap, cLap)
				}
			}
		}
	}
	st := dbHot.Stats()
	if st.ParseHits == 0 {
		t.Error("cached run recorded no fingerprint hits")
	}
	if st.ParseStatements != st.ParseHits+st.ParseMisses {
		t.Errorf("statements %d != hits %d + misses %d",
			st.ParseStatements, st.ParseHits, st.ParseMisses)
	}
	if hits := dbCold.Stats().ParseHits - coldHits; hits != 0 {
		t.Errorf("uncached run recorded %d fingerprint hits", hits)
	}
}
