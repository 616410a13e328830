package r3_test

import (
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
)

// TestLoadDirectRepeats: the setup loader leaves the same system every time.
// Fresh LoadDirect systems built from one generator run UF1 with equal
// event counts of every kind — which they do only if the loader's bulk loads
// reach the pool in the same order, since the pages they leave resident
// decide UF1's sequential and random reads.
func TestLoadDirectRepeats(t *testing.T) {
	g := dbgen.New(0.002)
	uf1 := func() string {
		sys, err := r3.Install(r3.Config{Release: r3.Release22})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadDirect(g); err != nil {
			t.Fatal(err)
		}
		impl := reports.New(sys, g, reports.Open22)
		if err := impl.RunUF1(); err != nil {
			t.Fatal(err)
		}
		return counts(t, "UF1", impl.Meter())
	}
	want := uf1()
	for run := 1; run <= 3; run++ {
		if got := uf1(); got != want {
			t.Fatalf("run %d: UF1 on a fresh LoadDirect system counts\n%s\nwant\n%s", run, got, want)
		}
	}
}
