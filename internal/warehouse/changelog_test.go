package warehouse

import (
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
)

// TestChangeLogCapturesOrderKeys drives a UF1/UF2 batch through the
// R/3 write path with a change log observing the physical write feed:
// entering orders must surface exactly their keys as upserts (through
// VBAK, VBAP, VBEP, clustered KONV and STXL writes alike), deleting
// them must convert to tombstones, and unrelated tables never leak in.
func TestChangeLogCapturesOrderKeys(t *testing.T) {
	g := dbgen.New(0.002)
	sys, err := r3.Install(r3.Config{Release: r3.Release30})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDirect(g); err != nil {
		t.Fatal(err)
	}
	cl := NewChangeLog()
	sys.AddWriteObserver(cl.Observe)

	bi := sys.NewBatchInput(1)
	var want []int64
	if err := g.UF1Orders(func(o *dbgen.Order) error {
		want = append(want, o.Key)
		return bi.EnterOrder(o)
	}); err != nil {
		t.Fatal(err)
	}
	ups, dels := cl.Drain()
	if len(dels) != 0 {
		t.Fatalf("insert batch produced tombstones: %v", dels)
	}
	assertKeys(t, "upserts", ups, want)

	for _, k := range want {
		if err := bi.DeleteOrder(k); err != nil {
			t.Fatal(err)
		}
	}
	ups, dels = cl.Drain()
	if len(ups) != 0 {
		t.Fatalf("delete batch produced upserts: %v", ups)
	}
	assertKeys(t, "deletes", dels, want)

	// Drained again, the log is empty.
	ups, dels = cl.Drain()
	if len(ups) != 0 || len(dels) != 0 {
		t.Fatalf("drain did not reset: %v %v", ups, dels)
	}
}

func assertKeys(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}
