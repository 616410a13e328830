package r3

import (
	"fmt"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

func TestBufferStatsUndersized(t *testing.T) {
	if (BufferStats{Hits: 100, Evictions: 50}).Undersized() {
		t.Error("more hits than evictions must not read as undersized")
	}
	if !(BufferStats{Hits: 10, Evictions: 50}).Undersized() {
		t.Error("more evictions than hits must read as undersized")
	}
	if (BufferStats{}).Undersized() {
		t.Error("an idle buffer is not undersized")
	}
}

// maraRowBytes computes the modelled cached-row size SetBuffered uses.
func maraRowBytes(sys *System) int64 {
	var rowBytes int64
	for _, c := range sys.Table("MARA").Cols {
		rowBytes += int64(c.Type.Width)
	}
	return rowBytes
}

// TestRightSizedBufferRetainsResidents pins the Table 8 pathology and its
// cure: a budget below the working set thrashes (evictions swamp hits,
// Undersized fires), one sized to the working set keeps every row
// resident with zero evictions.
func TestRightSizedBufferRetainsResidents(t *testing.T) {
	sys, g := installedSys(t, Release22)
	n := int64(g.NumParts())
	rowBytes := maraRowBytes(sys)
	workload := func() {
		o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))
		for pass := 0; pass < 2; pass++ {
			for i := int64(1); i <= n; i++ {
				if _, ok, err := o.SelectSingle("MARA", []Cond{Eq("MATNR", val.Str(Key16(i)))}); err != nil || !ok {
					t.Fatalf("MARA lookup %d: ok=%v err=%v", i, ok, err)
				}
			}
		}
	}

	// SetBufferedFixed pins the undersized budget so the pathology stays
	// reproducible (the adaptive default would grow its way out of it).
	small := sys.SetBufferedFixed("MARA", rowBytes*4)
	workload()
	st := small.Stats()
	if !st.Undersized() {
		t.Errorf("4-row buffer over %d keys not flagged undersized: %+v", n, st)
	}
	if st.Evictions == 0 {
		t.Errorf("4-row buffer never evicted: %+v", st)
	}

	right := sys.SetBuffered("MARA", rowBytes*(n+8))
	workload()
	st = right.Stats()
	if st.Evictions != 0 {
		t.Errorf("right-sized buffer evicted %d times", st.Evictions)
	}
	if st.Resident != rowBytes*n {
		t.Errorf("Resident = %d bytes, want the full working set %d", st.Resident, rowBytes*n)
	}
	if st.Hits < n {
		t.Errorf("Hits = %d, want at least the second pass's %d", st.Hits, n)
	}
	if st.Undersized() {
		t.Errorf("right-sized buffer flagged undersized: %+v", st)
	}
	sys.SetBuffered("MARA", 0)
}

// TestAdmissionTwoTouch pins the admission protocol: once a buffer has
// evicted anything, a key's first miss within an epoch only parks it in
// the ghost list; the second miss proves reuse and admits it.
func TestAdmissionTwoTouch(t *testing.T) {
	m := cost.NewMeter(cost.Default1996())
	b := newTableBuffer("T", 2*100, 0, 100) // two rows, pinned
	row := func(s string) []val.Value { return []val.Value{val.Str(s)} }

	b.insert("a", row("a"), m)
	b.insert("b", row("b"), m)
	b.insert("c", row("c"), m) // no pressure yet: admits, evicting a
	if b.Stats().Evictions != 1 {
		t.Fatalf("warm-up evictions = %d, want 1", b.Stats().Evictions)
	}

	b.insert("d", row("d"), m) // under pressure: first miss is ghosted
	if _, hit := b.lookup("d", m); hit {
		t.Fatal("first-miss key was admitted under eviction pressure")
	}
	if st := b.Stats(); st.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", st.AdmissionRejects)
	}
	b.insert("d", row("d"), m) // second miss in the epoch: admitted
	if _, hit := b.lookup("d", m); !hit {
		t.Fatal("second-miss key was not admitted")
	}
	// The one-shot key displaced nothing until it proved reuse: b and c
	// survived d's first (rejected) insert; d's admission then evicted b.
	if _, hit := b.lookup("c", m); !hit {
		t.Fatal("resident key lost to a one-shot insert")
	}
}

// TestAutoResizeStopsThrash drives a working set through a buffer pinned
// far below it and checks the adaptive path grows the budget until the
// thrashing stops — the Undersized() → resize loop of DESIGN.md §9.
func TestAutoResizeStopsThrash(t *testing.T) {
	m := cost.NewMeter(cost.Default1996())
	const rowBytes, keys = 100, 300
	b := newTableBuffer("T", 2*rowBytes, keys*rowBytes*2, rowBytes)
	row := []val.Value{val.Str("x")}
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }

	pass := func() (hits int64) {
		before := b.Stats().Hits
		for i := 0; i < keys; i++ {
			if _, hit := b.lookup(key(i), m); !hit {
				b.insert(key(i), row, m)
			}
		}
		return b.Stats().Hits - before
	}
	// Each budget doubling takes one epoch (256 evictions), and admission
	// control deliberately slows eviction churn, so convergence takes a
	// couple dozen passes: grow past the working set, then two more
	// passes for every key to earn its second-touch admission.
	for p := 0; p < 25; p++ {
		pass()
	}
	st := b.Stats()
	if st.Resizes == 0 || st.CapBytes <= 2*rowBytes {
		t.Fatalf("no auto-resize under sustained thrash: %+v", st)
	}
	evBefore := st.Evictions
	finalHits := pass()
	if finalHits != keys {
		t.Errorf("final pass hits = %d, want all %d (working set not resident)", finalHits, keys)
	}
	if ev := b.Stats().Evictions - evBefore; ev != 0 {
		t.Errorf("final pass still evicted %d times after resize", ev)
	}
	if st := b.Stats(); st.Undersized() {
		t.Errorf("grown buffer still flagged undersized: %+v", st)
	}
}

// TestScanBypassLeavesBufferClean pins the single-record vs full-table
// distinction: a SELECT loop that does not pin the full primary key
// streams past the buffer (counted, not cached), so a point-lookup
// working set cannot be flushed by a table scan.
func TestScanBypassLeavesBufferClean(t *testing.T) {
	sys, g := installedSys(t, Release22)
	buf := sys.SetBuffered("MARA", 1<<20)
	o := sys.OpenSQL(cost.NewMeter(sys.DB.Model()))

	var scanned int64
	if err := o.Select("MARA", nil, func(r Row) error {
		scanned++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("scan saw no rows")
	}
	st := buf.Stats()
	if st.ScanBypass != scanned {
		t.Errorf("ScanBypass = %d, want %d", st.ScanBypass, scanned)
	}
	if st.Resident != 0 {
		t.Errorf("full-table scan polluted the buffer: %d resident bytes", st.Resident)
	}

	// A genuine single-record read still populates the buffer.
	if _, ok, err := o.SelectSingle("MARA", []Cond{Eq("MATNR", val.Str(Key16(3)))}); err != nil || !ok {
		t.Fatalf("SelectSingle: ok=%v err=%v", ok, err)
	}
	st = buf.Stats()
	if st.Resident != maraRowBytes(sys) {
		t.Errorf("Resident = %d bytes after one single-record read, want %d", st.Resident, maraRowBytes(sys))
	}
	if n := int64(g.NumParts()); scanned != n {
		t.Errorf("scan delivered %d rows, generator has %d parts", scanned, n)
	}
}
