package storage

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// TestCopyOnWriteIsolatesReaders pins a page slice through Get and checks
// that a subsequent write publishes a new version instead of mutating the
// bytes the reader holds.
func TestCopyOnWriteIsolatesReaders(t *testing.T) {
	h, pool, m := newTestHeap(t, 1<<20)
	rid, err := h.InsertTx(0, row(1), m)
	if err != nil {
		t.Fatal(err)
	}
	// Reader pins the current page version.
	before, err := pool.Get(h.file, rid.Page, m)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]byte, len(before))
	copy(snap, before)

	// Writer tombstones the row; the pinned slice must not change.
	if err := h.DeleteTx(0, rid, m); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != snap[i] {
			t.Fatalf("pinned page byte %d changed under a concurrent write", i)
		}
	}
	if deleted(before, int(rid.Slot)) {
		t.Fatal("reader's pinned version sees the tombstone")
	}
	// A fresh read sees the new version.
	after, err := pool.Get(h.file, rid.Page, m)
	if err != nil {
		t.Fatal(err)
	}
	if !deleted(after, int(rid.Slot)) {
		t.Fatal("fresh read missed the committed tombstone")
	}
}

// TestCopyOnWriteSurvivesEviction forces the written page out of a
// one-page pool and checks the re-faulted page carries the write (the
// disk array holds the current version, not the pre-copy slice).
func TestCopyOnWriteSurvivesEviction(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, PageSize) // one frame: every access evicts
	codec := val.NewRowCodec([]val.ColType{val.Int4, val.Char(16), val.Dec8})
	h := NewHeapFile(disk, pool, codec)
	m := cost.NewMeter(cost.Default1996())
	var rids []RID
	for i := 0; i < 400; i++ { // several pages
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Touch page 0 so its slice is shared, then delete a row on it (COW),
	// then churn the single frame away and re-read.
	if _, err := pool.Get(h.file, 0, m); err != nil {
		t.Fatal(err)
	}
	if err := h.DeleteTx(0, rids[0], m); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(h.file, rids[len(rids)-1].Page, m); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fetch(rids[0], nil, nil); err == nil {
		t.Fatal("re-faulted page lost the tombstone")
	}
	if got, err := h.Fetch(rids[1], nil, nil); err != nil || got[0].AsInt() != 1 {
		t.Fatalf("neighbor row damaged: %v %v", got, err)
	}
}

// TestReaderImageSurvivesEvictionAndRewrite holds a page image — and a row
// decoded from it — across the eviction of its frame: "a reader has this
// image" is a property of the image, so the write that re-admits the page
// still copies it. Update, Delete and Insert all go through the same path.
func TestReaderImageSurvivesEvictionAndRewrite(t *testing.T) {
	h, pool, m := newTestHeap(t, PageSize) // one frame: every access evicts
	var rids []RID
	for i := 0; i < 400; i++ { // several pages; page 0 is full
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	last := rids[len(rids)-1].Page
	writes := []struct {
		name string
		do   func() error
	}{
		{"update", func() error { return h.UpdateTx(0, rids[1], row(9001), m) }},
		{"delete", func() error { return h.DeleteTx(0, rids[0], m) }},
		{"insert", func() error { _, err := h.InsertTx(0, row(9002), m); return err }},
	}
	for _, w := range writes {
		page := PageID(0)
		if w.name == "insert" {
			page = last // the page the insert appends to
		}
		held, err := pool.Get(h.file, page, m)
		if err != nil {
			t.Fatal(err)
		}
		snap := append([]byte(nil), held...)
		kept, err := h.Fetch(RID{Page: page, Slot: 1}, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Clone(kept[1].S) // the bytes, not the view

		other := last
		if page == last {
			other = 0
		}
		if _, err := pool.Get(h.file, other, m); err != nil { // evicts page's frame
			t.Fatal(err)
		}
		if pool.Contains(h.file, page) {
			t.Fatalf("%s: page %d still resident in a one-frame pool", w.name, page)
		}
		if err := w.do(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !bytes.Equal(held, snap) {
			t.Fatalf("%s after evict and re-admit wrote into the image a reader holds", w.name)
		}
		if kept[1].S != want {
			t.Fatalf("%s rewrote a decoded value under its holder: %q, was %q", w.name, kept[1].S, want)
		}
	}
	// The writes themselves landed.
	if got, err := h.Fetch(rids[1], m, nil); err != nil || got[0].AsInt() != 9001 {
		t.Fatalf("update lost: %v %v", got, err)
	}
	if _, err := h.Fetch(rids[0], m, nil); err == nil {
		t.Fatal("delete lost")
	}
	if h.Rows() != 400 {
		t.Fatalf("Rows = %d, want 400", h.Rows())
	}
}

// TestConcurrentScansAndWrites hammers one heap with scanners, point
// readers and writers; under -race this proves readers never observe a
// page mid-mutation. Scanners only assert structural sanity (decode
// succeeds), since rows legitimately come and go.
func TestConcurrentScansAndWrites(t *testing.T) {
	h, _, _ := newTestHeap(t, 1<<19)
	seedM := cost.NewMeter(cost.Default1996())
	var rids []RID
	var ridMu sync.Mutex
	for i := 0; i < 2000; i++ {
		rid, err := h.InsertTx(0, row(i), seedM)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := cost.NewMeter(cost.Default1996())
			for rep := 0; rep < 5; rep++ {
				err := h.Scan(m, func(rid RID, r []val.Value) error { return nil })
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			m := cost.NewMeter(cost.Default1996())
			for i := 0; i < 500; i++ {
				if _, err := h.InsertTx(0, row(10000+seed*1000+i), m); err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					ridMu.Lock()
					var victim RID
					ok := len(rids) > 0
					if ok {
						victim = rids[len(rids)-1]
						rids = rids[:len(rids)-1]
					}
					ridMu.Unlock()
					if ok {
						if err := h.DeleteTx(0, victim, m); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
