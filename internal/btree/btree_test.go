package btree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/race"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

func key(i int) []byte { return val.EncodeKey(val.Int(int64(i))) }

func rid(i int) storage.RID {
	return storage.RID{Page: storage.PageID(i / 100), Slot: uint16(i % 100)}
}

func TestInsertAndScanOrdered(t *testing.T) {
	tr := New(true)
	m := cost.NewMeter(cost.Default1996())
	perm := rand.New(rand.NewSource(1)).Perm(10000)
	for _, i := range perm {
		if err := tr.Insert(key(i), rid(i), m); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Entries() != 10000 {
		t.Fatalf("Entries = %d", tr.Entries())
	}
	it := tr.Seek(nil, m)
	prev := -1
	for it.Next() {
		if bytes.Compare(val.EncodeKey(val.Int(int64(prev))), it.Key) >= 0 && prev >= 0 {
			t.Fatal("iterator out of order")
		}
		prev++
	}
	if prev+1 != 10000 {
		t.Fatalf("iterated %d entries", prev+1)
	}
}

func TestUniqueRejectsDuplicates(t *testing.T) {
	tr := New(true)
	if err := tr.Insert(key(1), rid(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(key(1), rid(2), nil); err == nil {
		t.Error("duplicate insert into unique tree must fail")
	}
}

func TestNonUniqueDuplicates(t *testing.T) {
	tr := New(false)
	const dups = 500
	for i := 0; i < dups; i++ {
		if err := tr.Insert(key(7), rid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// All duplicates must be visible from a Seek at the key.
	it := tr.Seek(key(7), nil)
	got := map[storage.RID]bool{}
	for it.Next() && bytes.Equal(it.Key, key(7)) {
		got[it.RID] = true
	}
	if len(got) != dups {
		t.Fatalf("found %d of %d duplicates", len(got), dups)
	}
}

func TestSeekPositioning(t *testing.T) {
	tr := New(true)
	for i := 0; i < 1000; i += 2 { // even keys only
		tr.Insert(key(i), rid(i), nil)
	}
	// Seek to an absent odd key lands on the next even key.
	it := tr.Seek(key(301), nil)
	if !it.Next() || !bytes.Equal(it.Key, key(302)) {
		t.Fatalf("Seek(301) landed on %x", it.Key)
	}
	// Seek past the end yields nothing.
	it = tr.Seek(key(9999), nil)
	if it.Next() {
		t.Error("Seek past end must be empty")
	}
}

// TestIteratorSurvivesWrites pins that an iterator's position is a key,
// not a slot: entries deleted, inserted or split away between Seek and
// Next — another session's writes land there, the lock is only held
// inside each call — must not make it skip or repeat an entry.
func TestIteratorSurvivesWrites(t *testing.T) {
	tr := New(true)
	for i := 0; i < 100; i += 2 {
		if err := tr.Insert(key(i), rid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	next := func(it *Iterator, want int) {
		t.Helper()
		if !it.Next() || !bytes.Equal(it.Key, key(want)) {
			t.Fatalf("Next = %x, want key %d", it.Key, want)
		}
	}
	it := tr.Seek(key(50), nil)
	if err := tr.Delete(key(48), rid(48), nil); err != nil { // shifts 50 one slot down
		t.Fatal(err)
	}
	next(it, 50)
	if err := tr.Insert(key(49), rid(49), nil); err != nil { // shifts 52 one slot up
		t.Fatal(err)
	}
	next(it, 52)
	for i := 1001; i < 3000; i += 2 { // splits the leaf the iterator sits in, many times
		if err := tr.Insert(key(i), rid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Delete(key(52), rid(52), nil); err != nil { // the entry just returned
		t.Fatal(err)
	}
	for want := 54; want < 100; want += 2 {
		next(it, want)
	}
	next(it, 1001)
}

func TestDelete(t *testing.T) {
	tr := New(false)
	m := cost.NewMeter(cost.Default1996())
	for i := 0; i < 2000; i++ {
		tr.Insert(key(i), rid(i), m)
	}
	for i := 0; i < 2000; i += 2 {
		if err := tr.Delete(key(i), rid(i), m); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Entries() != 1000 {
		t.Fatalf("Entries after delete = %d", tr.Entries())
	}
	it := tr.Seek(nil, nil)
	for it.Next() {
		var got int
		// decode via iteration order: keys are even/odd ints
		if n := it.RID; int(n.Page)*100+int(n.Slot)%100 >= 0 {
			got = int(n.Page)*100 + int(n.Slot)
		}
		if got%2 == 0 {
			t.Fatalf("deleted entry still visible: %d", got)
		}
	}
	if err := tr.Delete(key(0), rid(0), m); err == nil {
		t.Error("deleting a missing entry must error")
	}
}

func TestDeleteOneDuplicateLeavesOthers(t *testing.T) {
	tr := New(false)
	tr.Insert(key(5), rid(1), nil)
	tr.Insert(key(5), rid(2), nil)
	tr.Insert(key(5), rid(3), nil)
	if err := tr.Delete(key(5), rid(2), nil); err != nil {
		t.Fatal(err)
	}
	it := tr.Seek(key(5), nil)
	var got []storage.RID
	for it.Next() && bytes.Equal(it.Key, key(5)) {
		got = append(got, it.RID)
	}
	if len(got) != 2 || got[0] != rid(1) || got[1] != rid(3) {
		t.Fatalf("duplicates after targeted delete: %v", got)
	}
}

func TestRangeScanChargesSeqReads(t *testing.T) {
	tr := New(true)
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), rid(i), nil)
	}
	m := cost.NewMeter(cost.Default1996())
	it := tr.Seek(nil, m)
	for it.Next() {
	}
	if m.Count(cost.RandRead) != 1 {
		t.Errorf("probe charged %d random reads, want 1", m.Count(cost.RandRead))
	}
	// 100k entries of ~9+6 bytes at 67% fill over 8K pages: a few hundred
	// sequential leaf reads.
	if seq := m.Count(cost.SeqRead); seq < 100 || seq > 1000 {
		t.Errorf("full leaf scan charged %d sequential reads", seq)
	}
}

func TestSizeModel(t *testing.T) {
	tr := New(true)
	if tr.SizeBytes() != 0 {
		t.Error("empty tree must have zero size")
	}
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), rid(i), nil)
	}
	sz := tr.SizeBytes()
	raw := tr.Entries() * (9 + 6) // 9-byte int keys + 6-byte rids
	if sz < raw || sz > raw*2 {
		t.Errorf("size model out of band: %d bytes for %d raw", sz, raw)
	}
}

func TestRandomizedAgainstSortedModel(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New(false)
	type entry struct {
		k int
		r storage.RID
	}
	var model []entry
	for step := 0; step < 30000; step++ {
		if r.Intn(4) != 0 || len(model) == 0 {
			k := r.Intn(500) // heavy duplication
			e := entry{k, rid(step)}
			tr.Insert(key(k), e.r, nil)
			model = append(model, e)
		} else {
			i := r.Intn(len(model))
			e := model[i]
			if err := tr.Delete(key(e.k), e.r, nil); err != nil {
				t.Fatal(err)
			}
			model = append(model[:i], model[i+1:]...)
		}
	}
	sort.Slice(model, func(i, j int) bool {
		if model[i].k != model[j].k {
			return model[i].k < model[j].k
		}
		if model[i].r.Page != model[j].r.Page {
			return model[i].r.Page < model[j].r.Page
		}
		return model[i].r.Slot < model[j].r.Slot
	})
	it := tr.Seek(nil, nil)
	for i := 0; it.Next(); i++ {
		if i >= len(model) {
			t.Fatal("tree has more entries than model")
		}
		if !bytes.Equal(it.Key, key(model[i].k)) || it.RID != model[i].r {
			t.Fatalf("entry %d mismatch: key %x rid %v, want key %d rid %v",
				i, it.Key, it.RID, model[i].k, model[i].r)
		}
	}
	if int(tr.Entries()) != len(model) {
		t.Fatalf("Entries = %d, model %d", tr.Entries(), len(model))
	}
	checkShape(t, tr)
}

func TestStringKeys(t *testing.T) {
	tr := New(true)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		tr.Insert(val.EncodeKey(val.Str(w)), rid(i), nil)
	}
	it := tr.Seek(val.EncodeKey(val.Str("b")), nil)
	var got []string
	for it.Next() {
		got = append(got, string(it.Key))
	}
	if len(got) != 4 { // bravo..echo
		t.Fatalf("string range scan returned %d entries", len(got))
	}
}

// TestPageCacheProbeAdmitScanBypass pins the residence model: a probe's
// leaf miss charges one random read and admits the leaf, a repeat probe
// is free, and range-scan leaf crossings charge as before but never
// admit.
func TestPageCacheProbeAdmitScanBypass(t *testing.T) {
	tr := New(true)
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), rid(i), nil)
	}
	c := NewPageCache(1 << 20)
	tr.SetCache(c)

	m := cost.NewMeter(cost.Default1996())
	tr.Seek(key(500), m)
	if m.Count(cost.RandRead) != 1 {
		t.Fatalf("cold probe charged %d random reads, want 1", m.Count(cost.RandRead))
	}
	tr.Seek(key(500), m)
	if m.Count(cost.RandRead) != 1 {
		t.Fatalf("warm probe charged I/O: %d random reads", m.Count(cost.RandRead))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Fatalf("stats after probe pair: %+v", st)
	}

	// A full sweep charges the usual sequential reads but must not grow
	// the resident set: crossings bypass admission.
	m2 := cost.NewMeter(cost.Default1996())
	it := tr.Seek(nil, m2)
	for it.Next() {
	}
	if seq := m2.Count(cost.SeqRead); seq < 100 || seq > 1000 {
		t.Errorf("sweep charged %d sequential reads", seq)
	}
	st = c.Stats()
	// Seek(nil) admitted the first leaf; crossings admitted nothing.
	if st.Resident > 2 {
		t.Errorf("scan grew resident set to %d leaves", st.Resident)
	}
	if st.ScanBypass == 0 {
		t.Error("sweep recorded no scan bypasses")
	}

	// The hot probe leaf survived the sweep.
	m3 := cost.NewMeter(cost.Default1996())
	tr.Seek(key(500), m3)
	if m3.Count(cost.RandRead) != 0 {
		t.Errorf("hot leaf evicted by scan: probe charged %d random reads", m3.Count(cost.RandRead))
	}
}

// TestPageCacheEvictsLRU pins the capacity bound: with room for one
// modelled leaf, probing a second leaf evicts the first.
func TestPageCacheEvictsLRU(t *testing.T) {
	tr := New(true)
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), rid(i), nil)
	}
	c := NewPageCache(1) // clamps to a single leaf
	tr.SetCache(c)
	m := cost.NewMeter(cost.Default1996())
	tr.Seek(key(10), m)
	tr.Seek(key(90000), m)
	tr.Seek(key(10), m)
	if got := m.Count(cost.RandRead); got != 3 {
		t.Errorf("single-slot cache charged %d random reads, want 3", got)
	}
	if st := c.Stats(); st.Resident != 1 || st.Capacity != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// checkShape verifies the tree's structure: an internal node has one
// separator fewer than children and at least one child, no leaf but a root
// leaf is empty, entry keys ascend across the whole leaf level, and the
// leaf chain is the leaf level in order. It returns the number of leaves.
func checkShape(t *testing.T, tr *Tree) int {
	t.Helper()
	var leaves []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if len(n.ents) == 0 && n != tr.root {
				t.Fatal("empty leaf in the tree")
			}
			leaves = append(leaves, n)
			return
		}
		if len(n.children) == 0 || len(n.ents) != len(n.children)-1 {
			t.Fatalf("internal node with %d keys, %d children", len(n.ents), len(n.children))
		}
		for i, c := range n.children {
			walk(c)
			if i > 0 && bytes.Compare(n.key(i-1), firstKey(c)) > 0 {
				t.Fatalf("separator %x above its right subtree's first key %x", n.key(i-1), firstKey(c))
			}
		}
	}
	walk(tr.root)
	var prev []byte
	for i, l := range leaves {
		var want *node
		if i+1 < len(leaves) {
			want = leaves[i+1]
		}
		if l.next != want {
			t.Fatalf("leaf %d of %d: chain does not lead to the next leaf of the tree", i, len(leaves))
		}
		for i := range l.ents {
			k := l.key(i)
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("entry keys out of order at leaf %d", i)
			}
			prev = k
		}
	}
	return len(leaves)
}

// scanInts returns the keys (as the ints they were built from, carried in
// the RID) of a full scan.
func scanInts(tr *Tree) []int {
	var got []int
	for it := tr.Seek(nil, nil); it.Next(); {
		got = append(got, int(it.RID.Page)*100+int(it.RID.Slot))
	}
	return got
}

func TestDeleteDropsEmptyLeaves(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		tr := New(false)
		const n = 20000
		if bulk {
			entries := make([]BulkEntry, n)
			for i := range entries {
				entries[i] = BulkEntry{Key: key(i), RID: rid(i)}
			}
			if err := tr.BulkBuild(entries, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < n; i++ {
				tr.Insert(key(i), rid(i), nil)
			}
		}
		full := checkShape(t, tr)

		// Empty the middle in random order; the scan that ends just before
		// the gap must find the entry after it one leaf on.
		m := cost.NewMeter(cost.Default1996())
		for _, i := range rand.New(rand.NewSource(7)).Perm(18000) {
			if err := tr.Delete(key(1000+i), rid(1000+i), m); err != nil {
				t.Fatal(err)
			}
		}
		if left := checkShape(t, tr); left > full/8 {
			t.Errorf("bulk=%v: %d of %d leaves left for a tenth of the entries", bulk, left, full)
		}
		it := tr.Seek(key(999), nil)
		if !it.Next() || !bytes.Equal(it.Key, key(999)) || !it.Next() || !bytes.Equal(it.Key, key(19000)) {
			t.Fatalf("bulk=%v: scan across the gap went wrong at %x", bulk, it.Key)
		}

		// Entries put back into the dropped range are found again.
		want := make([]int, 0, 2000+90)
		for i := 0; i < 1000; i++ {
			want = append(want, i)
		}
		for i := 5000; i < 14000; i += 100 {
			tr.Insert(key(i), rid(i), m)
			want = append(want, i)
		}
		for i := 19000; i < n; i++ {
			want = append(want, i)
		}
		checkShape(t, tr)
		if got := scanInts(tr); !sort.IntsAreSorted(got) || len(got) != len(want) || got[1000] != 5000 {
			t.Fatalf("bulk=%v: %d entries after re-insert, want %d", bulk, len(got), len(want))
		}

		// Down to nothing and up again.
		for _, i := range want {
			if err := tr.Delete(key(i), rid(i), m); err != nil {
				t.Fatal(err)
			}
		}
		if checkShape(t, tr) != 1 || tr.Entries() != 0 || tr.Seek(nil, nil).Next() {
			t.Fatalf("bulk=%v: emptied tree is not one empty leaf", bulk)
		}
		for i := 0; i < 500; i++ {
			tr.Insert(key(i), rid(i), m)
		}
		checkShape(t, tr)
		if got := scanInts(tr); len(got) != 500 {
			t.Fatalf("bulk=%v: %d entries in the refilled tree", bulk, len(got))
		}
	}
}

// TestRangeScanPastDeletedRunIsBounded is the write benchmark's shape: a
// stream's keys count down, the order 100 back is deleted, and the delete's
// range scan ends at the edge of everything deleted before. The number of
// leaves stays that of the live window.
func TestRangeScanPastDeletedRunIsBounded(t *testing.T) {
	tr := New(false)
	for i := 0; i < 1000; i++ { // the loaded key range above the stream
		tr.Insert(key(i), rid(i), nil)
	}
	base := checkShape(t, tr)
	for step := 1; step <= 20000; step++ {
		for line := 0; line < 4; line++ {
			tr.Insert(key(-step), rid(4*step+line), nil)
		}
		if old := step - 100; old > 0 {
			it := tr.Seek(key(-old), nil)
			for line := 0; line < 4; line++ {
				if !it.Next() || !bytes.Equal(it.Key, key(-old)) {
					t.Fatalf("step %d: line %d of order %d not found", step, line, -old)
				}
				if err := tr.Delete(key(-old), it.RID, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !it.Next() || !bytes.Equal(it.Key, key(0)) {
				t.Fatalf("step %d: scan past the deleted run ended at %x", step, it.Key)
			}
		}
	}
	if leaves := checkShape(t, tr); leaves > base+400/(fanout/2)+2 {
		t.Errorf("%d leaves for 1000 loaded and 400 live stream entries (loaded alone: %d)", leaves, base)
	}
}

// TestIndexProbeAllocatesNothing: a Seek+Next range loop written like the
// executor's index scan — the iterator kept to the loop — allocates nothing,
// because Seek inlines and its iterator stays on the caller's stack.
func TestIndexProbeAllocatesNothing(t *testing.T) {
	tr := New(true)
	for i := 0; i < 10000; i++ {
		if err := tr.Insert(key(i), rid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetCache(NewPageCache(1 << 20))
	m := cost.NewMeter(cost.Default1996())
	// The bounds are encoded beforehand: EncodeKey allocates.
	los, his := make([][]byte, 64), make([][]byte, 64)
	for i := range los {
		los[i], his[i] = key(i*150), key(i*150+2)
	}
	var probe, found int
	n := testing.AllocsPerRun(1000, func() {
		lo, hi := los[probe%len(los)], his[probe%len(his)]
		probe++
		it := tr.Seek(lo, m)
		for it.Next() {
			if bytes.Compare(it.Key, hi) > 0 {
				break
			}
			found++
		}
	})
	if found != 3*probe {
		t.Fatalf("%d probes found %d entries, want 3 each", probe, found)
	}
	if !race.Enabled && n != 0 {
		t.Errorf("an index probe allocates %.2f times", n)
	}
}
