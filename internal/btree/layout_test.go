package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"r3bench/internal/race"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// randomKey returns a key of 1–40 random bytes; a small alphabet makes
// equal keys and shared prefixes common.
func randomKey(r *rand.Rand) []byte {
	k := make([]byte, 1+r.Intn(40))
	for i := range k {
		k[i] = byte('a' + r.Intn(3))
	}
	return k
}

// compositeKey is the order a non-unique tree keeps: the key, then the RID.
func compositeKey(k []byte, rid storage.RID) string {
	var suf [ridBytes]byte
	binary.BigEndian.PutUint32(suf[0:4], uint32(rid.Page))
	binary.BigEndian.PutUint16(suf[4:6], rid.Slot)
	return string(k) + string(suf[:])
}

// TestKeyViewsSurviveWrites holds the rule that the key an Iterator hands
// out is never written again: seeded Insert/Delete runs on unique and
// non-unique trees, built empty or by BulkBuild, long enough to split
// leaves, drop emptied ones and refill them, keep up to 256 Iterator.Key
// views with a copy each and check after every write that every view
// still equals its copy. At the end the tree equals a sorted model and
// passes checkShape.
func TestKeyViewsSurviveWrites(t *testing.T) {
	for _, c := range []struct {
		unique, bulk bool
		seed         int64
	}{
		{true, false, 1}, {false, false, 2}, {true, true, 3}, {false, true, 4},
	} {
		r := rand.New(rand.NewSource(c.seed))
		tr := New(c.unique)
		// model maps each entry's place in the tree's order (the key for a
		// unique tree, the composite key otherwise) to its key and RID.
		type entry struct {
			key []byte
			rid storage.RID
		}
		model := map[string]entry{}
		var places []string // model's keys in a seeded order, for picking victims
		add := func(p string, e entry) {
			model[p] = e
			places = append(places, p)
		}
		place := func(k []byte, rid storage.RID) string {
			if c.unique {
				return string(k)
			}
			return compositeKey(k, rid)
		}
		next := 0
		newRID := func() storage.RID { next++; return rid(next) }
		if c.bulk {
			var bulk []BulkEntry
			for len(model) < 3000 {
				e := entry{randomKey(r), newRID()}
				if _, dup := model[place(e.key, e.rid)]; !dup {
					add(place(e.key, e.rid), e)
					bulk = append(bulk, BulkEntry{Key: e.key, RID: e.rid})
				}
			}
			sort.Slice(bulk, func(i, j int) bool {
				return place(bulk[i].Key, bulk[i].RID) < place(bulk[j].Key, bulk[j].RID)
			})
			if err := tr.BulkBuild(bulk, nil); err != nil {
				t.Fatal(err)
			}
		}

		type view struct{ got, want []byte }
		var views []view
		keep := func(k []byte) {
			v := view{k, append([]byte(nil), k...)}
			if len(views) < 256 {
				views = append(views, v)
			} else {
				views[r.Intn(len(views))] = v
			}
		}
		// Grow, shrink to a handful, grow again: splits, then emptied
		// leaves dropped, then leaves refilled among deleted keys.
		for _, phase := range []struct{ steps, insertPct int }{
			{6000, 80}, {12000, 20}, {4000, 70},
		} {
			for step := 0; step < phase.steps; step++ {
				if len(model) == 0 || r.Intn(100) < phase.insertPct {
					e := entry{randomKey(r), newRID()}
					if c.unique && r.Intn(8) == 0 && len(views) > 0 {
						e.key = views[r.Intn(len(views))].want // a key the tree may hold
					}
					_, dup := model[place(e.key, e.rid)]
					if err := tr.Insert(e.key, e.rid, nil); (err != nil) != dup {
						t.Fatalf("seed %d step %d: Insert %q = %v, model holds it: %v", c.seed, step, e.key, err, dup)
					}
					if !dup {
						add(place(e.key, e.rid), e)
					}
				} else {
					i := r.Intn(len(places))
					victim := model[places[i]]
					if err := tr.Delete(victim.key, victim.rid, nil); err != nil {
						t.Fatalf("seed %d step %d: %v", c.seed, step, err)
					}
					delete(model, places[i])
					places[i] = places[len(places)-1]
					places = places[:len(places)-1]
				}
				for i, v := range views {
					if !bytes.Equal(v.got, v.want) {
						t.Fatalf("seed %d step %d: view %d reads %q, was %q", c.seed, step, i, v.got, v.want)
					}
				}
				if step%3 == 0 {
					it := tr.Seek(randomKey(r)[:1], nil)
					for n := r.Intn(3); n >= 0 && it.Next(); n-- {
						keep(it.Key)
					}
				}
			}
		}

		want := slices.Clone(places)
		sort.Strings(want)
		it := tr.Seek(nil, nil)
		for i, p := range want {
			if !it.Next() || !bytes.Equal(it.Key, model[p].key) || it.RID != model[p].rid {
				t.Fatalf("seed %d: entry %d is %q %v, want %q %v", c.seed, i, it.Key, it.RID, model[p].key, model[p].rid)
			}
		}
		if it.Next() {
			t.Fatalf("seed %d: tree holds more than the model's %d entries", c.seed, len(want))
		}
		if int(tr.Entries()) != len(want) {
			t.Fatalf("seed %d: Entries = %d, model %d", c.seed, tr.Entries(), len(want))
		}
		checkShape(t, tr)
	}
}

// TestKeyViewCapsAtItsLength: a caller that appends to an Iterator.Key
// gets bytes of its own, never the tree's — for a non-unique tree the
// bytes after the logical key are the stored entry's RID suffix.
func TestKeyViewCapsAtItsLength(t *testing.T) {
	for _, unique := range []bool{true, false} {
		tr := New(unique)
		for i := 0; i < 200; i++ {
			if err := tr.Insert(key(i), rid(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		for it := tr.Seek(nil, nil); it.Next(); {
			if cap(it.Key) != len(it.Key) {
				t.Fatalf("unique=%v: a key view of %d bytes has room for %d", unique, len(it.Key), cap(it.Key))
			}
			_ = append(it.Key, 0xff)
		}
		if got := scanInts(tr); len(got) != 200 || !sort.IntsAreSorted(got) {
			t.Fatalf("unique=%v: %d entries after appending to views", unique, len(got))
		}
	}
}

// TestOversizedKeyIsRefused: an entry record keeps its key's length in 16
// bits, so a longer key is an error, never a truncated entry.
func TestOversizedKeyIsRefused(t *testing.T) {
	long := make([]byte, maxKey+1)
	for _, unique := range []bool{true, false} {
		tr := New(unique)
		if err := tr.Insert(long, rid(1), nil); err == nil {
			t.Errorf("unique=%v: Insert took a %d-byte key", unique, len(long))
		}
		if err := tr.BulkBuild([]BulkEntry{{Key: key(1), RID: rid(1)}, {Key: long, RID: rid(2)}}, nil); err == nil {
			t.Errorf("unique=%v: BulkBuild took a %d-byte key", unique, len(long))
		}
		if err := tr.Insert(long[:maxKey], rid(1), nil); err != nil || tr.Entries() != 1 {
			t.Fatalf("unique=%v: a %d-byte key: %v", unique, maxKey, err)
		}
		if it := tr.Seek(nil, nil); !it.Next() || len(it.Key) != maxKey {
			t.Fatalf("unique=%v: the longest key does not read back", unique)
		}
	}
}

// lineitemPK returns the i-th key of a sequential two-column primary key
// shaped like LINEITEM_PK: (order, line), 18 bytes.
func lineitemPK(i int) []byte {
	return val.EncodeKey(val.Int(int64(i/7+1)), val.Int(int64(i%7+1)))
}

// heapPerEntry returns the live heap bytes per entry that build leaves
// behind in the tree it returns.
func heapPerEntry(entries int, build func() *Tree) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
}

// TestTreeBytesPerEntry budgets what an index entry costs in the Go heap,
// entry record, key bytes, slack and its share of the nodes together: a
// sequential unique tree of 18-byte keys (LINEITEM_PK's shape) and a
// non-unique tree of random 9-byte keys (L_PART's), 60 000 entries each, at
// 40 bytes an entry; they cost about 34.5 and 38.0. With a slice header and
// an allocation per key, the RIDs in a slice beside them, and a split's left
// half keeping the whole arrays, the two cost 103.5 and 70.0 bytes an entry.
func TestTreeBytesPerEntry(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const n = 60000
	for _, c := range []struct {
		name  string
		build func() *Tree
	}{
		{"sequential unique 18-byte", func() *Tree {
			tr := New(true)
			for i := 0; i < n; i++ {
				if err := tr.Insert(lineitemPK(i), rid(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			return tr
		}},
		{"random non-unique 9-byte", func() *Tree {
			r := rand.New(rand.NewSource(1))
			tr := New(false)
			for i := 0; i < n; i++ {
				if err := tr.Insert(key(r.Intn(n/30)), rid(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			return tr
		}},
	} {
		per := heapPerEntry(n, c.build)
		t.Logf("%s: %.1f bytes per entry", c.name, per)
		if per > 40 {
			t.Errorf("%s: %.1f bytes per entry, budget 40", c.name, per)
		}
	}
}

// TestTreeWritesAllocate budgets the write path: a Delete allocates
// nothing and an Insert into a warm tree only when a node splits or its
// entry array and slab grow — at most 0.25 times on average; it measures
// 0.21. While each write built its entry key on the heap an Insert took 1.17
// allocations and a Delete 1.
// testing.AllocsPerRun truncates its average to a whole number, so each
// run is a batch of 10 000 calls (and AllocsPerRun's warm-up one more).
func TestTreeWritesAllocate(t *testing.T) {
	for _, unique := range []bool{true, false} {
		r := rand.New(rand.NewSource(5))
		tr := New(unique)
		const warm, batch = 60000, 10000
		keys := make([][]byte, warm+2*batch)
		for i := range keys {
			keys[i] = key(r.Intn(1 << 30))
		}
		for i := 0; i < warm; i++ {
			if err := tr.Insert(keys[i], rid(i), nil); err != nil && !unique {
				t.Fatal(err)
			}
		}
		i := warm
		ins := testing.AllocsPerRun(1, func() {
			for end := i + batch; i < end; i++ {
				tr.Insert(keys[i], rid(i), nil) // a unique tree may refuse a drawn key twice
			}
		}) / batch
		var live []int
		for it := tr.Seek(nil, nil); it.Next(); {
			live = append(live, int(it.RID.Page)*100+int(it.RID.Slot))
		}
		r.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		d := 0
		del := testing.AllocsPerRun(1, func() {
			for end := d + batch; d < end; d++ {
				if err := tr.Delete(keys[live[d]], rid(live[d]), nil); err != nil {
					t.Fatal(err)
				}
			}
		}) / batch
		checkShape(t, tr)
		t.Logf("unique=%v: Insert %.3f, Delete %.3f allocations", unique, ins, del)
		if race.Enabled {
			continue
		}
		if ins > 0.25 {
			t.Errorf("unique=%v: an Insert allocates %.3f times, budget 0.25", unique, ins)
		}
		if del != 0 {
			t.Errorf("unique=%v: a Delete allocates %.4f times, budget 0", unique, del)
		}
	}
}
