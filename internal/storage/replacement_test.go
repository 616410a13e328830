package storage

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/race"
)

// poolModel is the buffer pool's replacement policy written out on slices:
// per shard a young and an old sublist, front first, and the readahead flag
// of each resident page. It knows the policy and nothing of how the pool
// links its frames.
type poolModel struct {
	bp                   *BufferPool
	shards               []*modelShard
	hits, misses, raHits int64
}

type modelShard struct {
	capacity, youngCap int
	young, old         []pageKey
	ra                 map[pageKey]bool
}

func newPoolModel(bp *BufferPool) *poolModel {
	m := &poolModel{bp: bp}
	for _, sh := range bp.shards {
		m.shards = append(m.shards, &modelShard{capacity: sh.capacity, youngCap: sh.youngCap, ra: map[pageKey]bool{}})
	}
	return m
}

func (m *poolModel) shard(key pageKey) *modelShard {
	return m.shards[slices.Index(m.bp.shards, m.bp.shard(key))]
}

func (s *modelShard) resident(key pageKey) bool {
	return slices.Contains(s.young, key) || slices.Contains(s.old, key)
}

// moveToFront moves key to the front of whichever sublist holds it.
func (s *modelShard) moveToFront(key pageKey) {
	for _, l := range []*[]pageKey{&s.young, &s.old} {
		if i := slices.Index(*l, key); i >= 0 {
			*l = slices.Insert(slices.Delete(*l, i, i+1), 0, key)
		}
	}
}

// touch is a request for key: a hit registers (and is true), a miss only
// counts.
func (m *poolModel) touch(key pageKey) bool {
	s := m.shard(key)
	switch {
	case !s.resident(key):
		m.misses++
		return false
	case s.ra[key]:
		delete(s.ra, key)
		m.raHits++
		s.moveToFront(key)
	case slices.Contains(s.young, key):
		m.hits++
		s.moveToFront(key)
	default: // second touch: promote, demoting young overflow to the old front
		m.hits++
		s.old = slices.DeleteFunc(s.old, func(k pageKey) bool { return k == key })
		s.young = slices.Insert(s.young, 0, key)
		for len(s.young) > s.youngCap && len(s.young) > 1 {
			tail := s.young[len(s.young)-1]
			s.young = s.young[:len(s.young)-1]
			s.old = slices.Insert(s.old, 0, tail)
		}
	}
	return true
}

// admit brings a missed page in, evicting from the old sublist's back first.
func (m *poolModel) admit(key pageKey, ra bool) {
	s := m.shard(key)
	if s.resident(key) {
		if !ra {
			s.moveToFront(key)
		}
		return
	}
	for len(s.young)+len(s.old) >= s.capacity {
		l := &s.old
		if len(s.old) == 0 {
			l = &s.young
		}
		victim := (*l)[len(*l)-1]
		*l = (*l)[:len(*l)-1]
		delete(s.ra, victim)
	}
	if ra {
		s.ra[key] = true
	}
	s.old = slices.Insert(s.old, 0, key)
}

// get is Get, and Mutate: a request that admits the page on a miss.
func (m *poolModel) get(key pageKey) {
	if !m.touch(key) {
		m.admit(key, false)
	}
}

// scanGet is ScanRun.Get as the run-th consecutive request of a run: a miss
// that continues a run fetches a readahead window.
func (m *poolModel) scanGet(key pageKey, run int, limit PageID) {
	if m.touch(key) {
		return
	}
	if run < raTrigger || !m.bp.readaheadOn() {
		m.admit(key, false)
		return
	}
	end := min(key.page+readaheadWindow, PageID(m.bp.disk.NumPages(key.file)))
	if limit > 0 {
		end = min(end, limit)
	}
	for p := key.page; p < end; p++ {
		k := pageKey{key.file, p}
		if p != key.page && m.shard(k).resident(k) {
			continue
		}
		m.admit(k, p != key.page)
	}
}

func (m *poolModel) dropFile(file FileID) {
	for _, s := range m.shards {
		gone := func(k pageKey) bool { return k.file == file }
		s.young, s.old = slices.DeleteFunc(s.young, gone), slices.DeleteFunc(s.old, gone)
		for k := range s.ra {
			if gone(k) {
				delete(s.ra, k)
			}
		}
	}
}

// residency is a resident page's sublist and readahead flag.
type residency struct{ young, ra bool }

// residents describes every resident page.
func (m *poolModel) residents() map[pageKey]residency {
	out := map[pageKey]residency{}
	for _, s := range m.shards {
		for _, k := range s.young {
			out[k] = residency{true, s.ra[k]}
		}
		for _, k := range s.old {
			out[k] = residency{false, s.ra[k]}
		}
	}
	return out
}

// poolResidents is residents for the pool itself.
func poolResidents(bp *BufferPool) map[pageKey]residency {
	out := map[pageKey]residency{}
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for k, f := range sh.frames {
			out[k] = residency{f.young, f.ra}
		}
		sh.mu.Unlock()
	}
	return out
}

// gone lists, in page order, the pages resident before and not after.
func gone(before, after map[pageKey]residency) []pageKey {
	var out []pageKey
	for k := range before {
		if _, ok := after[k]; !ok {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, func(a, b pageKey) int {
		if a.file != b.file {
			return int(a.file) - int(b.file)
		}
		return int(a.page) - int(b.page)
	})
	return out
}

// TestPoolReplacementAgainstModel drives a two-shard pool with random
// sequences of Get, ScanRun runs (with readahead windows), Mutate and
// DropFile, and after every operation compares it with the policy's model:
// which pages it evicted, which are resident, in which sublist, with which
// readahead flag, the sublist sizes and the hit, miss and readahead-hit
// counters. Recency order inside a sublist is not observable
// directly; a wrong order shows up as a wrong eviction some operations later.
// (The evictions compared are those of pages resident before the operation:
// a readahead window can admit and evict a page within one ScanRun.)
func TestPoolReplacementAgainstModel(t *testing.T) {
	const filePages = 200
	for seed := int64(1); seed <= 4; seed++ {
		disk := NewDisk()
		bp := NewBufferPool(disk, 2*minPagesPerShard*PageSize)
		if len(bp.shards) != 2 {
			t.Fatalf("%d shards, want 2", len(bp.shards))
		}
		var files []FileID
		for f := 0; f < 2; f++ {
			files = append(files, disk.CreateFile())
			for p := 0; p < filePages; p++ {
				disk.AllocPage(files[f])
			}
		}
		model := newPoolModel(bp)
		meter := cost.NewMeter(cost.Default1996())
		r := rand.New(rand.NewSource(seed))
		page := func() pageKey {
			f := files[r.Intn(len(files))]
			if r.Intn(10) < 6 { // a hot set that earns promotions
				return pageKey{f, PageID(r.Intn(24))}
			}
			return pageKey{f, PageID(r.Intn(filePages))}
		}
		for op := 0; op < 4000; op++ {
			before, modelBefore := poolResidents(bp), model.residents()
			var what string
			switch k := r.Intn(97); {
			case k < 50:
				key := page()
				what = fmt.Sprintf("Get %v", key)
				if _, err := bp.Get(key.file, key.page, meter); err != nil {
					t.Fatal(err)
				}
				model.get(key)
			case k < 75:
				start := page()
				n := 2 + r.Intn(30)
				var limit PageID
				if r.Intn(2) == 0 {
					limit = min(start.page+PageID(n), filePages)
				}
				what = fmt.Sprintf("ScanRun %v +%d limit %d", start, n, limit)
				run := bp.NewScanRun(start.file, limit)
				for i := 0; i < n && int(start.page)+i < filePages; i++ {
					key := pageKey{start.file, start.page + PageID(i)}
					if _, err := run.Get(key.page, meter); err != nil {
						t.Fatal(err)
					}
					model.scanGet(key, i+1, limit)
				}
			case k < 95:
				key := page()
				what = fmt.Sprintf("Mutate %v", key)
				if err := bp.Mutate(key.file, key.page, meter, func([]byte) (bool, error) { return false, nil }); err != nil {
					t.Fatal(err)
				}
				model.get(key)
			default:
				f := files[r.Intn(len(files))]
				what = fmt.Sprintf("DropFile %d", f)
				bp.DropFile(f)
				model.dropFile(f)
			}

			after, modelAfter := poolResidents(bp), model.residents()
			if got, want := gone(before, after), gone(modelBefore, modelAfter); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d (%s): evicted %v, model %v", seed, op, what, got, want)
			}
			if !maps.Equal(after, modelAfter) {
				t.Fatalf("seed %d op %d (%s): residents\n%v\nmodel\n%v", seed, op, what, after, modelAfter)
			}
			var hits, misses, raHits int64
			for i, st := range bp.Stats() {
				s := model.shards[i]
				if st.Young != int64(len(s.young)) || st.Old != int64(len(s.old)) {
					t.Fatalf("seed %d op %d (%s): shard %d holds %d young, %d old; model %d, %d",
						seed, op, what, i, st.Young, st.Old, len(s.young), len(s.old))
				}
				hits, misses, raHits = hits+st.Hits, misses+st.Misses, raHits+st.ReadaheadHits
			}
			if hits != model.hits || misses != model.misses || raHits != model.raHits {
				t.Fatalf("seed %d op %d (%s): %d hits, %d misses, %d readahead hits; model %d, %d, %d",
					seed, op, what, hits, misses, raHits, model.hits, model.misses, model.raHits)
			}
		}
	}
}

// TestPoolHitAllocatesNothing: a hit — a recency refresh, or a second touch
// that promotes a page and demotes the young list's tail — links and unlinks
// frames in place.
func TestPoolHitAllocatesNothing(t *testing.T) {
	disk := NewDisk()
	bp := NewBufferPool(disk, minPagesPerShard*PageSize)
	file := disk.CreateFile()
	const pages = minPagesPerShard - 4 // all resident, more than the young list holds
	for p := 0; p < pages; p++ {
		disk.AllocPage(file)
	}
	for p := PageID(0); p < pages; p++ {
		if _, err := bp.Get(file, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var p PageID
	n := testing.AllocsPerRun(1000, func() {
		if _, err := bp.Get(file, p%pages, nil); err != nil {
			t.Fatal(err)
		}
		p++
	})
	st := bp.Stats()[0]
	if (!race.Enabled && n != 0) || st.Misses != pages || st.Young == 0 || st.Old == 0 {
		t.Errorf("a hit allocates %.2f times (%+v)", n, st)
	}
}

// TestPoolMissAllocatesNothing: once a shard is full, an admission takes over
// the struct of the frame it evicted, so a cyclic scan over twice the pool —
// every request a miss, a readahead window or a readahead hit — allocates
// nothing. The frame is recycled, never the image: a page image handed out
// before its frame went to another page keeps its bytes, also after that
// page is written.
func TestPoolMissAllocatesNothing(t *testing.T) {
	disk := NewDisk()
	bp := NewBufferPool(disk, minPagesPerShard*PageSize)
	if len(bp.shards) != 1 || !bp.readaheadOn() {
		t.Fatalf("fixture: %d shards, readahead %v", len(bp.shards), bp.readaheadOn())
	}
	file := disk.CreateFile()
	const pages = 2 * minPagesPerShard
	for p := 0; p < pages; p++ {
		id := disk.AllocPage(file)
		disk.writePage(file, id, bytes.Repeat([]byte{byte(p)}, PageSize), false)
	}
	run := bp.NewScanRun(file, pages)
	var p PageID
	get := func() []byte {
		data, err := run.Get(p%pages, nil)
		if err != nil {
			t.Fatal(err)
		}
		p++
		return data
	}
	for p < pages { // fill the shard
		get()
	}

	held := get() // page 0, evicted again below
	want := bytes.Clone(held)
	sh := bp.shards[0]
	f0 := sh.frames[pageKey{file, 0}]
	before := sh.misses.Load()
	n := testing.AllocsPerRun(1000, func() { get() })
	if misses := sh.misses.Load() - before; (!race.Enabled && n != 0) || misses < 100 {
		t.Errorf("%d misses of a full pool allocate %.2f times per request", misses, n)
	}
	if f0.key.page == 0 || sh.frames[f0.key] != f0 {
		t.Fatalf("page 0's frame was not recycled: holds page %d", f0.key.page)
	}
	if err := bp.Mutate(file, f0.key.page, nil, func(data []byte) (bool, error) {
		for i := range data {
			data[i] = 0xFF
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, want) {
		t.Fatal("recycling page 0's frame for another page changed the image a reader holds")
	}
	if got, err := bp.Get(file, f0.key.page, nil); err != nil || got[0] != 0xFF {
		t.Fatalf("the write to page %d did not land: %v", f0.key.page, err)
	}
}
