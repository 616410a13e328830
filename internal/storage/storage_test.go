package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/race"
	"r3bench/internal/val"
)

func newTestHeap(t *testing.T, bufBytes int) (*HeapFile, *BufferPool, *cost.Meter) {
	t.Helper()
	disk := NewDisk()
	pool := NewBufferPool(disk, bufBytes)
	codec := val.NewRowCodec([]val.ColType{val.Int4, val.Char(16), val.Dec8})
	return NewHeapFile(disk, pool, codec), pool, cost.NewMeter(cost.Default1996())
}

func row(i int) []val.Value {
	return []val.Value{val.Int(int64(i)), val.Str(fmt.Sprintf("key%013d", i)), val.Float(float64(i) / 2)}
}

func TestHeapInsertFetch(t *testing.T) {
	h, _, m := newTestHeap(t, 1<<20)
	rids := make([]RID, 0, 1000)
	for i := 0; i < 1000; i++ {
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Rows() != 1000 {
		t.Fatalf("Rows = %d", h.Rows())
	}
	for i, rid := range rids {
		got, err := h.Fetch(rid, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].AsInt() != int64(i) {
			t.Fatalf("row %d: got %v", i, got)
		}
	}
}

// TestHeapScanOrderAndReuse: a scan returns rows in file order; once the
// rows of two whole pages are deleted, the next rows go into those pages,
// tombstoned slots first, and the file does not grow. A tombstoned slot on
// a page that still holds a row is not written again.
func TestHeapScanOrderAndReuse(t *testing.T) {
	h, _, m := newTestHeap(t, 1<<20)
	per := h.RowsPerPage()
	var rids []RID
	for i := 0; i < 4*per-1; i++ { // four pages, one slot left
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	scan := func() []int64 {
		var ids []int64
		if err := h.Scan(m, func(rid RID, r []val.Value) error {
			ids = append(ids, r[0].AsInt())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	for i, id := range scan() {
		if id != int64(i) {
			t.Fatalf("scan out of order at %d: %d", i, id)
		}
	}
	pages := h.Pages()
	for i := 0; i <= 2*per; i++ { // pages 0 and 1, and page 2's first row
		if err := h.DeleteTx(0, rids[i], m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*per; i++ {
		rid, err := h.InsertTx(0, row(1000+i), m)
		if err != nil {
			t.Fatal(err)
		}
		if want := (RID{Page: PageID(i / per), Slot: uint16(i % per)}); rid != want {
			t.Fatalf("reinserted row %d went to %v, want %v", i, rid, want)
		}
	}
	if h.Pages() != pages {
		t.Fatalf("the file grew from %d to %d pages", pages, h.Pages())
	}
	if rid, _ := h.InsertTx(0, row(2000), m); rid != (RID{Page: 3, Slot: uint16(per - 1)}) {
		t.Fatalf("with no page empty the row went to %v, want the last slot (3,%d)", rid, per-1)
	}
	ids := scan()
	for i := 0; i < 2*per; i++ {
		if ids[i] != int64(1000+i) {
			t.Fatalf("scan position %d holds %d, want the reinserted %d", i, ids[i], 1000+i)
		}
	}
	if ids[2*per] != int64(2*per+1) {
		t.Fatalf("scan position %d holds %d, want %d", 2*per, ids[2*per], 2*per+1)
	}
}

// TestEmptiedPageWaitsOutItsEpoch: a page emptied while somebody is inside
// the epochs is not written again until they have left; one who enters
// after the page emptied does not hold it back, also when the statements
// around the listing overlap.
func TestEmptiedPageWaitsOutItsEpoch(t *testing.T) {
	h, _, m := newTestHeap(t, 1<<20)
	var e Epochs
	h.SetEpochs(&e)
	per := h.RowsPerPage()
	var rids []RID
	for i := 0; i < 2*per; i++ {
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	before := e.Enter()
	for _, rid := range rids[:per] {
		if err := h.DeleteTx(0, rid, m); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Enter()
	rid, err := h.InsertTx(0, row(5000), m)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page == 0 {
		t.Fatalf("the emptied page was reused at %v while a statement from before was inside", rid)
	}
	e.Leave(before)
	if rid, err = h.InsertTx(0, row(5001), m); err != nil {
		t.Fatal(err)
	}
	if rid != (RID{Page: 0, Slot: 0}) {
		t.Fatalf("after the statement left the row went to %v, want (0,0)", rid)
	}
	e.Leave(after)

	// A enters, page 1 is listed, B enters, page 0 is listed, C enters, A
	// and B leave: the rows refill page 1, then page 0 while C runs.
	h, _, m = newTestHeap(t, 1<<20)
	e = Epochs{}
	h.SetEpochs(&e)
	rids = rids[:0]
	for i := 0; i < 3*per; i++ {
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	emptyPage := func(pid PageID) {
		for _, rid := range rids {
			if rid.Page == pid {
				if err := h.DeleteTx(0, rid, m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a := e.Enter()
	emptyPage(1)
	b := e.Enter()
	emptyPage(0)
	c := e.Enter()
	e.Leave(a)
	e.Leave(b)
	for i := 0; i <= per; i++ {
		if rid, err = h.InsertTx(0, row(6000+i), m); err != nil {
			t.Fatal(err)
		}
		if want := PageID(1 - i/per); rid.Page != want {
			t.Fatalf("row %d of the refill went to %v, want page %d", i, rid, want)
		}
	}
	e.Leave(c)
}
func TestHeapDelete(t *testing.T) {
	h, _, m := newTestHeap(t, 1<<20)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, _ := h.InsertTx(0, row(i), m)
		rids = append(rids, rid)
	}
	for i := 0; i < 100; i += 2 {
		if err := h.DeleteTx(0, rids[i], m); err != nil {
			t.Fatal(err)
		}
	}
	if h.Rows() != 50 {
		t.Fatalf("Rows after delete = %d", h.Rows())
	}
	count := 0
	h.Scan(m, func(rid RID, r []val.Value) error {
		if r[0].AsInt()%2 == 0 {
			t.Fatalf("deleted row %v visible", r)
		}
		count++
		return nil
	})
	if count != 50 {
		t.Fatalf("scan saw %d rows", count)
	}
	if err := h.DeleteTx(0, rids[0], m); err == nil {
		t.Error("double delete must error")
	}
	if _, err := h.Fetch(rids[0], m, nil); err == nil {
		t.Error("fetch of deleted rid must error")
	}
}

func TestHeapUpdate(t *testing.T) {
	h, _, m := newTestHeap(t, 1<<20)
	rid, _ := h.InsertTx(0, row(1), m)
	if err := h.UpdateTx(0, rid, row(42), m); err != nil {
		t.Fatal(err)
	}
	got, err := h.Fetch(rid, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].AsInt() != 42 {
		t.Fatalf("update not visible: %v", got)
	}
}

func TestHeapStopScan(t *testing.T) {
	h, _, m := newTestHeap(t, 1<<20)
	for i := 0; i < 100; i++ {
		h.InsertTx(0, row(i), m)
	}
	seen := 0
	err := h.Scan(m, func(rid RID, r []val.Value) error {
		seen++
		if seen == 10 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || seen != 10 {
		t.Fatalf("early stop: err=%v seen=%d", err, seen)
	}
}

func TestBufferPoolChargesSeqVsRand(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 4*PageSize) // tiny: 4 pages
	f := disk.CreateFile()
	for i := 0; i < 16; i++ {
		disk.AllocPage(f)
	}
	m := cost.NewMeter(cost.Default1996())
	// Sequential sweep: first page random, rest sequential.
	for i := 0; i < 16; i++ {
		if _, err := pool.Get(f, PageID(i), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.Count(cost.RandRead) != 1 || m.Count(cost.SeqRead) != 15 {
		t.Fatalf("sweep charged rand=%d seq=%d", m.Count(cost.RandRead), m.Count(cost.SeqRead))
	}
	m = cost.NewMeter(cost.Default1996())
	// Random hops across a pool too small to hold them: all random.
	for _, p := range []PageID{9, 3, 12, 0, 7} {
		pool.Get(f, p, m)
	}
	if m.Count(cost.RandRead) != 5 {
		t.Fatalf("hops charged rand=%d", m.Count(cost.RandRead))
	}
}

func TestBufferPoolHitsAreFree(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 64*PageSize)
	f := disk.CreateFile()
	disk.AllocPage(f)
	m := cost.NewMeter(cost.Default1996())
	pool.Get(f, 0, m)
	before := m.Elapsed()
	for i := 0; i < 100; i++ {
		pool.Get(f, 0, m)
	}
	if m.Elapsed() != before {
		t.Error("pool hits must not charge I/O")
	}
	if pool.HitRatio() < 0.99 {
		t.Errorf("hit ratio = %f", pool.HitRatio())
	}
}

// dirty is a Mutate callback that reports a write without changing a byte.
func dirty([]byte) (bool, error) { return true, nil }

func TestBufferPoolEvictionWritesDirty(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 2*PageSize)
	f := disk.CreateFile()
	for i := 0; i < 4; i++ {
		disk.AllocPage(f)
	}
	m := cost.NewMeter(cost.Default1996())
	pool.Mutate(f, 0, m, dirty)
	pool.Get(f, 1, m)
	pool.Get(f, 2, m) // evicts page 0 (dirty): must charge a write
	if m.Count(cost.PageWrite) != 1 {
		t.Fatalf("PageWrite charges = %d, want 1", m.Count(cost.PageWrite))
	}
}

func TestFlushFile(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 16*PageSize)
	f := disk.CreateFile()
	disk.AllocPage(f)
	disk.AllocPage(f)
	m := cost.NewMeter(cost.Default1996())
	pool.Mutate(f, 0, m, dirty)
	pool.Mutate(f, 1, m, dirty)
	m = cost.NewMeter(cost.Default1996())
	pool.FlushFile(f, m)
	if m.Count(cost.PageWrite) != 2 {
		t.Fatalf("flush charged %d writes", m.Count(cost.PageWrite))
	}
	m = cost.NewMeter(cost.Default1996())
	pool.FlushFile(f, m) // now clean
	if m.Count(cost.PageWrite) != 0 {
		t.Error("second flush must be free")
	}
}

func TestHeapSurvivesEvictionUnderTinyPool(t *testing.T) {
	// With a pool far smaller than the table, scans must still see every
	// row (pages round trip through the simulated disk correctly).
	disk := NewDisk()
	pool := NewBufferPool(disk, 2*PageSize)
	codec := val.NewRowCodec([]val.ColType{val.Int8})
	h := NewHeapFile(disk, pool, codec)
	m := cost.NewMeter(cost.Default1996())
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := h.InsertTx(0, []val.Value{val.Int(int64(i))}, m); err != nil {
			t.Fatal(err)
		}
	}
	var sum, want int64
	for i := 0; i < n; i++ {
		want += int64(i)
	}
	h.Scan(m, func(rid RID, r []val.Value) error {
		sum += r[0].AsInt()
		return nil
	})
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestRandomizedHeapAgainstModel(t *testing.T) {
	// Property test: the heap behaves like a map[RID]row under random
	// insert/delete/update/fetch.
	disk := NewDisk()
	pool := NewBufferPool(disk, 8*PageSize)
	codec := val.NewRowCodec([]val.ColType{val.Int8, val.Char(8)})
	h := NewHeapFile(disk, pool, codec)
	m := cost.NewMeter(cost.Default1996())
	model := map[RID]int64{}
	var live []RID
	r := rand.New(rand.NewSource(3))
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(live) == 0: // insert
			v := r.Int63n(1e9)
			rid, err := h.InsertTx(0, []val.Value{val.Int(v), val.Str("x")}, m)
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = v
			live = append(live, rid)
		case op < 7: // delete
			i := r.Intn(len(live))
			rid := live[i]
			if err := h.DeleteTx(0, rid, m); err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			live = append(live[:i], live[i+1:]...)
		case op < 9: // fetch
			rid := live[r.Intn(len(live))]
			got, err := h.Fetch(rid, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got[0].AsInt() != model[rid] {
				t.Fatalf("fetch %v: got %d want %d", rid, got[0].AsInt(), model[rid])
			}
		default: // update
			rid := live[r.Intn(len(live))]
			v := r.Int63n(1e9)
			if err := h.UpdateTx(0, rid, []val.Value{val.Int(v), val.Str("y")}, m); err != nil {
				t.Fatal(err)
			}
			model[rid] = v
		}
	}
	if int(h.Rows()) != len(model) {
		t.Fatalf("Rows = %d, model has %d", h.Rows(), len(model))
	}
	seen := 0
	h.Scan(m, func(rid RID, row []val.Value) error {
		if row[0].AsInt() != model[rid] {
			t.Fatalf("scan %v: got %d want %d", rid, row[0].AsInt(), model[rid])
		}
		seen++
		return nil
	})
	if seen != len(model) {
		t.Fatalf("scan saw %d, want %d", seen, len(model))
	}
}

// TestConcurrentScansSharedPool drives partitioned ScanRange workers and
// whole-file Scans through one undersized buffer pool at once (run under
// -race). Each goroutine charges its own meter; partitions must cover
// every row exactly once and full scans must see a consistent file.
func TestConcurrentScansSharedPool(t *testing.T) {
	const poolPages = 8 // far smaller than the file: constant eviction
	h, bp, m := newTestHeap(t, poolPages*PageSize)
	const nRows = 5000
	var want int64
	rids := make([]RID, 0, nRows)
	for i := 0; i < nRows; i++ {
		rid, err := h.InsertTx(0, row(i), m)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want += int64(i)
	}
	pages := h.Pages()
	const workers = 8
	const lookupWorkers = 2
	per := (pages + workers - 1) / workers

	var wg sync.WaitGroup
	partSums := make([]int64, workers)
	partCounts := make([]int64, workers)
	errs := make([]error, workers+2+lookupWorkers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * per
			hi := lo + per
			wm := cost.NewMeter(cost.Default1996())
			r := make([]val.Value, h.Codec().NumCols())
			errs[w] = h.ScanRange(lo, hi, wm, h.Codec().AllCols(), func() []val.Value { return r }, nil, func(RID) error {
				partSums[w] += r[0].AsInt()
				partCounts[w]++
				return nil
			})
		}(w)
	}
	// Two full scans race against the partition workers on the same pool.
	fullSums := make([]int64, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sm := cost.NewMeter(cost.Default1996())
			errs[workers+s] = h.Scan(sm, func(rid RID, r []val.Value) error {
				fullSums[s] += r[0].AsInt()
				return nil
			})
		}(s)
	}
	// Point-lookup workers hammer random rids on the same shards the scan
	// workers are churning: hits, misses, promotions and evictions all
	// interleave on one frame map (the paper's OLTP-probe vs OLAP-scan mix).
	for l := 0; l < lookupWorkers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			lm := cost.NewMeter(cost.Default1996())
			r := rand.New(rand.NewSource(int64(100 + l)))
			for i := 0; i < 2000; i++ {
				j := r.Intn(len(rids))
				got, err := h.Fetch(rids[j], lm, nil)
				if err != nil {
					errs[workers+2+l] = err
					return
				}
				if got[0].AsInt() != int64(j) {
					errs[workers+2+l] = fmt.Errorf("lookup %d: got %v", j, got[0])
					return
				}
			}
		}(l)
	}
	// A stat reader hammers the counters while every scanner is running:
	// under -race this pins that HitRatio and Stats read lock-free
	// without racing against the shard locks the workers hold.
	statDone := make(chan struct{})
	var statWG sync.WaitGroup
	statWG.Add(1)
	go func() {
		defer statWG.Done()
		for {
			select {
			case <-statDone:
				return
			default:
			}
			if r := bp.HitRatio(); r < 0 || r > 1 {
				t.Errorf("hit ratio out of range: %f", r)
				return
			}
			total := 0
			for _, sh := range bp.Stats() {
				if sh.Hits < 0 || sh.Misses < 0 {
					t.Errorf("negative shard counters: %+v", sh)
					return
				}
				total += sh.Capacity
			}
			if total != poolPages {
				t.Errorf("shard capacities sum to %d, want %d", total, poolPages)
				return
			}
		}
	}()
	wg.Wait()
	close(statDone)
	statWG.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("scanner %d: %v", i, err)
		}
	}
	var gotSum, gotCount int64
	for w := 0; w < workers; w++ {
		gotSum += partSums[w]
		gotCount += partCounts[w]
	}
	if gotCount != nRows || gotSum != want {
		t.Fatalf("partitions saw %d rows (sum %d), want %d (sum %d)", gotCount, gotSum, nRows, want)
	}
	for s, sum := range fullSums {
		if sum != want {
			t.Fatalf("full scan %d: sum %d, want %d", s, sum, want)
		}
	}
}

// TestScanResistance pins the tentpole property: a full scan of a file far
// larger than the pool must not evict pages another session has proven hot
// (touched twice → young sublist), while the scan itself does cycle the
// pool: its first pages are gone by the time it ends.
func TestScanResistance(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 64*PageSize) // one shard: deterministic LRU
	hot := disk.CreateFile()
	const hotPages = 8
	for i := 0; i < hotPages; i++ {
		disk.AllocPage(hot)
	}
	big := disk.CreateFile()
	const bigPages = 200
	for i := 0; i < bigPages; i++ {
		disk.AllocPage(big)
	}
	m := cost.NewMeter(cost.Default1996())

	heat := func() {
		for pass := 0; pass < 2; pass++ { // second pass = second touch = young
			for p := 0; p < hotPages; p++ {
				if _, err := pool.Get(hot, PageID(p), m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	scanBig := func() {
		run := pool.NewScanRun(big, bigPages)
		for p := 0; p < bigPages; p++ {
			if _, err := run.Get(PageID(p), m); err != nil {
				t.Fatal(err)
			}
		}
	}

	heat()
	scanBig()
	for p := 0; p < hotPages; p++ {
		if !pool.Contains(hot, PageID(p)) {
			t.Fatalf("midpoint LRU: hot page %d evicted by a 200-page scan", p)
		}
	}
	young, old := pool.Occupancy()
	if young+old != 64 {
		t.Fatalf("occupancy %d+%d, want full pool of 64", young, old)
	}
	if pool.Contains(big, 0) {
		t.Fatal("the scan's first page is still resident: the scan is not exercising eviction")
	}
}

// TestReadaheadChargesWindows checks the batched charging contract: a
// sequential sweep through a cold file charges one cost.ReadAhead per
// window plus the initial random read, never per-page sequential reads,
// and the prefetched pages count as readahead hits, not misses.
func TestReadaheadChargesWindows(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 64*PageSize)
	f := disk.CreateFile()
	const pages = 32
	for i := 0; i < pages; i++ {
		disk.AllocPage(f)
	}
	m := cost.NewMeter(cost.Default1996())
	run := pool.NewScanRun(f, pages)
	for p := 0; p < pages; p++ {
		if _, err := run.Get(PageID(p), m); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0: random read. Page 1 arms the run → windows fetch pages
	// 1-8, 9-16, 17-24, 25-31; everything else is a readahead hit.
	if got := m.Count(cost.RandRead); got != 1 {
		t.Errorf("RandRead = %d, want 1", got)
	}
	if got := m.Count(cost.SeqRead); got != 0 {
		t.Errorf("SeqRead = %d, want 0 (windows absorb the sequential pages)", got)
	}
	if got := m.Count(cost.ReadAhead); got != 4 {
		t.Errorf("ReadAhead = %d, want 4", got)
	}
	windows, raPages, raHits := pool.ReadaheadStats()
	if windows != 4 || raPages != 27 || raHits != 27 {
		t.Errorf("readahead stats = (%d windows, %d pages, %d hits), want (4, 27, 27)", windows, raPages, raHits)
	}
	var misses int64
	for _, sh := range pool.Stats() {
		misses += sh.Misses
	}
	if misses != 5 {
		t.Errorf("misses = %d, want 5 (page 0 + one demand page per window)", misses)
	}
	if pool.HitRatio() < 0.84 { // 27 of 32 requests served without a disk wait
		t.Errorf("hit ratio = %f", pool.HitRatio())
	}
}

// TestReadaheadOffChargesPerPage pins the threshold: in the largest pool
// that never reads ahead, one page under minReadaheadPages, the same sweep
// charges the seed policy's per-page sequential reads.
func TestReadaheadOffChargesPerPage(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, (minReadaheadPages-1)*PageSize)
	f := disk.CreateFile()
	const pages = 32
	for i := 0; i < pages; i++ {
		disk.AllocPage(f)
	}
	m := cost.NewMeter(cost.Default1996())
	run := pool.NewScanRun(f, pages)
	for p := 0; p < pages; p++ {
		if _, err := run.Get(PageID(p), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.Count(cost.RandRead) != 1 || m.Count(cost.SeqRead) != 31 || m.Count(cost.ReadAhead) != 0 {
		t.Fatalf("charges rand=%d seq=%d readahead=%d, want 1/31/0",
			m.Count(cost.RandRead), m.Count(cost.SeqRead), m.Count(cost.ReadAhead))
	}
	windows, raPages, _ := pool.ReadaheadStats()
	if windows != 0 || raPages != 0 {
		t.Fatalf("readahead ran in a %d-page pool: %d windows, %d pages", minReadaheadPages-1, windows, raPages)
	}
}

// TestReadaheadDisabledOnTinyPools: below minReadaheadPages a window would
// evict itself before the scan consumed it, so tiny pools keep the seed's
// per-page behavior.
func TestReadaheadDisabledOnTinyPools(t *testing.T) {
	disk := NewDisk()
	pool := NewBufferPool(disk, 8*PageSize)
	f := disk.CreateFile()
	for i := 0; i < 16; i++ {
		disk.AllocPage(f)
	}
	m := cost.NewMeter(cost.Default1996())
	run := pool.NewScanRun(f, 16)
	for p := 0; p < 16; p++ {
		if _, err := run.Get(PageID(p), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.Count(cost.ReadAhead) != 0 {
		t.Fatalf("tiny pool issued %d readahead windows", m.Count(cost.ReadAhead))
	}
	if m.Count(cost.RandRead) != 1 || m.Count(cost.SeqRead) != 15 {
		t.Fatalf("charges rand=%d seq=%d, want 1/15", m.Count(cost.RandRead), m.Count(cost.SeqRead))
	}
}

// TestScanOfNumericColumnsAllocatesNothingPerRow: a scan over the TPC-D
// LINEITEM layout that wants only numeric and date columns (Q6's shape)
// builds no string and no row buffer — whatever it allocates, it allocates
// per scan, not per row — and decodes its output-only column for the rows
// that pass only, after the filter.
func TestScanOfNumericColumnsAllocatesNothingPerRow(t *testing.T) {
	layout := []val.ColType{val.Int4, val.Int4, val.Int4, val.Int4, val.Dec8, val.Dec8, val.Dec8, val.Dec8,
		val.Char(1), val.Char(1), val.Date4, val.Date4, val.Date4, val.Char(25), val.Char(10), val.Char(44)}
	disk := NewDisk()
	h := NewHeapFile(disk, NewBufferPool(disk, 8<<20), val.NewRowCodec(layout))
	const nRows = 2000
	for i := 0; i < nRows; i++ {
		r := make([]val.Value, len(layout))
		for c, ct := range layout {
			switch ct.Kind {
			case val.KStr:
				r[c] = val.Str("R")
			case val.KFloat:
				r[c] = val.Float(float64(i))
			default:
				r[c] = val.Int(int64(i))
			}
		}
		if _, err := h.InsertTx(0, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Q6's roles: extendedprice is read only by rows that pass, the filter
	// reads quantity, discount and shipdate.
	cols := h.Codec().Cols([]int{5, 4, 6, 10}, 1)
	dst := make([]val.Value, cols.Len())
	var sum float64
	var passed int
	perScan := testing.AllocsPerRun(5, func() {
		sum, passed = 0, 0
		err := h.ScanRange(0, h.Pages(), nil, cols, func() []val.Value { return dst },
			func() (bool, error) {
				dst[0] = val.Value{} // not decoded yet: a filter must not see it
				return dst[3].AsInt()%4 == 0, nil
			},
			func(RID) error {
				sum += dst[0].AsFloat()
				passed++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	})
	if passed != nRows/4 || sum != float64(nRows/4)*float64(nRows-4)/2 {
		t.Fatalf("scan passed %d rows summing %v, want %d summing %v", passed, sum, nRows/4, float64(nRows/4)*float64(nRows-4)/2)
	}
	if !race.Enabled && perScan >= nRows/100 {
		t.Errorf("scan of %d rows allocated %.0f times: a per-row allocation is back", nRows, perScan)
	}
}
