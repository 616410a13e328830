package storage

import (
	"sync"
	"sync/atomic"

	"r3bench/internal/cost"
)

// pageKey identifies a page across files.
type pageKey struct {
	file FileID
	page PageID
}

type frame struct {
	key        pageKey
	data       []byte
	prev, next *frame // neighbours in the frame's sublist
	dirty      bool
	young      bool // resident in the young sublist (proven by a second touch)
	ra         bool // admitted by readahead; first demand touch still pending
	shared     bool // the image's bit (pageImage), cached so that a hit takes no disk lock: see handOut
}

// lru is one recency sublist: a ring of frames linked through their prev and
// next fields and a sentinel, front (most recent) first. Linking and
// unlinking allocate nothing.
type lru struct{ root frame }

func (l *lru) init() { l.root.prev, l.root.next = &l.root, &l.root }

// back returns the least recent frame, nil for an empty list.
func (l *lru) back() *frame {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

func (l *lru) pushFront(f *frame) {
	f.prev, f.next = &l.root, l.root.next
	f.next.prev, l.root.next = f, f
}

func (l *lru) moveToFront(f *frame) {
	if l.root.next != f {
		unlink(f)
		l.pushFront(f)
	}
}

// unlink takes f out of its sublist.
func unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// maxPoolShards bounds the number of lock shards; tiny pools collapse to
// one shard so eviction behaves exactly like a single global LRU.
const maxPoolShards = 8

// minPagesPerShard is the smallest shard worth splitting off: below it,
// per-shard capacities round down to nothing useful and LRU accuracy
// suffers more than contention costs.
const minPagesPerShard = 64

// oldFracNum/oldFracDen set the old sublist's target share of a shard
// (3/8, the classic midpoint default): new pages enter the old sublist
// and must prove themselves with a second touch before they may displace
// anything in the young sublist.
const (
	oldFracNum = 3
	oldFracDen = 8
)

// readaheadWindow is the number of consecutive pages fetched per
// readahead batch; raTrigger is the run of consecutive page requests
// that arms readahead; minReadaheadPages is the smallest pool for which
// readahead pays — a smaller pool would churn the prefetched window out
// before the scan consumed it.
const (
	readaheadWindow   = 8
	raTrigger         = 2
	minReadaheadPages = 4 * readaheadWindow
)

// poolShard is one independently locked slice of the buffer pool: its own
// frame map, its own young/old LRU sublists, its own share of the capacity.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	youngCap int // capacity - old-sublist target
	frames   map[pageKey]*frame
	young    lru // pages touched at least twice
	old      lru // unproven pages (scans live here); evicted first

	// Counters are atomics so stat readers (HitRatio, ShardStats, the
	// metrics registry) never contend with — or race against — the
	// frame lock held by scan workers.
	hits, misses, raHits atomic.Int64
	youngLen, oldLen     atomic.Int64
}

// BufferPool caches disk pages and charges page I/O to the accessing
// session's cost meter. Its capacity models the paper's database buffer
// (10 MB by default in the SAP R/3 installation).
//
// Replacement is a midpoint-insertion LRU: each shard keeps a "young"
// and an "old" sublist. New pages enter the old sublist and are promoted
// to the young sublist only on a second touch, so a one-pass scan can
// evict at most other scan pages — the hot B-tree and cluster pages a
// point query depends on stay resident (scan resistance).
//
// A read that hits the pool is free; a miss charges cost.SeqRead when the
// page immediately follows the previous page read from the same file
// (prefetchable sequential access) and cost.RandRead otherwise. Scanners
// that track their own run of consecutive pages use a ScanRun, which also
// performs sequential readahead: once a run is detected, the next window
// of pages streams in as one batched cost.ReadAhead charge and subsequent
// requests are readahead hits (tracked separately from resident hits).
// Writing back a dirty page charges cost.PageWrite.
//
// The pool is sharded: frames are spread over up to maxPoolShards
// independently locked segments so concurrent scan workers do not
// serialize on one mutex. The sequential-read detector of Get stays
// global (it models the disk's single head position per file) under its
// own small lock; partitioned scans use per-partition ScanRuns, which
// bypass the global detector entirely.
type BufferPool struct {
	disk     *Disk
	shards   []*poolShard
	capPages int

	seqMu    sync.Mutex
	lastRead map[FileID]PageID

	raWindows atomic.Int64 // batched window fetches issued
	raPages   atomic.Int64 // pages fetched speculatively (beyond the demand page)

	// wal, when set, is told about every dirty-page write-back (flush or
	// eviction): the page's current image becomes its durable version,
	// after the WAL rule forces any unflushed log it depends on. The WAL
	// keeps that image itself, so it takes it as a reader does (writeBack).
	wal atomic.Pointer[WAL]
}

// NewBufferPool returns a pool over disk holding at most capacityBytes of
// pages (minimum one page).
func NewBufferPool(disk *Disk, capacityBytes int) *BufferPool {
	capPages := capacityBytes / PageSize
	if capPages < 1 {
		capPages = 1
	}
	nShards := capPages / minPagesPerShard
	if nShards < 1 {
		nShards = 1
	}
	if nShards > maxPoolShards {
		nShards = maxPoolShards
	}
	bp := &BufferPool{
		disk:     disk,
		shards:   make([]*poolShard, nShards),
		capPages: capPages,
		lastRead: make(map[FileID]PageID),
	}
	per := capPages / nShards
	extra := capPages % nShards
	for i := range bp.shards {
		c := per
		if i < extra {
			c++
		}
		oldTarget := c * oldFracNum / oldFracDen
		if oldTarget < 1 {
			oldTarget = 1
		}
		sh := &poolShard{capacity: c, youngCap: c - oldTarget, frames: make(map[pageKey]*frame)}
		sh.young.init()
		sh.old.init()
		bp.shards[i] = sh
	}
	return bp
}

// shard maps a page to its lock shard.
func (bp *BufferPool) shard(key pageKey) *poolShard {
	if len(bp.shards) == 1 {
		return bp.shards[0]
	}
	h := (uint64(key.file)<<32 | uint64(key.page)) * 0x9E3779B97F4A7C15
	return bp.shards[h>>32%uint64(len(bp.shards))]
}

// SetWAL attaches the write-ahead log that observes dirty write-backs
// (nil detaches). With no WAL attached, write-backs only charge the
// cost model, exactly as before durability existed.
func (bp *BufferPool) SetWAL(w *WAL) { bp.wal.Store(w) }

// readaheadOn reports whether window fetches are worthwhile: a pool
// under minReadaheadPages charges every page of a run on its own.
func (bp *BufferPool) readaheadOn() bool { return bp.capPages >= minReadaheadPages }

// HitRatio returns the fraction of page requests served from the pool,
// counting both resident hits and readahead hits.
func (bp *BufferPool) HitRatio() float64 {
	var hits, misses int64
	for _, sh := range bp.shards {
		hits += sh.hits.Load() + sh.raHits.Load()
		misses += sh.misses.Load()
	}
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// ShardStats is one lock shard's cache statistics.
type ShardStats struct {
	Hits          int64
	Misses        int64
	ReadaheadHits int64 // first demand touches of prefetched pages
	Capacity      int   // pages
	Young         int64 // pages currently in the young sublist
	Old           int64 // pages currently in the old sublist
}

// Stats snapshots per-shard counters and occupancy (lock-free) and
// capacities.
func (bp *BufferPool) Stats() []ShardStats {
	out := make([]ShardStats, len(bp.shards))
	for i, sh := range bp.shards {
		out[i] = ShardStats{
			Hits:          sh.hits.Load(),
			Misses:        sh.misses.Load(),
			ReadaheadHits: sh.raHits.Load(),
			Capacity:      sh.capacity,
			Young:         sh.youngLen.Load(),
			Old:           sh.oldLen.Load(),
		}
	}
	return out
}

// ReadaheadStats reports the pool-wide readahead counters: window
// fetches issued, pages fetched speculatively, and readahead hits
// (prefetched pages later demanded).
func (bp *BufferPool) ReadaheadStats() (windows, pages, hits int64) {
	for _, sh := range bp.shards {
		hits += sh.raHits.Load()
	}
	return bp.raWindows.Load(), bp.raPages.Load(), hits
}

// Occupancy returns the pool-wide young/old sublist sizes in pages.
func (bp *BufferPool) Occupancy() (young, old int64) {
	for _, sh := range bp.shards {
		young += sh.youngLen.Load()
		old += sh.oldLen.Load()
	}
	return young, old
}

// Contains reports whether the page is resident, without touching LRU
// state or counters (used by tests and diagnostics).
func (bp *BufferPool) Contains(file FileID, page PageID) bool {
	sh := bp.shard(pageKey{file, page})
	sh.mu.Lock()
	_, ok := sh.frames[pageKey{file, page}]
	sh.mu.Unlock()
	return ok
}

// Get returns the page's data, faulting it in if needed and charging m.
// The returned slice is the page's current image and is never written
// again, by the caller or by anyone else (writers go through Mutate, which
// copies a shared image first), so values that alias it stay valid for as
// long as they are reachable. Sequential-vs-random charging follows the
// global per-file last-read cursor.
func (bp *BufferPool) Get(file FileID, page PageID, m *cost.Meter) ([]byte, error) {
	key := pageKey{file, page}
	if data, hit := bp.touch(key); hit {
		bp.seqMu.Lock()
		bp.lastRead[file] = page
		bp.seqMu.Unlock()
		return data, nil
	}
	// Miss: classify against the global cursor, then admit the frame.
	bp.seqMu.Lock()
	last, ok := bp.lastRead[file]
	bp.lastRead[file] = page
	bp.seqMu.Unlock()
	data, err := bp.disk.readPage(file, page)
	if err != nil {
		return nil, err
	}
	if m != nil {
		if ok && page == last+1 {
			m.Charge(cost.SeqRead, 1)
		} else {
			m.Charge(cost.RandRead, 1)
		}
	}
	return bp.admit(key, data, m, false), nil
}

// ScanRun tracks one scanner's run of consecutive page requests — a
// serial heap scan or one partition of a parallel scan. Run state is
// caller-local, so concurrent partitions charge deterministically and do
// not perturb each other's sequential detection, and readahead never
// prefetches past limit (the exclusive end of the caller's page range).
type ScanRun struct {
	bp    *BufferPool
	file  FileID
	limit PageID
	last  PageID
	has   bool
	run   int
}

// NewScanRun starts a run over file; readahead stops at limit (exclusive).
func (bp *BufferPool) NewScanRun(file FileID, limit PageID) *ScanRun {
	return &ScanRun{bp: bp, file: file, limit: limit}
}

// Get returns the page's data for this run, faulting it in if needed.
// A miss that continues a run of at least raTrigger consecutive pages
// fetches the whole next window in one batched cost.ReadAhead charge;
// other misses charge cost.SeqRead (run continuation) or cost.RandRead.
func (r *ScanRun) Get(page PageID, m *cost.Meter) ([]byte, error) {
	bp := r.bp
	seq := r.has && page == r.last+1
	if seq {
		r.run++
	} else {
		r.run = 1
	}
	r.last, r.has = page, true
	key := pageKey{r.file, page}
	if data, hit := bp.touch(key); hit {
		return data, nil
	}
	if seq && r.run >= raTrigger && bp.readaheadOn() {
		return bp.fetchWindow(r.file, page, r.limit, m)
	}
	data, err := bp.disk.readPage(r.file, page)
	if err != nil {
		return nil, err
	}
	if m != nil {
		if seq {
			m.Charge(cost.SeqRead, 1)
		} else {
			m.Charge(cost.RandRead, 1)
		}
	}
	return bp.admit(key, data, m, false), nil
}

// fetchWindow streams pages [start, start+readaheadWindow) — clipped to
// the file and to limit — into the pool as one batched sequential
// transfer: a single cost.ReadAhead charge covers the whole window. The
// demand page enters as a normal admission; the speculative pages are
// flagged so their first demand touch counts as a readahead hit and does
// not yet promote them.
func (bp *BufferPool) fetchWindow(file FileID, start, limit PageID, m *cost.Meter) ([]byte, error) {
	end := start + readaheadWindow
	if n := PageID(bp.disk.NumPages(file)); end > n {
		end = n
	}
	if limit > 0 && end > limit {
		end = limit
	}
	var demand []byte
	speculative := int64(0)
	for p := start; p < end; p++ {
		key := pageKey{file, p}
		if p != start && bp.Contains(file, p) {
			continue // already resident: leave its recency alone
		}
		data, err := bp.disk.readPage(file, p)
		if err != nil {
			if p == start {
				return nil, err
			}
			break // the demand page is in; a short window is fine
		}
		got := bp.admit(key, data, m, p != start)
		if p == start {
			demand = got
		} else {
			speculative++
		}
	}
	if m != nil {
		m.Charge(cost.ReadAhead, 1)
	}
	bp.raWindows.Add(1)
	bp.raPages.Add(speculative)
	return demand, nil
}

// touch returns the cached page and registers the access: a hit on a
// readahead page consumes its flag (counted separately, no promotion —
// a scan touches each page exactly once), a hit on an old-sublist page
// is its second touch and promotes it to the young sublist, a hit on a
// young page refreshes its recency. Misses only bump the miss counter;
// the caller reads the disk and admits.
func (bp *BufferPool) touch(key pageKey) ([]byte, bool) {
	sh := bp.shard(key)
	sh.mu.Lock()
	f, ok := sh.frames[key]
	if !ok {
		sh.misses.Add(1)
		sh.mu.Unlock()
		return nil, false
	}
	sh.registerHit(f)
	data := bp.handOut(f)
	sh.mu.Unlock()
	return data, true
}

// handOut returns the frame's image to a reader and marks the image shared:
// the slice escapes the frame lock, and from here on it is immutable.
// Caller holds the frame's shard lock.
func (bp *BufferPool) handOut(f *frame) []byte {
	if !f.shared {
		f.shared = true
		bp.disk.share(f.key.file, f.key.page)
	}
	return f.data
}

// share hands the page's current image to a reader that goes around the
// frame lookup — the WAL taking a baseline or a direct-path page — with the
// same rule as Get: the image is shared from here on, through the frame's
// bit when the page is resident and the disk's when it is not. Skipping the
// frame would leave its cached bit unshared, and the next Mutate would write
// the reader's image in place. It is no access: no counter or recency moves.
func (bp *BufferPool) share(file FileID, page PageID) ([]byte, error) {
	key := pageKey{file, page}
	sh := bp.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[key]; ok {
		return bp.handOut(f), nil
	}
	return bp.disk.share(file, page)
}

// writeBack charges a dirty frame's write-back and, under a WAL, makes its
// image the page's durable version. The WAL keeps the image, so the frame
// hands it out: the next Mutate copies the page instead of writing the
// durable image in place. Caller holds the frame's shard lock.
func (bp *BufferPool) writeBack(w *WAL, f *frame, m *cost.Meter) {
	if m != nil {
		m.Charge(cost.PageWrite, 1)
	}
	if w != nil {
		w.stableWrite(f.key, bp.handOut(f), false, m)
	}
	f.dirty = false
}

// registerHit applies the hit-path counter and recency bookkeeping for a
// resident frame. Caller holds sh.mu.
func (sh *poolShard) registerHit(f *frame) {
	switch {
	case f.ra:
		f.ra = false
		sh.raHits.Add(1)
		sh.sublist(f).moveToFront(f)
	case f.young:
		sh.hits.Add(1)
		sh.young.moveToFront(f)
	default:
		// Second touch: the page proved itself; move it to the young
		// sublist and demote young overflow back to the old list's head.
		sh.hits.Add(1)
		sh.promote(f)
	}
}

// sublist returns the sublist f is linked into.
func (sh *poolShard) sublist(f *frame) *lru {
	if f.young {
		return &sh.young
	}
	return &sh.old
}

// promote moves an old-sublist frame to the young sublist. Caller holds
// sh.mu.
func (sh *poolShard) promote(f *frame) {
	unlink(f)
	sh.oldLen.Add(-1)
	sh.young.pushFront(f)
	f.young = true
	sh.youngLen.Add(1)
	for int(sh.youngLen.Load()) > sh.youngCap && sh.youngLen.Load() > 1 {
		tf := sh.young.back()
		unlink(tf)
		sh.youngLen.Add(-1)
		tf.young = false
		sh.old.pushFront(tf)
		sh.oldLen.Add(1)
	}
}

// remove takes a resident frame out of its sublist and the frame map. Caller
// holds sh.mu.
func (sh *poolShard) remove(f *frame) {
	unlink(f)
	if f.young {
		sh.youngLen.Add(-1)
	} else {
		sh.oldLen.Add(-1)
	}
	delete(sh.frames, f.key)
}

// admit inserts a freshly read page, unless a concurrent reader admitted
// it first (then the cached copy wins). ra marks a speculative readahead
// admission. New pages enter the old sublist (admitLocked).
func (bp *BufferPool) admit(key pageKey, data []byte, m *cost.Meter, ra bool) []byte {
	sh := bp.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[key]; ok {
		if !ra {
			sh.sublist(f).moveToFront(f)
		}
		return bp.handOut(f)
	}
	return bp.handOut(bp.admitLocked(sh, key, data, m, ra))
}

// admitLocked inserts a fresh frame, evicting as needed. Caller holds
// sh.mu and has verified the key is absent. The new page takes over the
// struct of the frame it evicted — only its image is new, and an image
// handed out before stays the reader's — so a miss allocates a frame only
// while the shard is filling.
//
// The disk image is re-read under the shard lock: copy-on-write publishes
// a page's new version while holding this same lock, so a slice read
// before the frame was evicted could be stale by the time it is
// re-admitted — the re-read always installs the current version, together
// with its shared bit: a reader may still hold the image from before the
// eviction. (An image the disk no longer has — the file was dropped — is
// taken as shared.)
func (bp *BufferPool) admitLocked(sh *poolShard, key pageKey, data []byte, m *cost.Meter, ra bool) *frame {
	shared := true
	if cur, s, err := bp.disk.image(key.file, key.page); err == nil {
		data, shared = cur, s
	}
	var f *frame
	for len(sh.frames) >= sh.capacity {
		vf := sh.old.back()
		if vf == nil {
			vf = sh.young.back()
		}
		if vf.dirty {
			bp.writeBack(bp.wal.Load(), vf, m)
		}
		sh.remove(vf)
		f = vf
	}
	if f == nil {
		f = new(frame)
	}
	*f = frame{key: key, data: data, ra: ra, shared: shared}
	sh.old.pushFront(f)
	sh.oldLen.Add(1)
	sh.frames[key] = f
	return f
}

// Mutate runs fn on the page's current bytes under the frame lock, with
// copy-on-write isolation from readers: an image that was ever handed to
// a reader (Get, ScanRun.Get) is never written in place, whether or not
// its frame stayed resident in between — the writer copies the page,
// mutates the copy, and publishes it as the new current version in both
// the frame and the disk array. Readers that already hold the old slice,
// and every CHAR value decoded from it, keep a consistent immutable
// snapshot of the page as it was before the write.
//
// fn reports whether it modified the bytes (a probe of a full heap page
// mutates nothing) and may return an error, which is passed through; the
// page is marked dirty only after a reported mutation. Meter charges are
// exactly those of Get: a resident page is a free hit, a fault charges
// sequential or random read against the global per-file cursor.
func (bp *BufferPool) Mutate(file FileID, page PageID, m *cost.Meter, fn func(data []byte) (bool, error)) error {
	key := pageKey{file, page}
	sh := bp.shard(key)
	sh.mu.Lock()
	if f, ok := sh.frames[key]; ok {
		sh.registerHit(f)
		err := sh.mutateLocked(bp, f, fn)
		sh.mu.Unlock()
		bp.seqMu.Lock()
		bp.lastRead[file] = page
		bp.seqMu.Unlock()
		return err
	}
	sh.misses.Add(1)
	sh.mu.Unlock()
	// Fault the page in with Get's charging rules, then admit and mutate
	// under one critical section (a racing admission just wins the frame).
	bp.seqMu.Lock()
	last, ok := bp.lastRead[file]
	bp.lastRead[file] = page
	bp.seqMu.Unlock()
	data, err := bp.disk.readPage(file, page)
	if err != nil {
		return err
	}
	if m != nil {
		if ok && page == last+1 {
			m.Charge(cost.SeqRead, 1)
		} else {
			m.Charge(cost.RandRead, 1)
		}
	}
	sh.mu.Lock()
	f, resident := sh.frames[key]
	if !resident {
		f = bp.admitLocked(sh, key, data, m, false)
	}
	err = sh.mutateLocked(bp, f, fn)
	sh.mu.Unlock()
	return err
}

// mutateLocked applies fn to the frame with copy-on-write against shared
// readers. Caller holds sh.mu.
func (sh *poolShard) mutateLocked(bp *BufferPool, f *frame, fn func(data []byte) (bool, error)) error {
	if f.shared {
		cp := make([]byte, len(f.data))
		copy(cp, f.data)
		f.data = cp
		f.shared = false
		bp.disk.writePage(f.key.file, f.key.page, cp, false)
	}
	wrote, err := fn(f.data)
	if wrote {
		f.dirty = true
	}
	return err
}

// FlushFile charges write-back for every dirty cached page of the file and
// marks them clean. Used at commit points.
func (bp *BufferPool) FlushFile(file FileID, m *cost.Meter) {
	w := bp.wal.Load()
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.key.file == file && f.dirty {
				bp.writeBack(w, f, m)
			}
		}
		sh.mu.Unlock()
	}
}

// FlushAll charges write-back for every dirty cached page.
func (bp *BufferPool) FlushAll(m *cost.Meter) {
	w := bp.wal.Load()
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				bp.writeBack(w, f, m)
			}
		}
		sh.mu.Unlock()
	}
}

// DropFile evicts all cached pages of the file without write-back.
func (bp *BufferPool) DropFile(file FileID) {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for key, f := range sh.frames {
			if key.file == file {
				sh.remove(f)
			}
		}
		sh.mu.Unlock()
	}
	bp.seqMu.Lock()
	delete(bp.lastRead, file)
	bp.seqMu.Unlock()
}
