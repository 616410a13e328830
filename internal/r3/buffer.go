package r3

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// TableBuffer is the application-server table cache of paper Section 2.3
// ("caching data in SAP R/3 application servers in order to avoid calls
// to the RDBMS altogether"). It caches full rows by primary key with LRU
// eviction under a byte budget. Cache coherency across servers is only
// periodic in real SAP R/3; this simulation has one server, so writes
// simply invalidate.
//
// Admission control keeps the buffer from thrashing when the working set
// outgrows the budget: once the buffer has evicted anything ("pressure"),
// a key is admitted only on its second miss within the current eviction
// epoch — one-shot keys park in a ghost list instead of displacing a
// resident row. Every epoch (a budget's worth of evictions) the ghost
// list resets and, unless the buffer was pinned via SetBufferedFixed,
// the budget doubles up to maxBytes: sustained eviction pressure is
// exactly the paper's signal that the cache is on the wrong side of the
// working-set knee, so the server grows it instead of thrashing forever.
type TableBuffer struct {
	mu            sync.Mutex
	table         string
	capBytes      int64
	maxBytes      int64 // auto-resize ceiling; 0 pins capBytes (fixed mode)
	rowBytes      int64 // modelled size of one cached row
	entries       map[string]*list.Element
	lru           *list.List
	ghost         map[string]int8 // per-epoch miss counts of non-resident keys
	epochEv       int64           // evictions in the current epoch
	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
	admRejects    int64
	scanBypass    int64
	resizes       int64
}

type bufEntry struct {
	key string
	row []val.Value
}

// defaultTableBufferCeiling bounds auto-resize: 8 MB mirrors a generously
// configured R/3 table-buffer pool relative to the 10 MB database buffer.
const defaultTableBufferCeiling = 8 << 20

// newTableBuffer builds a buffer for one table. maxBytes > capBytes
// allows eviction-pressure-driven growth; maxBytes = 0 pins the size.
func newTableBuffer(table string, capBytes, maxBytes, rowBytes int64) *TableBuffer {
	return &TableBuffer{
		table:    table,
		capBytes: capBytes,
		maxBytes: maxBytes,
		rowBytes: rowBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		ghost:    make(map[string]int8),
	}
}

// epochLen is the number of evictions that make up one eviction epoch:
// a full budget's worth of churn (with a floor so tiny buffers still get
// meaningful epochs).
func (b *TableBuffer) epochLen() int64 {
	n := b.capBytes / b.rowBytes
	if n < 256 {
		n = 256
	}
	return n
}

// rollEpoch ends an eviction epoch: the ghost list resets, and a buffer
// still under eviction pressure doubles its budget toward maxBytes —
// Undersized() feeding the resize is what moves MARA from the thrashing
// side of the paper's Table 8 to the ~3× side. Caller holds b.mu.
func (b *TableBuffer) rollEpoch() {
	b.epochEv = 0
	b.ghost = make(map[string]int8)
	if b.maxBytes > 0 && b.capBytes < b.maxBytes {
		b.capBytes *= 2
		if b.capBytes > b.maxBytes {
			b.capBytes = b.maxBytes
		}
		b.resizes++
	}
}

// lookup checks the buffer, charging the cache-management CPU the paper
// observes ("the overhead of cache management and the testing whether or
// not a required tuple was resident").
func (b *TableBuffer) lookup(key string, m *cost.Meter) ([]val.Value, bool) {
	m.Charge(cost.TupleCPU, 4) // hash, probe, LRU maintenance
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[key]; ok {
		b.hits++
		b.lru.MoveToFront(e)
		return e.Value.(*bufEntry).row, true
	}
	b.misses++
	return nil, false
}

// insert caches a row, evicting LRU entries past the byte budget. A key
// already resident refreshes its row and moves to the front of the LRU
// chain — re-caching is a touch, so a hot key must not keep an eviction
// position from its first insert.
//
// Under eviction pressure the insert is an admission request: the first
// miss of a key within an epoch only records it in the ghost list
// (admission reject); the second miss proves reuse and admits it. A
// buffer that has never evicted admits everything — the fits-in-budget
// case must behave exactly like the plain LRU of earlier releases.
func (b *TableBuffer) insert(key string, row []val.Value, m *cost.Meter) {
	m.Charge(cost.TupleCPU, 4)
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, dup := b.entries[key]; dup {
		e.Value.(*bufEntry).row = ownRow(row)
		b.lru.MoveToFront(e)
		return
	}
	if b.evictions > 0 {
		if b.ghost[key] < 1 {
			b.ghost[key]++
			b.admRejects++
			return
		}
		delete(b.ghost, key)
	}
	for int64(b.lru.Len()+1)*b.rowBytes > b.capBytes && b.lru.Len() > 0 {
		victim := b.lru.Back()
		delete(b.entries, victim.Value.(*bufEntry).key)
		b.lru.Remove(victim)
		b.evictions++
		b.epochEv++
		if b.epochEv >= b.epochLen() {
			b.rollEpoch()
		}
	}
	if b.rowBytes > b.capBytes {
		return // degenerate budget: nothing fits
	}
	b.entries[key] = b.lru.PushFront(&bufEntry{key: key, row: ownRow(row)})
}

// ownRow copies a row and gives its strings storage of their own, in one
// allocation: a buffered row outlives the statement that read it, and a view
// would pin its whole page image.
func ownRow(row []val.Value) []val.Value {
	cp := append([]val.Value(nil), row...)
	var chars val.Slab
	chars.Own(cp)
	return cp
}

// noteScanBypass records n rows delivered by a full-table (or partial-key)
// read that bypassed buffer insertion: the paper distinguishes
// single-record from full-table buffering, and letting scans pour a whole
// table through a single-record buffer would be self-inflicted thrash.
func (b *TableBuffer) noteScanBypass(n int64) {
	b.mu.Lock()
	b.scanBypass += n
	b.mu.Unlock()
}

// invalidate drops a key (writes through SAP invalidate the buffer).
func (b *TableBuffer) invalidate(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[key]; ok {
		delete(b.entries, key)
		b.lru.Remove(e)
		b.invalidations++
	}
}

// invalidatePrefix drops every resident key starting with prefix — the
// granularity available when one physical cluster row packs many logical
// rows.
func (b *TableBuffer) invalidatePrefix(prefix string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for key, e := range b.entries {
		if strings.HasPrefix(key, prefix) {
			delete(b.entries, key)
			b.lru.Remove(e)
			b.invalidations++
		}
	}
}

// invalidateAll empties the buffer (a write whose key cannot be mapped).
func (b *TableBuffer) invalidateAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidations += int64(b.lru.Len())
	b.entries = make(map[string]*list.Element)
	b.lru.Init()
}

// BufferStats is a snapshot of one table buffer's counters.
type BufferStats struct {
	Table            string
	Hits             int64
	Misses           int64
	Evictions        int64
	Invalidations    int64
	Resident         int64 // live bytes currently cached (entries × row size)
	AdmissionRejects int64 // inserts parked in the ghost list instead of admitted
	ScanBypass       int64 // rows delivered by scans without polluting the buffer
	Resizes          int64 // eviction-pressure-driven budget doublings
	CapBytes         int64 // current byte budget (after any auto-resize)
}

// Undersized reports whether the buffer spent more effort evicting than
// serving: more evictions than hits means the working set does not fit
// and the buffer is thrashing (the paper's Table 8 MARA pathology).
func (s BufferStats) Undersized() bool {
	return s.Evictions > s.Hits
}

// Stats snapshots the buffer's counters.
func (b *TableBuffer) Stats() BufferStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufferStats{
		Table:            b.table,
		Hits:             b.hits,
		Misses:           b.misses,
		Evictions:        b.evictions,
		Invalidations:    b.invalidations,
		Resident:         int64(b.lru.Len()) * b.rowBytes,
		AdmissionRejects: b.admRejects,
		ScanBypass:       b.scanBypass,
		Resizes:          b.resizes,
		CapBytes:         b.capBytes,
	}
}

// HitRatio reports the fraction of lookups served from the buffer.
func (b *TableBuffer) HitRatio() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := b.hits + b.misses
	if total == 0 {
		return 0
	}
	return float64(b.hits) / float64(total)
}

// SetBuffered enables application-server buffering for a table with the
// given byte budget (0 disables). Returns the buffer for stats access.
// The buffer is adaptive: sustained eviction pressure doubles the budget
// per epoch, up to defaultTableBufferCeiling (or capBytes, if larger).
func (sys *System) SetBuffered(table string, capBytes int64) *TableBuffer {
	return sys.setBuffered(table, capBytes, false)
}

// SetBufferedFixed enables buffering with a pinned byte budget: no
// auto-resize, so undersized-cache pathologies (the paper's Table 8
// thrashing sweep) stay reproducible on demand.
func (sys *System) SetBufferedFixed(table string, capBytes int64) *TableBuffer {
	return sys.setBuffered(table, capBytes, true)
}

func (sys *System) setBuffered(table string, capBytes int64, fixed bool) *TableBuffer {
	t := sys.Table(table)
	if t == nil {
		return nil
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if old := sys.buffers[t.Name]; old != nil {
		// Replacing or disabling: fold the counters into the retired
		// bucket so cumulative metrics survive the buffer itself.
		sys.retire(old.Stats())
		delete(sys.buffers, t.Name)
	}
	if capBytes <= 0 {
		return nil
	}
	var maxBytes int64
	if !fixed {
		maxBytes = max(defaultTableBufferCeiling, capBytes)
	}
	var rowBytes int64
	for _, col := range t.Cols {
		rowBytes += int64(col.Type.Width)
	}
	b := newTableBuffer(t.Name, capBytes, maxBytes, rowBytes)
	sys.buffers[t.Name] = b
	return b
}

// Buffer returns the active buffer for a table, or nil.
func (sys *System) Buffer(table string) *TableBuffer {
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	return sys.buffers[table]
}

// retire folds a disabled buffer's counters into the cumulative bucket.
// Caller holds sys.mu. Resident and CapBytes are dropped: a retired
// buffer caches nothing and budgets nothing.
func (sys *System) retire(st BufferStats) {
	acc := sys.retired[st.Table]
	acc.Table = st.Table
	acc.Hits += st.Hits
	acc.Misses += st.Misses
	acc.Evictions += st.Evictions
	acc.Invalidations += st.Invalidations
	acc.AdmissionRejects += st.AdmissionRejects
	acc.ScanBypass += st.ScanBypass
	acc.Resizes += st.Resizes
	sys.retired[st.Table] = acc
}

// BufferStatsAll snapshots every table buffer — live ones plus the
// accumulated counters of buffers that have since been disabled — sorted
// by table name for deterministic reporting.
func (sys *System) BufferStatsAll() []BufferStats {
	sys.mu.RLock()
	byTable := make(map[string]BufferStats, len(sys.buffers)+len(sys.retired))
	for name, acc := range sys.retired {
		byTable[name] = acc
	}
	bufs := make([]*TableBuffer, 0, len(sys.buffers))
	for _, b := range sys.buffers {
		bufs = append(bufs, b)
	}
	sys.mu.RUnlock()
	for _, b := range bufs {
		st := b.Stats()
		if acc, ok := byTable[st.Table]; ok {
			st.Hits += acc.Hits
			st.Misses += acc.Misses
			st.Evictions += acc.Evictions
			st.Invalidations += acc.Invalidations
			st.AdmissionRejects += acc.AdmissionRejects
			st.ScanBypass += acc.ScanBypass
			st.Resizes += acc.Resizes
		}
		byTable[st.Table] = st
	}
	out := make([]BufferStats, 0, len(byTable))
	for _, st := range byTable {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}
