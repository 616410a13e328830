package btree

// PageCache models the residence of index pages in the database buffer.
// The in-memory tree never does real I/O, but without a residence model
// every probe pays a full random read — as if the buffer manager evicted
// each index page the moment the probe finished. A real 1996 engine keeps
// hot index leaves (and all upper levels) resident in the same buffer the
// data pages use, so repeated probes of a warm index are hits.
//
// One PageCache is shared by all of a database's trees, holding a
// capacity-bounded LRU of leaf nodes. A Seek probe whose leaf is resident
// charges nothing; a miss charges the usual random read and admits the
// leaf. Range scans check residence but never admit the leaves they cross
// (scan bypass), so one index sweep cannot flush the hot probe set — the
// same admission discipline the R/3 table buffer and the midpoint buffer
// pool apply to full scans (DESIGN.md §9). Internal levels are a
// fanout-th of the leaf level and are treated as always resident; only
// leaf touches are modelled.
//
// Capacity is given in bytes and converted to leaf nodes using the
// in-memory node footprint (fanout entries of cacheEntryBytes each), so
// the modelled resident set tracks the tree's actual granularity.
// Dropping an index calls Tree.ReleaseCache, which purges its leaves
// eagerly so a dead tree never occupies residence slots live indexes
// could use. The LRU is a ring through the leaves' own lruPrev/lruNext
// links, so a touch, an admission and an eviction allocate nothing.

import (
	"sync"
	"sync/atomic"
)

// cacheEntryBytes is the modelled per-entry footprint used to convert a
// byte budget into a leaf-node capacity: key bytes plus RID and
// bookkeeping overhead.
const cacheEntryBytes = 32

type PageCache struct {
	mu       sync.Mutex
	cap      int  // leaf nodes
	resident int  // leaf nodes in the ring
	ring     node // sentinel: ring.lruNext is the most recent leaf, ring.lruPrev the least

	hits   atomic.Int64
	misses atomic.Int64
	bypass atomic.Int64 // scan crossings of non-resident leaves
}

// NewPageCache returns a cache modelling capBytes of buffer given over to
// index leaf pages. A non-positive budget still caches one leaf.
func NewPageCache(capBytes int64) *PageCache {
	capNodes := int(capBytes / (fanout * cacheEntryBytes))
	if capNodes < 1 {
		capNodes = 1
	}
	c := &PageCache{cap: capNodes}
	c.ring.lruPrev, c.ring.lruNext = &c.ring, &c.ring
	return c
}

func (c *PageCache) pushFront(n *node) {
	n.lruPrev, n.lruNext = &c.ring, c.ring.lruNext
	n.lruNext.lruPrev, c.ring.lruNext = n, n
	c.resident++
}

func (c *PageCache) unlink(n *node) {
	n.lruPrev.lruNext, n.lruNext.lruPrev = n.lruNext, n.lruPrev
	n.lruPrev, n.lruNext = nil, nil
	c.resident--
}

// touch reports whether leaf n is resident, refreshing its LRU position.
// On a miss, admit controls whether the leaf enters the cache: probes
// admit, scan crossings bypass.
func (c *PageCache) touch(n *node, admit bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n.lruNext != nil {
		c.unlink(n)
		c.pushFront(n)
		c.hits.Add(1)
		return true
	}
	c.misses.Add(1)
	if !admit {
		c.bypass.Add(1)
		return false
	}
	for c.resident >= c.cap {
		c.unlink(c.ring.lruPrev)
	}
	c.pushFront(n)
	return false
}

// release evicts leaf n if resident — Tree.ReleaseCache uses it to
// purge a dropped tree's leaves instead of letting them age out.
func (c *PageCache) release(n *node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n.lruNext != nil {
		c.unlink(n)
	}
}

// PageCacheStats is a snapshot of the cache counters.
type PageCacheStats struct {
	Hits       int64 // probes and crossings of resident leaves (no I/O charged)
	Misses     int64 // non-resident touches (charged as before)
	ScanBypass int64 // of the misses, scan crossings that did not admit
	Resident   int   // leaf nodes currently cached
	Capacity   int   // leaf-node capacity
}

// Stats snapshots the counters.
func (c *PageCache) Stats() PageCacheStats {
	c.mu.Lock()
	resident := c.resident
	c.mu.Unlock()
	return PageCacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		ScanBypass: c.bypass.Load(),
		Resident:   resident,
		Capacity:   c.cap,
	}
}

// HitRatio returns hits / (hits + misses), or 0 before any touch.
func (c *PageCache) HitRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
