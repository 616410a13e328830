// Package btree implements the B+-tree used for all engine indexes.
//
// Keys are order-preserving byte strings (internal/val key encoding) and
// payloads are heap record IDs. Nodes live in memory, but the tree models
// its on-disk footprint — entry bytes, fill factor, entries per leaf — so
// index sizes (the paper's Table 2) and index-scan I/O (the paper's
// Table 6) are charged realistically: one random read per probe, one
// sequential read per additional leaf crossed by a range scan, and one
// leaf write per leaf-switch during maintenance.
//
// Non-unique trees keep a total order by storing composite entry keys:
// the logical key followed by a 6-byte RID suffix. Unique trees store the
// logical key alone.
//
// A node keeps its entries in a pointer-free array of fixed records in key
// order and their key bytes in one append-only slab. Bytes once written to
// a slab are never written again: an insert appends, a delete drops only
// the record, and a split or a growth copies the live keys into a fresh
// slab. So a key an Iterator hands out stays as it was after any later
// write, and a write allocates only when a node splits or grows.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/storage"
)

// fanout is the in-memory node order (entry count per node).
const fanout = 64

// fillFactor models the average page utilisation of the on-disk tree.
const fillFactor = 0.67

// ridBytes is the modelled (and composite-suffix) size of one RID.
const ridBytes = 6

type node struct {
	leaf     bool
	ents     []entry // entries (leaf) or separators (internal), in key order
	slab     []byte  // their key bytes, append-only
	children []*node
	next     *node // leaf chain
	// lruPrev and lruNext link a resident leaf into its PageCache's LRU
	// ring; both are nil while the leaf is not resident.
	lruPrev, lruNext *node
}

// entry locates one key in its node's slab and carries the entry's RID
// (zero for a separator), flattened so the record has no padding.
type entry struct {
	off  uint32 // first key byte in the slab
	page storage.PageID
	klen uint16
	slot uint16
}

// key returns entry i's key, a view of the slab cut so that an append to
// it cannot write into the slab.
func (n *node) key(i int) []byte {
	e := &n.ents[i]
	end := e.off + uint32(e.klen)
	return n.slab[e.off:end:end]
}

// rid returns entry i's RID.
func (n *node) rid(i int) storage.RID {
	return storage.RID{Page: n.ents[i].page, Slot: n.ents[i].slot}
}

// room is how many entries a node of k entries makes room for when it
// moves to a fresh entry array and slab: half as many again, but never
// past the fanout+1 a node holds before it splits.
func room(k int) int { return max(1, min(max(k/2, 4), fanout+1-k)) }

// insert puts (ek, rid) at position i. The key goes to the end of the slab;
// a slab the node leaves is left to the views cut from it. A full entry
// array moves the node to a fresh array and slab. A slab full before its
// array was filled by the dead keys of deletes — the node churns — so its
// fresh slab has room for as many keys again as the node holds: churn
// copies a live key once per that many inserts.
func (n *node) insert(i int, ek []byte, rid storage.RID) {
	switch more := room(len(n.ents)); {
	case len(n.ents) == cap(n.ents):
		n.ents, n.slab = n.copyOut(0, len(n.ents), more, len(ek))
	case len(n.slab)+len(ek) > cap(n.slab):
		n.slab = n.pack(n.ents, max(more, len(n.ents)), len(ek))
	}
	off := len(n.slab)
	n.slab = append(n.slab, ek...)
	n.ents = slices.Insert(n.ents, i, entry{off: uint32(off), klen: uint16(len(ek)), page: rid.Page, slot: rid.Slot})
}

// copyOut returns entries lo..hi of n in a fresh entry array and slab with
// room for more entries (see pack).
func (n *node) copyOut(lo, hi, more, extra int) ([]entry, []byte) {
	ents := append(make([]entry, 0, hi-lo+more), n.ents[lo:hi]...)
	return ents, n.pack(ents, more, extra)
}

// pack copies the keys of ents, entries of n, into a fresh slab back to back
// in entry order, with room for more keys of their average length and extra
// bytes besides, and points ents at it.
func (n *node) pack(ents []entry, more, extra int) []byte {
	size := 0
	for _, e := range ents {
		size += int(e.klen)
	}
	slab := make([]byte, 0, size+extra+more*size/max(len(ents), 1))
	for i := range ents {
		e := &ents[i]
		off := len(slab)
		slab = append(slab, n.slab[e.off:e.off+uint32(e.klen)]...)
		e.off = uint32(off)
	}
	return slab
}

// Tree is a B+-tree index. Safe for concurrent readers xor one writer via
// an internal RWMutex.
type Tree struct {
	mu      sync.RWMutex
	root    *node
	unique  bool
	entries int64
	keyByte int64 // total logical key bytes, for size modelling
	// version counts structural changes (Insert, Delete, BulkBuild). An
	// Iterator holds the lock only inside Seek and Next; a version it has
	// not seen tells it that its leaf position may have shifted.
	version int64

	// lastLeaf models a one-leaf write cache for maintenance I/O: inserts
	// into the leaf we already hold are free, switching leaves charges.
	lastLeaf *node

	// cache, when set, models index-page residence in the database
	// buffer: probes of resident leaves charge nothing (see PageCache).
	// Nil — the default — charges every probe a full random read.
	cache *PageCache
}

// SetCache attaches a (usually shared) residence model for the tree's
// leaf pages; nil detaches it. Not safe to call concurrently with
// readers — wire it at index-creation time. A leaf links into one cache's
// LRU at a time, so a tree moving to another cache first calls
// ReleaseCache.
func (t *Tree) SetCache(c *PageCache) { t.cache = c }

// New returns an empty tree. If unique is true, Insert rejects duplicate
// keys.
func New(unique bool) *Tree {
	return &Tree{root: &node{leaf: true}, unique: unique}
}

// Entries returns the number of (key, rid) entries.
func (t *Tree) Entries() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// maxKey bounds a logical key's length: an entry record keeps the stored
// key's, RID suffix included, in 16 bits.
const maxKey = math.MaxUint16 - ridBytes

// appendEntryKey appends the stored key for (key, rid) to dst.
func (t *Tree) appendEntryKey(dst, key []byte, rid storage.RID) ([]byte, error) {
	if len(key) > maxKey {
		return nil, fmt.Errorf("btree: key of %d bytes exceeds the %d an index entry holds", len(key), maxKey)
	}
	dst = append(dst, key...)
	if !t.unique {
		dst = binary.BigEndian.AppendUint32(dst, uint32(rid.Page))
		dst = binary.BigEndian.AppendUint16(dst, rid.Slot)
	}
	return dst, nil
}

// probeKeySize is the stack buffer a write builds its entry key in; a
// longer key spills to the heap.
const probeKeySize = 128

// logicalKey strips the RID suffix from a stored entry key.
func (t *Tree) logicalKey(ek []byte) []byte {
	if t.unique {
		return ek
	}
	n := len(ek) - ridBytes
	return ek[:n:n]
}

// SizeBytes returns the modelled on-disk size of the index.
func (t *Tree) SizeBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.entries == 0 {
		return 0
	}
	raw := t.keyByte + t.entries*ridBytes
	leafBytes := int64(float64(raw)/fillFactor) + storage.PageSize
	// Internal levels add roughly 1/fanout of the leaf level.
	return leafBytes + leafBytes/fanout
}

// entriesPerLeaf returns the modelled number of entries per on-disk leaf.
func (t *Tree) entriesPerLeaf() int64 {
	if t.entries == 0 {
		return 1
	}
	avg := t.keyByte/t.entries + ridBytes
	per := int64(float64(storage.PageSize) * fillFactor / float64(avg))
	if per < 1 {
		per = 1
	}
	return per
}

// descend returns the leaf whose range contains ek.
func (t *Tree) descend(ek []byte) *node {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.ents), func(i int) bool {
			return bytes.Compare(n.key(i), ek) > 0
		})
		n = n.children[i]
	}
	return n
}

// Insert adds an entry. For unique trees an existing equal key is an error.
// The meter is charged for the probe and (amortised) leaf write. key is
// copied, never kept — the errors format a clone of it, so that it does not
// escape — and a caller may build it in a buffer on its stack.
func (t *Tree) Insert(key []byte, rid storage.RID, m *cost.Meter) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [probeKeySize]byte
	ek, err := t.appendEntryKey(buf[:0], key, rid)
	if err != nil {
		return err
	}
	leaf := t.descend(ek)
	i := sort.Search(len(leaf.ents), func(i int) bool {
		return bytes.Compare(leaf.key(i), ek) >= 0
	})
	if t.unique && i < len(leaf.ents) && bytes.Equal(leaf.key(i), ek) {
		return fmt.Errorf("btree: duplicate key %x", bytes.Clone(key))
	}
	t.version++
	if m != nil {
		if leaf != t.lastLeaf {
			m.Charge(cost.RandRead, 1)
			m.Charge(cost.PageWrite, 1)
			t.lastLeaf = leaf
		}
		m.Charge(cost.TupleCPU, 1)
	}
	leaf.insert(i, ek, rid)
	t.entries++
	t.keyByte += int64(len(key))
	t.splitPath(ek)
	return nil
}

// splitPath re-walks from the root splitting any overfull node on the
// descent path to ek. Only one leaf grew, so this restores invariants.
func (t *Tree) splitPath(ek []byte) {
	if len(t.root.ents) > fanout {
		left, sep, right := split(t.root, ek)
		t.root = &node{children: []*node{left, right}}
		t.root.insert(0, sep, storage.RID{})
	}
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.ents), func(i int) bool {
			return bytes.Compare(n.key(i), ek) > 0
		})
		c := n.children[i]
		if len(c.ents) > fanout {
			left, sep, right := split(c, ek)
			n.insert(i, sep, storage.RID{})
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i] = left
			n.children[i+1] = right
			if bytes.Compare(ek, sep) >= 0 {
				c = right
			} else {
				c = left
			}
		}
		n = c
	}
}

// split divides an overfull node in two and returns (left, separator,
// right). Both halves move to fresh entry arrays and slabs holding just
// their keys, and the half ek went to has room to grow — room for all the
// entries the half can take before it splits when ek is the node's last or
// first key, since ascending keys (an order number, a date) keep landing at
// the right edge and descending ones at the left. The separator is a view
// of the old slab, which the caller copies into the parent.
func split(n *node, ek []byte) (*node, []byte, *node) {
	mid := len(n.ents) / 2
	sep := n.key(mid)
	from := mid + 1 // an internal node's middle separator moves up alone
	if n.leaf {
		from = mid
	}
	leftMore, rightMore := 0, room(len(n.ents)-from)
	if bytes.Compare(ek, n.key(len(n.ents)-1)) >= 0 {
		rightMore = fanout + 1 - (len(n.ents) - from)
	} else if bytes.Compare(ek, sep) < 0 {
		leftMore, rightMore = room(mid), 0
		if bytes.Compare(ek, n.key(0)) <= 0 {
			leftMore = fanout + 1 - mid
		}
	}
	right := &node{leaf: n.leaf}
	right.ents, right.slab = n.copyOut(from, len(n.ents), rightMore, 0)
	n.ents, n.slab = n.copyOut(0, mid, leftMore, 0)
	if n.leaf {
		right.next = n.next
		n.next = right
	} else {
		right.children = append(right.children, n.children[from:]...)
		n.children = n.children[:from:from]
	}
	return n, sep, right
}

// BulkEntry is one (logical key, RID) pair for BulkBuild.
type BulkEntry struct {
	Key []byte
	RID storage.RID
}

// bulkLeafFill is the bottom-up build's target entries per leaf — the
// modelled fillFactor of the on-disk page, so a bulk-built tree has the
// same steady-state shape an insert-built tree converges to.
const bulkLeafFill = fanout * 67 / 100

// BulkBuild constructs the tree bottom-up from entries sorted by (key,
// RID): leaves are packed to the modelled fill factor straight off the
// sorted run and parents are stitched level by level — no per-key
// Insert descent. The meter is charged one sequential page write per
// node built plus per-entry CPU; sorting is the caller's cost. The tree
// must be empty, the input must be sorted, and unique trees reject
// duplicate keys.
func (t *Tree) BulkBuild(entries []BulkEntry, m *cost.Meter) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries != 0 {
		return fmt.Errorf("btree: bulk build into non-empty tree (%d entries)", t.entries)
	}
	if len(entries) == 0 {
		return nil
	}
	t.version++

	// Pack the leaf level off the sorted run, each leaf's slab sized to the
	// keys it takes.
	var leaves []*node
	var keyBytes int64
	newLeaf := func(lo int) *node {
		hi := min(lo+bulkLeafFill, len(entries))
		size := 0
		if !t.unique {
			size = (hi - lo) * ridBytes
		}
		for _, e := range entries[lo:hi] {
			size += len(e.Key)
		}
		return &node{leaf: true, ents: make([]entry, 0, hi-lo), slab: make([]byte, 0, size)}
	}
	cur := newLeaf(0)
	var prev []byte
	for i := range entries {
		if len(cur.ents) >= bulkLeafFill {
			leaves = append(leaves, cur)
			next := newLeaf(i)
			cur.next = next
			cur = next
		}
		off := len(cur.slab)
		var err error
		if cur.slab, err = t.appendEntryKey(cur.slab, entries[i].Key, entries[i].RID); err != nil {
			return err
		}
		cur.ents = append(cur.ents, entry{off: uint32(off), klen: uint16(len(cur.slab) - off), page: entries[i].RID.Page, slot: entries[i].RID.Slot})
		ek := cur.key(len(cur.ents) - 1)
		if prev != nil {
			switch c := bytes.Compare(prev, ek); {
			case c > 0:
				return fmt.Errorf("btree: bulk input not sorted at entry %d", i)
			case c == 0:
				return fmt.Errorf("btree: duplicate key %x in bulk input", entries[i].Key)
			}
		}
		prev = ek
		keyBytes += int64(len(entries[i].Key))
	}
	leaves = append(leaves, cur)
	if m != nil {
		m.Charge(cost.TupleCPU, int64(len(entries)))
		m.Charge(cost.PageWrite, int64(len(leaves)))
	}

	// Stitch parent levels until one root remains. The separator for a
	// right sibling is the smallest entry key in its subtree.
	level := leaves
	for len(level) > 1 {
		var parents []*node
		p := &node{}
		for _, child := range level {
			if len(p.children) >= bulkLeafFill {
				parents = append(parents, p)
				p = &node{}
			}
			if len(p.children) > 0 {
				p.insert(len(p.ents), firstKey(child), storage.RID{})
			}
			p.children = append(p.children, child)
		}
		parents = append(parents, p)
		if m != nil {
			m.Charge(cost.PageWrite, int64(len(parents)))
		}
		level = parents
	}
	t.root = level[0]
	t.entries = int64(len(entries))
	t.keyByte = keyBytes
	t.lastLeaf = nil
	return nil
}

// firstKey returns the smallest entry key in the subtree.
func firstKey(n *node) []byte {
	for !n.leaf {
		n = n.children[0]
	}
	return n.key(0)
}

// ReleaseCache eagerly removes the tree's leaves from the attached page
// cache — called when the index is dropped, so a dead tree's leaves
// stop occupying residence slots that live indexes could use.
func (t *Tree) ReleaseCache() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := t.cache
	if c == nil {
		return
	}
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		c.release(n)
	}
}

// Delete removes the entry (key, rid); missing entries are an error. Like
// Insert it keeps nothing of key.
func (t *Tree) Delete(key []byte, rid storage.RID, m *cost.Meter) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [probeKeySize]byte
	ek, err := t.appendEntryKey(buf[:0], key, rid)
	if err != nil {
		return err
	}
	leaf := t.descend(ek)
	i := sort.Search(len(leaf.ents), func(i int) bool {
		return bytes.Compare(leaf.key(i), ek) >= 0
	})
	if i >= len(leaf.ents) || !bytes.Equal(leaf.key(i), ek) {
		return fmt.Errorf("btree: delete of missing key %x", bytes.Clone(key))
	}
	if m != nil {
		if leaf != t.lastLeaf {
			m.Charge(cost.RandRead, 1)
			m.Charge(cost.PageWrite, 1)
			t.lastLeaf = leaf
		}
		m.Charge(cost.TupleCPU, 1)
	}
	t.version++
	leaf.ents = slices.Delete(leaf.ents, i, i+1)
	t.entries--
	t.keyByte -= int64(len(key))
	// Lazy deletion: underfull leaves are tolerated, as in many real
	// engines; the size model uses entry counts, not node counts. An empty
	// leaf is not: it leaves the tree.
	if len(leaf.ents) == 0 {
		t.dropEmptyLeaf(ek)
	}
	return nil
}

// dropEmptyLeaf takes the leaf on the descent path of ek, which Delete has
// just emptied, out of its parent and out of the leaf chain; a parent left
// without children goes the same way. Without it a run of deletes (the
// oldest orders of a stream, a dropped key range) leaves a stretch of
// empty leaves behind that every range scan ending there has to walk, one
// leaf per step, to find its next entry — a cost that grows with the
// deletes ever made. Nothing is charged: the meter models page accesses
// by entry counts, and a range scan crossing empty leaves was never
// charged for them. A dropped leaf still resident in the PageCache ages
// out of it like any page freed in a real buffer.
func (t *Tree) dropEmptyLeaf(ek []byte) {
	type hop struct {
		n *node
		i int // the child taken
	}
	var hops [16]hop // a tree of fanout 64 is never this deep
	path := hops[:0]
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.ents), func(i int) bool {
			return bytes.Compare(n.key(i), ek) > 0
		})
		path = append(path, hop{n, i})
		n = n.children[i]
	}
	if len(path) == 0 {
		return // the root leaf is the empty tree
	}
	// The leaf before n in the chain is the rightmost leaf under the
	// nearest left sibling on the path.
	for d := len(path) - 1; d >= 0; d-- {
		if h := path[d]; h.i > 0 {
			prev := h.n.children[h.i-1]
			for !prev.leaf {
				prev = prev.children[len(prev.children)-1]
			}
			prev.next = n.next
			break
		}
	}
	for d := len(path) - 1; d >= 0; d-- {
		p, i := path[d].n, path[d].i
		p.children = slices.Delete(p.children, i, i+1)
		if len(p.ents) > 0 {
			// Either neighbouring separator will do: the range given up
			// holds no entry.
			k := max(i-1, 0)
			p.ents = slices.Delete(p.ents, k, k+1)
		}
		if len(p.children) > 0 {
			return
		}
	}
	t.root = &node{leaf: true}
}

// Iterator walks entries in key order, charging range-scan I/O to its
// meter: the initial probe is a random read, each modelled leaf boundary
// crossed afterwards is a sequential read.
type Iterator struct {
	tree    *Tree
	leaf    *node
	idx     int
	m       *cost.Meter
	perLeaf int64
	seen    int64
	// version is the tree version leaf and idx are valid for; start and
	// last (the seek key and the last entry returned, nil before the first
	// Next) are what the position is rebuilt from after a concurrent write.
	version int64
	start   []byte
	last    []byte

	// Key (logical, without RID suffix) and RID are the current entry
	// after a true Next.
	Key []byte
	RID storage.RID
}

// Seek returns an iterator positioned before the first entry with logical
// key >= start (nil start means the beginning). The probe charges one
// random read. Seek inlines into its caller, so an iterator the caller
// keeps to itself lives on the caller's stack: an index probe allocates
// nothing.
func (t *Tree) Seek(start []byte, m *cost.Meter) *Iterator {
	it := &Iterator{}
	t.seek(it, start, m)
	return it
}

// seek positions it for Seek.
func (t *Tree) seek(it *Iterator, start []byte, m *cost.Meter) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	*it = Iterator{tree: t, m: m, perLeaf: t.entriesPerLeaf(), start: start}
	it.position()
	if m != nil && !(t.cache != nil && t.cache.touch(it.leaf, true)) {
		m.Charge(cost.RandRead, 1)
	}
}

// position places the iterator just before the entry Next must return:
// the first entry with logical key >= start, or — once entries have been
// returned — the first entry after the last one returned. The caller holds
// the tree lock.
func (it *Iterator) position() {
	t := it.tree
	// A logical prefix sorts <= any composite extension of it, so probing
	// with the raw prefix lands on the first matching composite entry.
	key, after := it.start, 0
	if it.last != nil {
		key, after = it.last, 1
	}
	n := t.descend(key)
	it.leaf = n
	it.idx = sort.Search(len(n.ents), func(i int) bool {
		return bytes.Compare(n.key(i), key) >= after
	}) - 1
	it.version = t.version
}

// Next advances to the next entry, returning false at the end.
func (it *Iterator) Next() bool {
	it.tree.mu.RLock()
	defer it.tree.mu.RUnlock()
	if it.version != it.tree.version {
		// A writer got in since the last call: entries may have shifted
		// within the leaf or moved to a split sibling.
		it.position()
	}
	it.idx++
	for it.leaf != nil && it.idx >= len(it.leaf.ents) {
		it.leaf = it.leaf.next
		it.idx = 0
	}
	if it.leaf == nil {
		return false
	}
	it.last = it.leaf.key(it.idx)
	it.Key = it.tree.logicalKey(it.last)
	it.RID = it.leaf.rid(it.idx)
	it.seen++
	if it.m != nil {
		it.m.Charge(cost.TupleCPU, 1)
		if it.seen%it.perLeaf == 0 {
			// Leaf boundary: resident leaves are free; non-resident ones
			// charge the sequential read and bypass admission so a long
			// index sweep cannot flush the hot probe set.
			if c := it.tree.cache; c == nil || !c.touch(it.leaf, false) {
				it.m.Charge(cost.SeqRead, 1)
			}
		}
	}
	return true
}
