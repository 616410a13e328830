package val

import (
	"bytes"
	"hash/maphash"
)

// KeyTable numbers distinct encoded keys (AppendKey bytes) 0, 1, 2, … in the
// order they were first inserted: the hash join's build keys, GROUP BY's
// groups, a DISTINCT set. It is an open-addressing table — slot → entry →
// key bytes — and what a caller keeps per key it keeps in slices of its own,
// indexed by entry, so nothing observable follows slot order.
//
// The table owns its keys: Insert copies the bytes into a slab, because a
// key outlives the buffer it was encoded in (and the page image a CHAR in it
// was a view of). The slab is chunked — a chunk is never copied when the
// table grows — and a distinct key costs no allocation of its own (bytes
// addressed by offset, not a Chunks). The zero KeyTable is ready to use.
type KeyTable struct {
	seed   maphash.Seed
	slots  []int32    // entry+1, 0 = free; power-of-two long, at most 3/4 full
	ents   []keyEntry // made with the slots, with room for as many as they may hold
	chunks [][]byte   // the slab; the last chunk takes the next key
}

// keyEntry locates one key in the slab: keys lie back to back in entry
// order, so a key ends where the next entry's begins, or with its chunk.
type keyEntry struct {
	// hash is the low half of the key's hash: it places the entry when the
	// slots are rebuilt and spares most probes the comparison of the bytes.
	hash uint32
	loc  uint32 // chunk<<keyOffBits | offset of the key's first byte
}

// A table's first slab chunk has keyChunkMin bytes, each later one twice the
// one before up to keyChunkMax, the reach of an offset; a key longer than
// that gets a chunk of its own.
const (
	keyChunkMin = 64
	keyOffBits  = 16
	keyChunkMax = 1 << keyOffBits
)

// keySeed seeds every table of the process.
var keySeed = maphash.MakeSeed()

// KeySeedHook is nil outside tests. A test sets it to seed the tables made
// from then on differently, to show that no result, emitted order or charge
// depends on where a key hashes.
var KeySeedHook func() maphash.Seed

// Reset empties the table and keeps its slots, entries and slab chunks for
// the keys inserted next, so that a table refilled with as many keys
// allocates nothing. The keys Key returned before are overwritten.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.ents = t.ents[:0]
	for i := range t.chunks {
		t.chunks[i] = t.chunks[i][:0]
	}
	t.chunks = t.chunks[:min(len(t.chunks), 1)]
}

// Len returns the number of distinct keys inserted.
func (t *KeyTable) Len() int { return len(t.ents) }

// Key returns entry e's key. The bytes belong to the table.
func (t *KeyTable) Key(e int32) []byte {
	loc := t.ents[e].loc
	chunk := t.chunks[loc>>keyOffBits]
	end := uint32(len(chunk))
	if int(e)+1 < len(t.ents) && t.ents[e+1].loc>>keyOffBits == loc>>keyOffBits {
		end = t.ents[e+1].loc % keyChunkMax
	}
	return chunk[loc%keyChunkMax : end]
}

// Find returns key's entry, -1 when it was never inserted.
func (t *KeyTable) Find(key []byte) int32 {
	if len(t.ents) == 0 {
		return -1
	}
	e, _, _ := t.probe(key)
	return e
}

// Insert returns key's entry, adding it as the next one — isNew — when the
// table did not hold it.
func (t *KeyTable) Insert(key []byte) (e int32, isNew bool) {
	if len(t.ents) == cap(t.ents) {
		// Full: make room, unless the table holds the key.
		if e = t.Find(key); e >= 0 {
			return e, false
		}
		t.grow()
	}
	e, slot, hash := t.probe(key)
	if e >= 0 {
		return e, false
	}
	e = int32(len(t.ents))
	t.slots[slot] = e + 1
	t.ents = append(t.ents, keyEntry{hash: hash, loc: t.store(key)})
	return e, true
}

// probe walks key's probe sequence to its entry, or to the free slot that
// would take it (e = -1).
func (t *KeyTable) probe(key []byte) (e int32, slot, hash uint32) {
	hash = uint32(maphash.Bytes(t.seed, key))
	mask := uint32(len(t.slots) - 1)
	for slot = hash & mask; t.slots[slot] != 0; slot = (slot + 1) & mask {
		e = t.slots[slot] - 1
		if t.ents[e].hash == hash && bytes.Equal(t.Key(e), key) {
			return e, slot, hash
		}
	}
	return -1, slot, hash
}

// grow doubles the slots (the first time: seeds the table and makes eight),
// places every entry again by its stored hash and moves the entries to an
// array three quarters as long.
func (t *KeyTable) grow() {
	if t.slots == nil {
		t.seed = keySeed
		if KeySeedHook != nil {
			t.seed = KeySeedHook()
		}
	}
	t.slots = make([]int32, max(8, 2*len(t.slots)))
	t.ents = append(make([]keyEntry, 0, len(t.slots)/4*3), t.ents...)
	mask := uint32(len(t.slots) - 1)
	for e := range t.ents {
		slot := t.ents[e].hash & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = int32(e) + 1
	}
}

// store copies key to the end of the slab and returns where it lies,
// starting a chunk when the last one has no room for it or no offset left.
func (t *KeyTable) store(key []byte) (loc uint32) {
	c := len(t.chunks) - 1
	if c < 0 || len(key) > cap(t.chunks[c])-len(t.chunks[c]) || len(t.chunks[c]) >= keyChunkMax {
		size := keyChunkMin
		if c >= 0 {
			size = min(2*cap(t.chunks[c]), keyChunkMax)
		}
		if c++; c >= 1<<(32-keyOffBits) {
			panic("val: a KeyTable holds at most 4 GiB of keys")
		}
		if c < cap(t.chunks) && cap(t.chunks[:c+1][c]) >= max(size, len(key)) {
			t.chunks = t.chunks[:c+1] // a chunk Reset kept, emptied
		} else {
			t.chunks = append(t.chunks, make([]byte, 0, max(size, len(key))))
		}
	}
	loc = uint32(c)<<keyOffBits | uint32(len(t.chunks[c]))
	t.chunks[c] = append(t.chunks[c], key...)
	return loc
}
