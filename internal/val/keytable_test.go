package val

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"testing"

	"r3bench/internal/race"
)

// keyModel is the reference a KeyTable is checked against: a Go map from
// key to entry, and the keys in the order they were first inserted.
type keyModel struct {
	entry map[string]int32
	order []string
}

// insert puts key into table and model and compares what they answer.
func (m *keyModel) insert(t *testing.T, tab *KeyTable, key []byte) {
	t.Helper()
	want, dup := m.entry[string(key)]
	if !dup {
		want = int32(len(m.order))
		m.entry[string(key)] = want
		m.order = append(m.order, string(key))
	}
	if e, isNew := tab.Insert(key); e != want || isNew == dup {
		t.Fatalf("Insert(%.20x…, %d bytes) = %d, %v; want %d, %v", key, len(key), e, isNew, want, !dup)
	}
}

// check compares every answer the table can give with the model's.
func (m *keyModel) check(t *testing.T, tab *KeyTable) {
	t.Helper()
	if tab.Len() != len(m.order) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(m.order))
	}
	for e, key := range m.order {
		if got := tab.Key(int32(e)); string(got) != key {
			t.Fatalf("Key(%d) = %.20x… (%d bytes), want %.20x… (%d bytes)", e, got, len(got), key, len(key))
		}
		if got := tab.Find([]byte(key)); got != int32(e) {
			t.Fatalf("Find(Key(%d)) = %d", e, got)
		}
	}
}

// randomKey draws from a small space (heavy duplication), from longer keys
// full of 0x00 bytes, and now and then from keys that share all but their
// last byte.
func randomKey(r *rand.Rand) []byte {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1, 2:
		key := make([]byte, r.Intn(40))
		for i := range key {
			key[i] = byte(r.Intn(3)) // 0x00 in most positions
		}
		return key
	case 3:
		return append(bytes.Repeat([]byte{0xAB}, 300), byte(r.Intn(256)))
	default:
		return AppendKey(AppendKey(nil, Int(int64(r.Intn(30000)))), Str("k"))
	}
}

// TestKeyTableAgainstMapModel drives 10⁵ random inserts and finds, and then
// the merge of three lane tables, against a map: entries number the keys in
// first-seen order whatever the seed, through every growth of the slots and
// across slab chunks.
func TestKeyTableAgainstMapModel(t *testing.T) {
	defer func() { KeySeedHook = nil }()
	KeySeedHook = maphash.MakeSeed // every table its own seed
	r := rand.New(rand.NewSource(42))
	var tab KeyTable
	m := keyModel{entry: map[string]int32{}}
	if tab.Find(nil) != -1 || tab.Len() != 0 {
		t.Fatal("the zero table is not empty")
	}
	grown, slots := 0, 0
	huge := bytes.Repeat([]byte{0x00, 0xFF}, keyChunkMax) // longer than any chunk
	for step := 0; step < 100000; step++ {
		key := randomKey(r)
		switch {
		case step == 50000 || step == 50002:
			key = huge
		case step == 50001:
			key = nil // the empty key behind a full chunk
		}
		if r.Intn(3) == 0 {
			want, ok := m.entry[string(key)]
			if !ok {
				want = -1
			}
			if got := tab.Find(key); got != want {
				t.Fatalf("step %d: Find = %d, want %d", step, got, want)
			}
			continue
		}
		m.insert(t, &tab, key)
		if len(tab.slots) != slots {
			grown, slots = grown+1, len(tab.slots)
		}
		if 4*tab.Len() > 3*len(tab.slots) {
			t.Fatalf("step %d: %d keys in %d slots", step, tab.Len(), len(tab.slots))
		}
	}
	m.check(t, &tab)
	if grown < 10 || len(tab.chunks) < 4 {
		t.Fatalf("the slots grew %d times over %d chunks: the test does not reach what it is for", grown, len(tab.chunks))
	}

	// Two keys whose stored hashes are equal (found by search: the birthday
	// bound of 32 bits is some 80 000 keys) are still two keys.
	seed := maphash.MakeSeed()
	KeySeedHook = func() maphash.Seed { return seed }
	var twins KeyTable
	tm := keyModel{entry: map[string]int32{}}
	byHash := map[uint32]int64{}
	for i := int64(0); tm.order == nil; i++ {
		key := AppendKey(nil, Int(i))
		h := uint32(maphash.Bytes(seed, key))
		if j, ok := byHash[h]; ok {
			tm.insert(t, &twins, AppendKey(nil, Int(j)))
			tm.insert(t, &twins, key)
		}
		byHash[h] = i
	}
	tm.check(t, &twins)
	KeySeedHook = maphash.MakeSeed

	// Lanes: each fills a table of its own; merged in lane order the keys
	// number as if one table had seen the lanes' inserts one after another.
	merged := keyModel{entry: map[string]int32{}}
	var into KeyTable
	for lane := 0; lane < 3; lane++ {
		var lt KeyTable
		lm := keyModel{entry: map[string]int32{}}
		for i := 0; i < 5000; i++ {
			lm.insert(t, &lt, randomKey(r))
		}
		lm.check(t, &lt)
		for e := 0; e < lt.Len(); e++ {
			merged.insert(t, &into, lt.Key(int32(e)))
		}
	}
	merged.check(t, &into)
}

// TestKeyTableReset: a table emptied by Reset answers like a new one — for
// keys it held before and for keys it never saw, through growth past its
// old size and a key longer than any chunk — and refilled with as many keys
// of the same sizes as before it allocates nothing.
func TestKeyTableReset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draw := func(n int) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = randomKey(r)
		}
		return keys
	}
	first, second := draw(3000), draw(6000)
	second[4000] = bytes.Repeat([]byte{0x01}, keyChunkMax+1)
	var tab KeyTable
	for _, keys := range [][][]byte{first, second, first} {
		tab.Reset()
		m := keyModel{entry: map[string]int32{}}
		for _, key := range keys {
			m.insert(t, &tab, key)
		}
		m.check(t, &tab)
	}
	refill := func() {
		tab.Reset()
		for _, key := range first {
			tab.Insert(key)
		}
	}
	refill()
	if n := testing.AllocsPerRun(10, refill); !race.Enabled && n != 0 {
		t.Errorf("a refill after Reset allocates %.0f times", n)
	}
}

// FuzzKeyTable splits its input into keys — a length byte, then that many
// bytes — and inserts each twice, against the map model.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 0, 0})
	f.Add(append([]byte{255}, bytes.Repeat([]byte{7}, 255)...))
	f.Add(AppendKey(AppendKey([]byte{21}, Int(7)), Str("x\x00y")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab KeyTable
		m := keyModel{entry: map[string]int32{}}
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			key := data[1 : 1+n]
			data = data[1+n:]
			m.insert(t, &tab, key)
			m.insert(t, &tab, key)
		}
		m.check(t, &tab)
	})
}
