package btree

import (
	"math/rand"
	"slices"
	"testing"

	"r3bench/internal/race"
)

// leavesOf returns the tree's leaves in chain order.
func leavesOf(tr *Tree) []*node {
	n := tr.root
	for !n.leaf {
		n = n.children[0]
	}
	var leaves []*node
	for ; n != nil; n = n.next {
		leaves = append(leaves, n)
	}
	return leaves
}

// lruModel is the cache's policy written out on a slice, most recently
// used first.
type lruModel struct {
	cap                    int
	order                  []*node
	hits, misses, bypasses int64
}

func (m *lruModel) touch(n *node, admit bool) bool {
	if i := slices.Index(m.order, n); i >= 0 {
		m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, n)
		m.hits++
		return true
	}
	m.misses++
	if !admit {
		m.bypasses++
		return false
	}
	if len(m.order) >= m.cap {
		m.order = m.order[:m.cap-1]
	}
	m.order = slices.Insert(m.order, 0, n)
	return false
}

func (m *lruModel) release(n *node) {
	if i := slices.Index(m.order, n); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// TestPageCacheAgainstModel runs random probes (admitting), scan crossings
// (bypassing) and releases over the leaves of two trees sharing one cache
// and holds the cache to the LRU model after every call: the same answer,
// the same counters and the same resident leaves in the same order.
func TestPageCacheAgainstModel(t *testing.T) {
	trees := []*Tree{New(true), New(false)}
	for i := 0; i < 3000; i++ {
		for _, tr := range trees {
			if err := tr.Insert(key(i), rid(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var leaves []*node
	for _, tr := range trees {
		leaves = append(leaves, leavesOf(tr)...)
	}
	for _, capLeaves := range []int{1, 3, 16} {
		c := NewPageCache(int64(capLeaves * fanout * cacheEntryBytes))
		for _, tr := range trees {
			tr.SetCache(c)
		}
		m := &lruModel{cap: capLeaves}
		r := rand.New(rand.NewSource(int64(capLeaves)))
		for step := 0; step < 5000; step++ {
			// A few hot leaves make hits common.
			n := leaves[r.Intn(len(leaves))]
			if r.Intn(2) == 0 {
				n = leaves[r.Intn(2*capLeaves)]
			}
			switch op := r.Intn(10); {
			case op < 6:
				if got, want := c.touch(n, true), m.touch(n, true); got != want {
					t.Fatalf("cap %d step %d: probe hit %v, model %v", capLeaves, step, got, want)
				}
			case op < 9:
				if got, want := c.touch(n, false), m.touch(n, false); got != want {
					t.Fatalf("cap %d step %d: crossing hit %v, model %v", capLeaves, step, got, want)
				}
			default:
				c.release(n)
				m.release(n)
			}
			st := c.Stats()
			if st.Hits != m.hits || st.Misses != m.misses || st.ScanBypass != m.bypasses ||
				st.Resident != len(m.order) || st.Capacity != capLeaves {
				t.Fatalf("cap %d step %d: stats %+v, model %d hits %d misses %d bypasses %d resident",
					capLeaves, step, st, m.hits, m.misses, m.bypasses, len(m.order))
			}
			if got := residentOrder(c); !slices.Equal(got, m.order) {
				t.Fatalf("cap %d step %d: resident order differs from the model's", capLeaves, step)
			}
		}
		for _, tr := range trees {
			tr.ReleaseCache()
		}
		if st := c.Stats(); st.Resident != 0 {
			t.Fatalf("cap %d: %d leaves resident after both trees released theirs", capLeaves, st.Resident)
		}
	}
}

// TestPageCacheTouchAllocatesNothing: admitting a leaf into a full cache
// evicts the least recently used one and allocates nothing.
func TestPageCacheTouchAllocatesNothing(t *testing.T) {
	tr := New(true)
	for i := 0; i < 20000; i++ {
		if err := tr.Insert(key(i), rid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leavesOf(tr)
	c := NewPageCache(4 * fanout * cacheEntryBytes)
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		c.touch(leaves[i%len(leaves)], true)
		i++
	})
	if st := c.Stats(); st.Resident != 4 || st.Hits != 0 {
		t.Fatalf("stats %+v: want a full cache of 4 leaves and every touch a miss", st)
	}
	if !race.Enabled && n != 0 {
		t.Errorf("an admission into a full cache allocates %.2f times", n)
	}
}

// residentOrder lists the cache's leaves, most recently used first.
func residentOrder(c *PageCache) []*node {
	var order []*node
	for n := c.ring.lruNext; n != &c.ring; n = n.lruNext {
		order = append(order, n)
	}
	return order
}
