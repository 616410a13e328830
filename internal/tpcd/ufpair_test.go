package tpcd

import (
	"maps"
	"testing"

	"r3bench/internal/engine"
)

// TestUFPairKeepsHeapSizes holds the heap to the comment on
// dbgen.UF2OrderKeys: a UF1+UF2 pair leaves the database as it found it,
// so from the second pair on no pair changes any table's page count. The
// second pair may add one page to a table: the first UF1 began in the last
// loaded page, which keeps its rows and so is never refilled, and its rows
// may need a page more than the pages the first UF2 emptied. Seven pairs
// insert more LINEITEM rows after the second than a page holds, so a heap
// that did not refill emptied pages would have to grow.
func TestUFPairKeepsHeapSizes(t *testing.T) {
	db, g := loadedDB(t)
	impl := NewRDBMS(db, g)
	var sizes []map[string]int
	for pair := 1; pair <= 7; pair++ {
		if err := impl.RunUF1(); err != nil {
			t.Fatal(err)
		}
		if err := impl.RunUF2(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, heapPages(db))
	}
	checkPairSizes(t, sizes)
}

// heapPages returns every table's heap size in pages.
func heapPages(db *engine.DB) map[string]int {
	out := map[string]int{}
	for _, name := range db.TableNames() {
		out[name] = db.Table(name).Heap.Pages()
	}
	return out
}

// checkPairSizes checks the page counts taken after each pair.
func checkPairSizes(t *testing.T, sizes []map[string]int) {
	t.Helper()
	for name, n := range sizes[1] {
		if n > sizes[0][name]+1 {
			t.Errorf("%s: the second pair grew the heap from %d to %d pages", name, sizes[0][name], n)
		}
	}
	for i := 2; i < len(sizes); i++ {
		if !maps.Equal(sizes[i], sizes[1]) {
			t.Errorf("pair %d changed the heap sizes from %v to %v", i+1, sizes[1], sizes[i])
		}
	}
}
