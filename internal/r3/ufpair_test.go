package r3

import (
	"maps"
	"testing"

	"r3bench/internal/dbgen"
)

// TestUFPairKeepsHeapSizes is the RDBMS's UF-pair test
// (tpcd.TestUFPairKeepsHeapSizes) through 2.2G batch input: orders entered
// with EnterOrder and removed with DeleteOrder, as the SAP implementation's
// update functions do. From the second pair on no pair changes any table's
// page count; VBAP holds eleven rows a page and a pair enters more, so a
// heap that did not refill emptied pages would grow with every pair.
func TestUFPairKeepsHeapSizes(t *testing.T) {
	sys, g := installedSys(t, Release22)
	var sizes []map[string]int
	for pair := 1; pair <= 4; pair++ {
		b := sys.NewBatchInput(1)
		if err := g.UF1Orders(func(o *dbgen.Order) error { return b.EnterOrder(o) }); err != nil {
			t.Fatal(err)
		}
		for _, k := range g.UF2OrderKeys() {
			if err := b.DeleteOrder(k); err != nil {
				t.Fatal(err)
			}
		}
		pages := map[string]int{}
		for _, name := range sys.DB.TableNames() {
			pages[name] = sys.DB.Table(name).Heap.Pages()
		}
		sizes = append(sizes, pages)
	}
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
