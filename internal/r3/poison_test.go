package r3

import (
	"os"
	"testing"

	"r3bench/internal/val"
)

// TestMain runs the package's tests with every value a chunk list releases
// checked cleared and overwritten (val.Poison) — the fetch stack's popped
// rows, a scan's decode row, the engine's statement memory: code that reads
// an Open SQL row after its callback returned reads a sentinel, not the row.
func TestMain(m *testing.M) {
	val.Poison = func(released any) {
		if vals, ok := released.(*[]val.Value); ok {
			for i := range *vals {
				if (*vals)[i] != (val.Value{}) {
					panic("a chunk list released values without clearing them")
				}
				(*vals)[i] = val.Str("\x00poison")
			}
		}
	}
	os.Exit(m.Run())
}
