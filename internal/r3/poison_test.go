package r3

import (
	"os"
	"testing"

	"r3bench/internal/val"
)

// TestMain runs the package's tests with every row a fetch-stack pop releases
// overwritten (FetchPoison): code that reads an Open SQL row after its
// callback returned reads a sentinel, not the row.
func TestMain(m *testing.M) {
	FetchPoison = func(row []val.Value) {
		for i := range row {
			row[i] = val.Str("\x00fetch-poison")
		}
	}
	os.Exit(m.Run())
}
