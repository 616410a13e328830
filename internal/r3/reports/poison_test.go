package reports

import (
	"os"
	"testing"

	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// TestMain runs the package's tests with every row a fetch-stack pop releases
// overwritten (r3.FetchPoison): code that reads an Open SQL row after its
// callback returned reads a sentinel, and its answer, charges or
// fingerprint no longer match.
func TestMain(m *testing.M) {
	r3.FetchPoison = func(row []val.Value) {
		for i := range row {
			row[i] = val.Str("\x00fetch-poison")
		}
	}
	os.Exit(m.Run())
}
