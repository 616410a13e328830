package dbgen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r3bench/internal/dbgen"
)

// -update rewrites testdata/tbl_sha256.json from this run instead of
// comparing against it. Every size ratio the harness prints divides by
// WriteTbl's byte count, so re-record only for a change that is meant to
// move the generated population or its ASCII form.
var updateGolden = flag.Bool("update", false, "rewrite testdata/tbl_sha256.json from this run")

// goldenTbl is one recorded .tbl file.
type goldenTbl struct {
	SF     float64 `json:"sf"`
	Sorted bool    `json:"sorted"`
	File   string  `json:"file"`
	Bytes  int64   `json:"bytes"`
	SHA256 string  `json:"sha256"`
}

var tblFiles = []string{"region.tbl", "nation.tbl", "supplier.tbl", "part.tbl",
	"partsupp.tbl", "customer.tbl", "orders.tbl", "lineitem.tbl"}

// TestTblGolden pins the ASCII form of the population: the eight files of
// WriteTbl and of WriteTblSorted at two scale factors, to the byte, and the
// total each call returns.
func TestTblGolden(t *testing.T) {
	var got []goldenTbl
	for _, sf := range []float64{0.002, 0.01} {
		g := dbgen.New(sf)
		for _, sorted := range []bool{false, true} {
			dir := t.TempDir()
			write := g.WriteTbl
			if sorted {
				write = g.WriteTblSorted
			}
			total, err := write(dir)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, file := range tblFiles {
				data, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.Sum256(data)
				got = append(got, goldenTbl{SF: sf, Sorted: sorted, File: file,
					Bytes: int64(len(data)), SHA256: hex.EncodeToString(h[:])})
				sum += int64(len(data))
			}
			if total != sum {
				t.Errorf("sf=%g sorted=%v: returned %d bytes, files hold %d", sf, sorted, total, sum)
			}
		}
	}
	if *updateGolden {
		// One file per line, so a moved file is a one-line diff.
		lines := make([]string, len(got))
		for i, g := range got {
			b, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
		out := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
		if err := os.WriteFile("testdata/tbl_sha256.json", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("testdata/tbl_sha256.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenTbl
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wrote %d files, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %+v\nwant %+v", got[i], want[i])
		}
	}
}
