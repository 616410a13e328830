package warehouse

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
)

// TestExtractAllRoundTrips: the extraction reports reconstruct the
// generator's ASCII files from the SAP database to the byte — on Release
// 2.2 with KONV read as a cluster, and on 3.0 after the conversion to a
// transparent table.
func TestExtractAllRoundTrips(t *testing.T) {
	g := dbgen.New(0.002)
	// Reference ASCII files straight from the generator.
	refDir := t.TempDir()
	if _, err := g.WriteTbl(refDir); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		release r3.Release
		convert bool
	}{
		{"2.2 cluster KONV", r3.Release22, false},
		{"3.0 transparent KONV", r3.Release30, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := r3.Install(r3.Config{Release: tc.release})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadDirect(g); err != nil {
				t.Fatal(err)
			}
			if tc.convert {
				if err := sys.ConvertToTransparent("KONV", nil); err != nil {
					t.Fatal(err)
				}
			}
			outDir := t.TempDir()
			results, err := New(sys).ExtractAll(outDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 8 {
				t.Fatalf("extracted %d tables", len(results))
			}
			// LINEITEM must be the dominant cost, as in the paper's Table 9.
			var liTime, total int64
			for i, res := range results {
				if res.Elapsed <= 0 {
					t.Errorf("%s charged no simulated time", res.Table)
				}
				file := dbgen.Tables[i].File
				got, err := os.ReadFile(filepath.Join(outDir, file))
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join(refDir, file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: extracted file differs from the generator's (%d vs %d bytes)", file, len(got), len(want))
				}
				if n := int64(bytes.Count(got, []byte("\n"))); n != res.Rows || n == 0 {
					t.Errorf("%s: %d rows reported, %d lines written", res.Table, res.Rows, n)
				}
				total += int64(res.Elapsed)
				if res.Table == "LINEITEM" {
					liTime = int64(res.Elapsed)
				}
			}
			if liTime*2 < total {
				t.Errorf("LINEITEM should dominate extraction cost: %d of %d", liTime, total)
			}
		})
	}
}
