package engine_test

import (
	"fmt"
	"math"
	"testing"

	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// TestAnalyzeMatchesReference holds ANALYZE to the reference ANALYZE
// (analyzeTableReference): the same row count and, column by column, the
// same min, max, distinct count, null fraction, histogram, MCVs and LIKE
// sample, compared as their %#v renderings, so a -0 is not a +0. The tables
// are TPC-D at SF 0.002, the SAP R/3 2.2 and 3.0 databases after LoadDirect
// at SF 0.001, and synthetic tables for the edges: a strided sample whose
// exact distinct tracking overflows (Duj1), a whole-table sample that
// overflows too, an all-NULL column, an empty table, MCV-heavy duplicates,
// ±0, ±Inf, empty strings and strings that differ only in trailing blanks
// (which the row codec stores as one value: a CHAR decodes right-trimmed).
// Run it at several GOMAXPROCS (-cpu 1,2,4): the columns are finished on
// lanes.
func TestAnalyzeMatchesReference(t *testing.T) {
	t.Run("tpcd", func(t *testing.T) {
		db := engine.Open(engine.Config{})
		if err := tpcd.Load(db, dbgen.New(0.002), nil); err != nil {
			t.Fatal(err)
		}
		checkAnalyzeAgainstReference(t, db)
	})
	for _, rel := range []r3.Release{r3.Release22, r3.Release30} {
		t.Run(fmt.Sprintf("sap%v", rel), func(t *testing.T) {
			sys, err := r3.Install(r3.Config{Release: rel})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadDirect(dbgen.New(0.001)); err != nil {
				t.Fatal(err)
			}
			checkAnalyzeAgainstReference(t, sys.DB)
		})
	}
	t.Run("synthetic", func(t *testing.T) {
		checkAnalyzeAgainstReference(t, syntheticStatsDB(t))
	})
}

// checkAnalyzeAgainstReference analyzes every table of db both ways and
// reports the first column whose statistics differ.
func checkAnalyzeAgainstReference(t *testing.T, db *engine.DB) {
	t.Helper()
	for _, name := range db.TableNames() {
		if err := db.Analyze(name); err != nil {
			t.Fatal(err)
		}
		got := engine.StatsDump(db, name)
		if err := engine.AnalyzeReference(db, name); err != nil {
			t.Fatal(err)
		}
		want := engine.StatsDump(db, name)
		if len(got) != len(want) {
			t.Fatalf("%s: %d stats lines, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s line %d:\n got  %s\n want %s", name, i, got[i], want[i])
				break
			}
		}
	}
}

// syntheticStatsDB builds the edge-case tables: BIG (2^17+5000 rows, so a
// stride of 2, with columns whose distinct values overflow the exact
// tracking and columns whose values do not), MIX (70 000 rows sampled
// whole, its ID overflowing the tracking too), ZEROS and EMPTY.
func syntheticStatsDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{})
	s := db.NewSession()
	for _, ddl := range []string{
		`CREATE TABLE big (b_id INTEGER, b_f DECIMAL(12,2), b_s CHAR(10), b_d DATE, b_g INTEGER)`,
		`CREATE TABLE mix (m_id BIGINT, m_nul INTEGER, m_mcv INTEGER, m_z DECIMAL(8,2), m_inf DECIMAL(8,2), m_s CHAR(8), m_d DATE)`,
		`CREATE TABLE empty (e_id INTEGER, e_s CHAR(4))`,
		`CREATE TABLE zeros (z0 DECIMAL(4,1), z1 DECIMAL(4,1), z2 DECIMAL(4,1), z3 DECIMAL(4,1), z4 DECIMAL(4,1), z5 DECIMAL(4,1))`,
	} {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	n := 1<<17 + 5000
	big := make([][]val.Value, 0, n)
	for i := 0; i < n; i++ {
		g := val.Int(int64(i % 7))
		if i%11 == 0 {
			g = val.Null
		}
		big = append(big, []val.Value{val.Int(int64(i)), val.Float(float64(n-i) / 4),
			val.Str(fmt.Sprintf("k%07d", (i*7919)%n)), val.Date(int64(i%3000 - 1000)), g})
	}
	negZero := math.Copysign(0, -1)
	m := 70000
	mix := make([][]val.Value, 0, m)
	for i := 0; i < m; i++ {
		mcv := int64(i % 3)
		if i%10 == 9 {
			mcv = int64(i)
		}
		z := []float64{negZero, 0, 0.5, negZero, -0.25}[i%5]
		inf := []float64{math.Inf(1), 1.5, math.Inf(-1), -3, math.Inf(1), 0}[i%6]
		str := []string{"", "a", "a   ", "b ", fmt.Sprintf("s%06d", i)}[i%5]
		mix = append(mix, []val.Value{val.Int(int64(m - i)), val.Null, val.Int(mcv), val.Float(z),
			val.Float(inf), val.Str(str), val.Date(int64(i % 40))})
	}
	// Each ZEROS column mixes -0 and +0 in its own pseudo-random order:
	// which of the two ends a run or bounds a bucket is the sort's choice.
	zeros := make([][]val.Value, 0, 3000)
	for i := 0; i < 3000; i++ {
		row := make([]val.Value, 6)
		for j := range row {
			row[j] = val.Float(float64(i/7%9 + 1))
			if i%7 != 0 {
				row[j] = val.Float(math.Copysign(0, float64(int(uint32(i*(2*j+3))*2654435761>>(20+j))&1)-0.5))
			}
		}
		zeros = append(zeros, row)
	}
	for name, rows := range map[string][][]val.Value{"BIG": big, "MIX": mix, "ZEROS": zeros} {
		if err := db.BulkLoad(name, rows, nil); err != nil {
			t.Fatal(err)
		}
	}
	return db
}
