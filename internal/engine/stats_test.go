package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"r3bench/internal/val"
)

// --- Histogram and MCV estimation ---

func TestHistogramRangeSelectivity(t *testing.T) {
	db, _ := testDB(t)
	emp := db.Table("EMP")
	idx := emp.ColIndex("E_ID")
	// e_id is uniform 1..100: the histogram should put < 50 near one half.
	sel := emp.stats.selRange(idx, "<", val.Int(50), true)
	if sel < 0.35 || sel > 0.65 {
		t.Errorf("selRange(e_id < 50) = %.3f, want ~0.5", sel)
	}
	gt := emp.stats.selRange(idx, ">", val.Int(50), true)
	if s := sel + gt; s < 0.8 || s > 1.2 {
		t.Errorf("< and > selectivities sum to %.3f, want ~1", s)
	}
	// Out-of-range bounds hit the clamp ends.
	if sel := emp.stats.selRange(idx, "<", val.Int(10000), true); sel < 0.99 {
		t.Errorf("selRange(e_id < 10000) = %.3f, want ~1", sel)
	}
	if sel := emp.stats.selRange(idx, "<", val.Int(-5), true); sel > 0.01 {
		t.Errorf("selRange(e_id < -5) = %.3f, want ~0", sel)
	}
}

func TestMCVEqualitySelectivity(t *testing.T) {
	db, _ := testDB(t)
	emp := db.Table("EMP")
	idx := emp.ColIndex("E_DEPT")
	// e_dept cycles over four values, 25% each: an MCV hit, not 1/distinct
	// after the old rows/2-style guesswork.
	sel := emp.stats.selEquals(idx, val.Int(1))
	if sel < 0.2 || sel > 0.3 {
		t.Errorf("selEquals(e_dept = 1) = %.3f, want ~0.25", sel)
	}
}

func TestSelRangeStringColumn(t *testing.T) {
	db, _ := testDB(t)
	emp := db.Table("EMP")
	idx := emp.ColIndex("E_NAME")
	// e_name is 'EMP001'..'EMP100': byte-prefix interpolation should place
	// 'EMP050' near the middle.
	sel := emp.stats.selRange(idx, "<", val.Str("EMP050"), true)
	if sel < 0.3 || sel > 0.7 {
		t.Errorf("selRange(e_name < 'EMP050') = %.3f, want ~0.5", sel)
	}
	// An unknown bound (parameter, no peeking) stays at the blind default.
	if sel := emp.stats.selRange(idx, "<", val.Value{}, false); sel != defaultRangeSel {
		t.Errorf("blind selRange = %.3f, want default %.3f", sel, defaultRangeSel)
	}
}

func TestSelRangeDegenerateBounds(t *testing.T) {
	// Min == Max with no histogram: the linear interpolation would divide
	// by zero; the estimator must fall back to the equality default.
	s := newTableStats(1, nil)
	s.analyzed = true
	s.Columns[0] = ColumnStats{Min: val.Int(5), Max: val.Int(5), Distinct: 1}
	if sel := s.selRange(0, "<", val.Int(3), true); sel != defaultEqSel {
		t.Errorf("degenerate selRange = %.3f, want %.3f", sel, defaultEqSel)
	}
}

func TestClampSelBounds(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0.0005},
		{0, 0.0005},
		{0.0001, 0.0005},
		{0.3, 0.3},
		{1, 1},
		{7, 1},
	}
	for _, c := range cases {
		if got := clampSel(c.in); got != c.want {
			t.Errorf("clampSel(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestSelLike(t *testing.T) {
	db, _ := testDB(t)
	emp := db.Table("EMP")
	idx := emp.ColIndex("E_NAME")
	// Prefix pattern: a histogram range probe. 'EMP0%' covers EMP001..EMP099.
	sel := emp.stats.selLike(idx, "EMP0%")
	if sel < 0.7 {
		t.Errorf("selLike(EMP0%%) = %.3f, want near 1", sel)
	}
	// No-prefix pattern: matched against the retained sample. '%042' hits
	// one name in a hundred.
	sel = emp.stats.selLike(idx, "%042")
	if sel > 0.1 {
		t.Errorf("selLike(%%042) = %.3f, want small", sel)
	}
}

func TestSelInList(t *testing.T) {
	db, _ := testDB(t)
	emp := db.Table("EMP")
	idx := emp.ColIndex("E_DEPT")
	// Two of four uniform values: ~0.5, not k*defaultEqSel.
	sel := emp.stats.selInList(idx, []val.Value{val.Int(1), val.Int(2)})
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("selInList(e_dept IN (1,2)) = %.3f, want ~0.5", sel)
	}
}

// --- Stats lifecycle ---

func TestStatsStaleAfterDMLUntilReanalyze(t *testing.T) {
	db, s := testDB(t)
	emp := db.Table("EMP")
	if got := emp.RowEstimate(); got != 100 {
		t.Fatalf("RowEstimate = %d, want 100", got)
	}
	for i := 101; i <= 150; i++ {
		mustExec(t, s, fmt.Sprintf(
			`INSERT INTO emp VALUES (%d, 'EMP%03d', %d, 2000.00, DATE '1995-06-01')`, i, i, i%4+1))
	}
	// Statistics describe the table as of the last ANALYZE.
	if got := emp.RowEstimate(); got != 100 {
		t.Errorf("RowEstimate after DML = %d, want stale 100", got)
	}
	if err := db.Analyze("EMP"); err != nil {
		t.Fatal(err)
	}
	if got := emp.RowEstimate(); got != 150 {
		t.Errorf("RowEstimate after re-ANALYZE = %d, want 150", got)
	}
}

func TestDistinctHighCardinality(t *testing.T) {
	// Enough distinct values to overflow exact tracking: the sampled Duj1
	// estimator must land near the true cardinality instead of the old
	// rows/2 guess.
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE big (b_id INTEGER PRIMARY KEY)`)
	n := int64(2 * distinctTrackLimit)
	rows := make([][]val.Value, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, []val.Value{val.Int(i)})
	}
	if err := db.BulkLoad("BIG", rows, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("BIG"); err != nil {
		t.Fatal(err)
	}
	d := db.Table("BIG").stats.Columns[0].Distinct
	if d < n*9/10 || d > n {
		t.Errorf("Distinct = %d, want within 10%% of %d (old fallback was %d)", d, n, n/2)
	}
}

func TestDuj1Estimator(t *testing.T) {
	// All-singleton sample of half the population: Duj1 doubles it.
	sample := make([]val.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		sample = append(sample, val.Int(int64(2*i)))
	}
	if got := duj1Distinct(sample, 2000); got != 2000 {
		t.Errorf("duj1Distinct(singletons, N=2n) = %d, want 2000", got)
	}
	// No singletons: the sample saw every value, estimate stays d.
	dup := make([]val.Value, 0, 1000)
	for i := 0; i < 500; i++ {
		dup = append(dup, val.Int(int64(i)), val.Int(int64(i)))
	}
	if got := duj1Distinct(dup, 10000); got != 500 {
		t.Errorf("duj1Distinct(all-dup) = %d, want 500", got)
	}
	if got := duj1Distinct(nil, 100); got != 0 {
		t.Errorf("duj1Distinct(empty) = %d, want 0", got)
	}
}

// --- Bind peeking and adaptive replanning ---

// skewedTable builds a 2000-row table with an index whose usefulness
// depends entirely on the bound value — the engine-level Table 6 shape.
func skewedTable(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE ords (o_id INTEGER PRIMARY KEY, o_qty INTEGER)`)
	rows := make([][]val.Value, 0, 2000)
	for i := int64(1); i <= 2000; i++ {
		rows = append(rows, []val.Value{val.Int(i), val.Int(i)})
	}
	if err := db.BulkLoad("ORDS", rows, nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE INDEX ORDS_QTY ON ords (o_qty)`)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func TestBindPeekingChoosesSeqScan(t *testing.T) {
	db, s := skewedTable(t)

	// Blind default: the 2.2-era rule keeps the index sight unseen.
	blind, err := s.Prepare(`SELECT o_qty FROM ords WHERE o_qty < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(blind.Explain(), "index scan") {
		t.Fatalf("blind plan = %q, want index scan", blind.Explain())
	}

	db.SetOptions(Options{PeekBinds: true})
	peeked, err := s.Prepare(`SELECT o_qty FROM ords WHERE o_qty < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(peeked.Explain(), "not yet planned") {
		t.Fatalf("peeking must defer planning, got %q", peeked.Explain())
	}
	res, err := peeked.Query(val.Int(99999))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2000 {
		t.Fatalf("peeked query returned %d rows, want 2000", len(res.Rows))
	}
	if !strings.Contains(peeked.Explain(), "seq scan") {
		t.Fatalf("peeked plan = %q, want seq scan", peeked.Explain())
	}
	if st := db.Stats(); st.Peeks < 1 {
		t.Errorf("Peeks = %d, want >= 1", st.Peeks)
	}

	// The peeked and blind plans must return identical results.
	blindRes, err := blind.Query(val.Int(99999))
	if err != nil {
		t.Fatal(err)
	}
	if len(blindRes.Rows) != len(res.Rows) {
		t.Errorf("blind %d rows vs peeked %d rows", len(blindRes.Rows), len(res.Rows))
	}
}

func TestAdaptiveReplanRecovers(t *testing.T) {
	db, s := skewedTable(t)
	db.SetOptions(Options{Adaptive: true})

	st, err := s.Prepare(`SELECT o_qty FROM ords WHERE o_qty < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Explain(), "index scan") {
		t.Fatalf("initial plan = %q, want blind index scan", st.Explain())
	}
	// First execution observes 2000 actual rows against a default-guess
	// estimate — a >=10x mismatch that invalidates the plan.
	res1, err := st.Query(val.Int(99999))
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != 2000 {
		t.Fatalf("first run returned %d rows", len(res1.Rows))
	}
	if got := db.Stats().Replans; got != 1 {
		t.Fatalf("Replans = %d, want 1", got)
	}
	// Second execution replans with the observed cardinality: seq scan.
	res2, err := st.Query(val.Int(99999))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Explain(), "seq scan") {
		t.Fatalf("replanned = %q, want seq scan", st.Explain())
	}
	if len(res2.Rows) != len(res1.Rows) {
		t.Errorf("replanned run returned %d rows, want %d", len(res2.Rows), len(res1.Rows))
	}
	// The corrected plan's estimate matches the observation: stable now.
	if _, err := st.Query(val.Int(99999)); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Replans; got != 1 {
		t.Errorf("Replans after stable reruns = %d, want still 1", got)
	}
}

func TestEstimateProvenanceCounters(t *testing.T) {
	db, s := testDB(t)
	before := db.Stats()
	// A literal predicate on an analyzed table: statistics serve it.
	mustExec(t, s, `SELECT e_id FROM emp WHERE e_id < 50`)
	// A parameterized one planned blind: a default estimate.
	stmt, err := s.Prepare(`SELECT e_id FROM emp WHERE e_id < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(val.Int(10)); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.HistEstimates <= before.HistEstimates {
		t.Errorf("HistEstimates did not grow: %d -> %d", before.HistEstimates, after.HistEstimates)
	}
	if after.DefaultEstimates <= before.DefaultEstimates {
		t.Errorf("DefaultEstimates did not grow: %d -> %d", before.DefaultEstimates, after.DefaultEstimates)
	}
}

// TestPreparedDeterminismAcrossDegrees pins that bind peeking and
// adaptive replanning never change results, at any parallel degree.
func TestPreparedDeterminismAcrossDegrees(t *testing.T) {
	db, s := skewedTable(t)
	ref := mustExec(t, s, `SELECT o_id, o_qty FROM ords WHERE o_qty < 1500 ORDER BY o_id`)

	for _, deg := range []int{1, 2, 8} {
		db.SetOptions(Options{PeekBinds: true, Adaptive: true, Parallel: deg})
		stmt, err := s.Prepare(`SELECT o_id, o_qty FROM ords WHERE o_qty < ? ORDER BY o_id`)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			res, err := stmt.Query(val.Int(1500))
			if err != nil {
				t.Fatalf("deg %d run %d: %v", deg, run, err)
			}
			if len(res.Rows) != len(ref.Rows) {
				t.Fatalf("deg %d run %d: %d rows, want %d", deg, run, len(res.Rows), len(ref.Rows))
			}
			for i := range res.Rows {
				for j := range res.Rows[i] {
					if val.Compare(res.Rows[i][j], ref.Rows[i][j]) != 0 {
						t.Fatalf("deg %d run %d: row %d col %d differs", deg, run, i, j)
					}
				}
			}
		}
	}
}

// TestExplainAnalyzeShowsEstimates pins the estimated-rows annotation on
// operator spans.
func TestExplainAnalyzeShowsEstimates(t *testing.T) {
	_, s := testDB(t)
	a, err := s.ExplainAnalyze(`SELECT e_id FROM emp WHERE e_id < 50`)
	if err != nil {
		t.Fatal(err)
	}
	if out := a.String(); !strings.Contains(out, "est ") {
		t.Errorf("EXPLAIN ANALYZE output lacks estimated rows:\n%s", out)
	}
}

// TestAnalyzeNaNColumn: a NaN in a DECIMAL column — Inf × 0, as SQL
// arithmetic makes it — is left out of the column's statistics, so no
// estimate on the column is NaN; ±Inf values keep their place, and no
// estimate between an infinite and a finite bound is NaN either. The
// columns without NaN keep the reference's statistics.
func TestAnalyzeNaNColumn(t *testing.T) {
	db := Open(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE f (id INTEGER PRIMARY KEY, v DECIMAL(12,2), w DECIMAL(12,2))`)
	for lo := 0; lo < 2000; lo += 200 {
		var rows []string
		for i := lo; i < lo+200; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d.%02d, %d)", i, i/4, i%4*25, i-1000))
		}
		mustExec(t, s, `INSERT INTO f VALUES `+strings.Join(rows, ", "))
	}
	huge := "1" + strings.Repeat("0", 200) + ".0"
	mustExec(t, s, `UPDATE f SET v = `+huge+` * `+huge+` * 0 WHERE id = 0`)
	mustExec(t, s, `UPDATE f SET w = 0 - `+huge+` * `+huge+` WHERE id < 100`)
	mustExec(t, s, `UPDATE f SET w = `+huge+` * `+huge+` WHERE id >= 1900`)
	if r := mustExec(t, s, `SELECT v FROM f WHERE id = 0`); !math.IsNaN(r.Rows[0][0].F) {
		t.Fatalf("v of row 0 = %v, want NaN", r.Rows[0][0])
	}
	if err := db.Analyze("F"); err != nil {
		t.Fatal(err)
	}
	f := db.Table("F")
	v, w := &f.stats.Columns[1], &f.stats.Columns[2]
	if v.Min.F != 0.25 || v.Max.F != 499.75 || v.Distinct != 1999 || v.NullFrac != 0 {
		t.Errorf("v: min %v max %v distinct %d null frac %v, want 0.25, 499.75, 1999, 0", v.Min, v.Max, v.Distinct, v.NullFrac)
	}
	if !math.IsInf(w.Min.F, -1) || !math.IsInf(w.Max.F, 1) {
		t.Errorf("w: min %v max %v, want -Inf, +Inf", w.Min, w.Max)
	}
	for col := 1; col <= 2; col++ {
		for _, x := range []float64{-2000, -950.5, -5, 0, 10.5, 250, 920.25, 2000, math.Inf(1)} {
			probe := val.Float(x)
			ests := []float64{f.stats.selEquals(col, probe), f.stats.selInList(col, []val.Value{probe, val.Float(1)})}
			for _, op := range []string{"<", "<=", ">", ">="} {
				ests = append(ests, f.stats.selRange(col, op, probe, true))
			}
			for _, e := range ests {
				if math.IsNaN(e) {
					t.Errorf("column %d, probe %v: an estimate is NaN: %v", col, x, ests)
					break
				}
			}
		}
	}
	// The id column has no NaN: its statistics are the reference's.
	got := fmt.Sprintf("%#v", f.stats.Columns[0])
	if err := analyzeTableReference(f); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%#v", f.stats.Columns[0]); got != want {
		t.Errorf("id statistics:\n got  %s\n want %s", got, want)
	}
}
