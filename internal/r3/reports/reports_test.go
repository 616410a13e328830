package reports

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

const testSF = 0.002

// Shared fixtures: one original-schema DB, one 2.2 system, one 3.0 system
// (KONV converted), all from the same generated population.
var (
	fixOnce sync.Once
	fixErr  error
	fixGen  *dbgen.Generator
	fixRDB  *engine.DB
	fixSys2 *r3.System
	fixSys3 *r3.System
)

func fixtures(t *testing.T) (*dbgen.Generator, *engine.DB, *r3.System, *r3.System) {
	t.Helper()
	fixOnce.Do(func() {
		fixGen = dbgen.New(testSF)
		fixRDB = engine.Open(engine.Config{})
		if fixErr = tpcd.Load(fixRDB, fixGen, nil); fixErr != nil {
			return
		}
		if fixSys2, fixErr = r3.Install(r3.Config{Release: r3.Release22}); fixErr != nil {
			return
		}
		if fixErr = fixSys2.LoadDirect(fixGen); fixErr != nil {
			return
		}
		if fixSys3, fixErr = r3.Install(r3.Config{Release: r3.Release30}); fixErr != nil {
			return
		}
		if fixErr = fixSys3.LoadDirect(fixGen); fixErr != nil {
			return
		}
		if fixErr = fixSys3.ConvertToTransparent("KONV", nil); fixErr != nil {
			return
		}
		// The paper deletes the default ship-date index for the 3.0E
		// power test; the 2.2 configuration keeps it.
		fixErr = fixSys3.DropIndex("VBEP", "VBEP_EDATU")
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixGen, fixRDB, fixSys2, fixSys3
}

// apply changes a shared fixture system's options by diff and returns the
// function that puts back exactly what was there: `defer apply(...)()`.
func apply(sys *r3.System, diff func(*r3.Options)) (restore func()) {
	saved := sys.Options()
	o := saved
	diff(&o)
	sys.SetOptions(o)
	return func() { sys.SetOptions(saved) }
}

// canonicalize renders a row for cross-strategy comparison: numeric-ish
// strings (SAP's 16-byte zero-padded keys) compare as numbers, floats are
// rounded, text is trimmed.
func canonVal(v val.Value) string {
	switch v.K {
	case val.KNull:
		return "~"
	case val.KStr:
		s := strings.TrimSpace(v.S)
		if len(s) > 0 && len(strings.TrimLeft(s, "0123456789")) == 0 {
			// SAP's zero-padded key strings compare as numbers.
			return fmt.Sprintf("#%.3f", float64(v.AsInt()))
		}
		return s
	case val.KDate:
		return v.AsStr()
	default:
		return fmt.Sprintf("#%.3f", v.AsFloat())
	}
}

func canonRow(row []val.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = canonVal(v)
	}
	return strings.Join(parts, "|")
}

// rowsEqual compares two result multisets with numeric tolerance.
func rowsEqual(t *testing.T, label string, a, b [][]val.Value) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %d vs %d rows", label, len(a), len(b))
		return
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = canonRow(a[i])
		bs[i] = canonRow(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] == bs[i] {
			continue
		}
		if !almostEqualRows(as[i], bs[i]) {
			t.Errorf("%s: row %d differs:\n  %s\n  %s", label, i, as[i], bs[i])
			return
		}
	}
}

// almostEqualRows retries the comparison field-wise with float tolerance.
func almostEqualRows(a, b string) bool {
	af, bf := strings.Split(a, "|"), strings.Split(b, "|")
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if af[i] == bf[i] {
			continue
		}
		if !strings.HasPrefix(af[i], "#") || !strings.HasPrefix(bf[i], "#") {
			return false
		}
		var x, y float64
		fmt.Sscanf(af[i][1:], "%f", &x)
		fmt.Sscanf(bf[i][1:], "%f", &y)
		tol := 1e-6*math.Max(math.Abs(x), math.Abs(y)) + 5e-3
		if math.Abs(x-y) > tol {
			return false
		}
	}
	return true
}

// TestAllStrategiesAgree is the core validation of the reproduction: the
// four SAP strategies must produce the same answers as the isolated
// RDBMS for every TPC-D query (paper Section 3.3: "we validated the
// correctness of the implementation of all our programs").
func TestAllStrategiesAgree(t *testing.T) {
	g, rdb, sys2, sys3 := fixtures(t)
	base := tpcd.NewRDBMS(rdb, g)
	impls := []tpcd.Implementation{
		New(sys2, g, Native22),
		New(sys2, g, Open22),
		New(sys3, g, Native30),
		New(sys3, g, Open30),
	}
	for qn := 1; qn <= 17; qn++ {
		want, err := base.RunQuery(qn)
		if err != nil {
			t.Fatalf("RDBMS Q%d: %v", qn, err)
		}
		for _, impl := range impls {
			got, err := impl.RunQuery(qn)
			if err != nil {
				t.Errorf("%s Q%d: %v", impl.Name(), qn, err)
				continue
			}
			rowsEqual(t, fmt.Sprintf("%s Q%d", impl.Name(), qn), want, got)
		}
	}
}

// TestStrategyCostOrdering checks the paper's headline shape: the
// isolated RDBMS is fastest; within a release Open SQL does not beat
// Native SQL overall; 3.0's Open SQL beats 2.2's.
func TestStrategyCostOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("cost ordering runs the full suite repeatedly")
	}
	g, rdb, sys2, sys3 := fixtures(t)

	run := func(impl tpcd.Implementation) float64 {
		m := impl.Meter()
		start := m.Elapsed()
		for qn := 1; qn <= 17; qn++ {
			if _, err := impl.RunQuery(qn); err != nil {
				t.Fatalf("%s Q%d: %v", impl.Name(), qn, err)
			}
		}
		return float64(m.Lap(start))
	}
	tRDB := run(tpcd.NewRDBMS(rdb, g))
	tN22 := run(New(sys2, g, Native22))
	tO22 := run(New(sys2, g, Open22))
	tN30 := run(New(sys3, g, Native30))
	tO30 := run(New(sys3, g, Open30))

	t.Logf("RDBMS=%.0fms N22=%.0fms O22=%.0fms N30=%.0fms O30=%.0fms",
		tRDB/1e6, tN22/1e6, tO22/1e6, tN30/1e6, tO30/1e6)
	if tRDB >= tN30 {
		t.Errorf("RDBMS (%.0f) should beat Native 3.0 (%.0f)", tRDB, tN30)
	}
	if tN30 >= tO22 {
		t.Errorf("Native 3.0 (%.0f) should beat Open 2.2 (%.0f)", tN30, tO22)
	}
	if tO30 >= tO22 {
		t.Errorf("Open 3.0 (%.0f) should beat Open 2.2 (%.0f)", tO30, tO22)
	}
	if tN22 >= tO22 {
		t.Errorf("Native 2.2 (%.0f) should beat Open 2.2 (%.0f)", tN22, tO22)
	}
}

// TestUpdateFunctionsThroughBatchInput exercises UF1/UF2 on a separate
// system so the shared fixtures stay pristine.
func TestUpdateFunctionsThroughBatchInput(t *testing.T) {
	g := dbgen.New(testSF)
	sys, err := r3.Install(r3.Config{Release: r3.Release22})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDirect(g); err != nil {
		t.Fatal(err)
	}
	impl := New(sys, g, Open22)
	before := sys.RowCount("VBAK")
	if err := impl.RunUF1(); err != nil {
		t.Fatal(err)
	}
	inserted := sys.RowCount("VBAK") - before
	if inserted != int64(float64(1500)*testSF) {
		t.Fatalf("UF1 inserted %d orders", inserted)
	}
	if err := impl.RunUF2(); err != nil {
		t.Fatal(err)
	}
	if got := sys.RowCount("VBAK"); got != before {
		t.Fatalf("UF2 should remove as many orders as UF1 added: %d vs %d", got, before)
	}
}

// TestITabStrategyBelongsToSystem runs the same report at the same time on
// two systems of one process, one grouping two-phase (the paper's) and one
// single-pass. Reports declare their work tables through their own system,
// so the rows agree and each meter is charged its own system's strategy:
// the two-phase materialization is the only page write a read-only report
// makes. Run under -race (make race).
func TestITabStrategyBelongsToSystem(t *testing.T) {
	g := dbgen.New(0.001)
	var systems [2]*r3.System
	for i := range systems {
		sys, err := r3.Install(r3.Config{Release: r3.Release22})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadDirect(g); err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	systems[1].SetOptions(r3.Options{ITabSinglePass: true})

	var rows [2][]string
	var writes [2]int64
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				impl := New(sys, g, Open22)
				res, err := impl.RunQuery(1)
				if err != nil {
					t.Errorf("system %d: %v", i, err)
					return
				}
				rows[i] = rows[i][:0]
				for _, row := range res {
					rows[i] = append(rows[i], canonRow(row))
				}
				writes[i] += impl.Meter().Count(cost.PageWrite)
			}
		}()
	}
	wg.Wait()
	if len(rows[0]) == 0 || strings.Join(rows[0], "\n") != strings.Join(rows[1], "\n") {
		t.Errorf("the two strategies emitted different rows:\n%v\n%v", rows[0], rows[1])
	}
	if writes[0] == 0 {
		t.Error("the two-phase system's report charged no materialization")
	}
	if writes[1] != 0 {
		t.Errorf("the single-pass system's report charged %d page writes: another system's strategy leaked in", writes[1])
	}
	if systems[0].Options().ITabSinglePass || !systems[1].Options().ITabSinglePass {
		t.Error("a report changed its system's options")
	}
}

// TestYearOfReadsTheText: yearOf gives what the first four digits of a
// value's text give — for DATEs across and past the four-digit years,
// CHAR dates, an INT date, short text and NULL — and allocates nothing for
// a DATE or a CHAR date.
func TestYearOfReadsTheText(t *testing.T) {
	fromText := func(v val.Value) val.Value {
		s := v.AsStr()
		if len(s) < 4 {
			return val.Null
		}
		y := 0
		for i := 0; i < 4; i++ {
			y = y*10 + int(s[i]-'0')
		}
		return val.Int(int64(y))
	}
	var vals []val.Value
	for days := int64(-800000); days < 3000000; days += 997 {
		vals = append(vals, val.Date(days))
	}
	vals = append(vals, val.Str("19960102"), val.Str("1998"), val.Str("199"), val.Int(19970304), val.Null,
		val.DateFromYMD(1992, 1, 1), val.DateFromYMD(1998, 12, 31))
	for _, v := range vals {
		if got, want := yearOf(v), fromText(v); got != want {
			t.Errorf("yearOf(%v) = %v, want %v", v, got, want)
		}
	}
	d, c := val.DateFromYMD(1995, 6, 17), val.Str("19950617")
	if n := testing.AllocsPerRun(100, func() { yearOf(d); yearOf(c) }); n != 0 {
		t.Errorf("yearOf allocates %.0f times", n)
	}
}
