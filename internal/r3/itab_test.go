package r3

import (
	"fmt"
	"testing"

	"r3bench/internal/cost"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// groupCase is one GroupBy shape drawn from the report suite: every
// key/aggregate combination the Table 7 queries and the Q1–Q17 report
// implementations push through internal tables.
type groupCase struct {
	name string
	keys []string
	aggs []Agg
}

func itabGroupCases() []groupCase {
	col := func(i int) func([]val.Value) val.Value {
		return func(r []val.Value) val.Value { return r[i] }
	}
	expr := func(r []val.Value) val.Value {
		return val.Float(r[2].AsFloat() * (1 + r[3].AsFloat()/1000))
	}
	return []groupCase{
		{"q1-style", []string{"RF", "LS"}, []Agg{
			{Fn: "SUM", Of: col(2)}, {Fn: "AVG", Of: col(3)},
			{Fn: "COUNT", Of: col(2)}, {Fn: "MIN", Of: col(2)}, {Fn: "MAX", Of: col(3)},
		}},
		{"table7-style", []string{"RF"}, []Agg{{Fn: "AVG", Of: expr}}},
		{"single-key-sum", []string{"LS"}, []Agg{{Fn: "SUM", Of: expr}}},
		{"count-only", []string{"RF", "LS"}, []Agg{{Fn: "COUNT", Of: col(3)}}},
	}
}

func fillITab(t *ITab, rows int) {
	rfs := []string{"A", "N", "R"}
	lss := []string{"F", "O"}
	for i := 0; i < rows; i++ {
		var v val.Value = val.Float(float64((i*7919)%1000) + float64(i%100)/100)
		if i%17 == 0 {
			v = val.Null // exercise NULL handling in every aggregate
		}
		t.Append(val.Str(rfs[i%3]), val.Str(lss[(i/3)%2]), v,
			val.Float(float64(i%250)))
	}
}

func encodeEmit(kv, av []val.Value) string {
	b := val.EncodeKey(kv...)
	b = append(b, 0xFE)
	b = append(b, val.EncodeKey(av...)...)
	return string(b) + "\xFD"
}

// TestSinglePassGroupingMatchesTwoPhase asserts the ablation's
// correctness requirement: for every grouping shape the reports use,
// single-pass streaming hash grouping emits exactly the groups, order
// and aggregate values (to the last float bit) of the paper's two-phase
// sort-materialize-rescan strategy — only the charged cost differs, and
// it must differ downward.
func TestSinglePassGroupingMatchesTwoPhase(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 500} {
		for _, tc := range itabGroupCases() {
			run := func(singlePass bool) (string, int64) {
				m := cost.NewMeter(cost.Default1996())
				tab := NewITab(m, "RF", "LS", "VAL", "RATE")
				tab.singlePass = singlePass
				fillITab(tab, rows)
				start := m.Elapsed()
				var out string
				err := tab.GroupBy(tc.keys, tc.aggs, func(kv, av []val.Value) error {
					out += encodeEmit(kv, av)
					return nil
				})
				if err != nil {
					t.Fatalf("rows=%d %s singlePass=%v: %v", rows, tc.name, singlePass, err)
				}
				return out, int64(m.Elapsed() - start)
			}
			twoPhase, twoCost := run(false)
			onePass, oneCost := run(true)
			if twoPhase != onePass {
				t.Errorf("rows=%d %s: single-pass emission differs from two-phase", rows, tc.name)
			}
			if rows > 1 && oneCost >= twoCost {
				t.Errorf("rows=%d %s: single-pass cost %d not below two-phase %d",
					rows, tc.name, oneCost, twoCost)
			}
		}
	}
}

// TestITabSinglePassDefault pins where an internal table's grouping
// strategy comes from: a table declared through a System takes the
// system's Options.ITabSinglePass at the moment of declaration — flipping
// the option back restores the paper's strategy for new tables without
// touching existing ones — and the package-level NewITab is two-phase
// whatever any system says.
func TestITabSinglePassDefault(t *testing.T) {
	sys, err := Install(Config{Release: Release22})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter(cost.Default1996())
	saved := sys.Options()
	sys.SetOptions(Options{ITabSinglePass: true})
	on := sys.NewITab(m, "K", "V")
	free := NewITab(m, "K", "V")
	sys.SetOptions(saved)
	off := sys.NewITab(m, "K", "V")
	if !on.singlePass {
		t.Error("table declared under ITabSinglePass is two-phase")
	}
	if off.singlePass {
		t.Error("table declared after restore is single-pass")
	}
	if free.singlePass {
		t.Error("package-level NewITab took a system's strategy")
	}
}

// TestSinglePassGroupKeyEquality guards the hashing subtlety: grouping
// equality is val.Compare equality, so CHAR keys differing only in
// trailing padding must land in one group under both strategies.
func TestSinglePassGroupKeyEquality(t *testing.T) {
	for _, singlePass := range []bool{false, true} {
		m := cost.NewMeter(cost.Default1996())
		tab := NewITab(m, "K", "V")
		tab.singlePass = singlePass
		tab.Append(val.Str("A  "), val.Float(1))
		tab.Append(val.Str("A"), val.Float(2))
		tab.Append(val.Str("B"), val.Float(4))
		var got []string
		err := tab.GroupBy([]string{"K"}, []Agg{{Fn: "SUM", Of: func(r []val.Value) val.Value { return r[1] }}},
			func(kv, av []val.Value) error {
				got = append(got, fmt.Sprintf("%s=%g", kv[0].AsStr(), av[0].AsFloat()))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "A  =3" || got[1] != "B=4" {
			t.Errorf("singlePass=%v: groups = %v", singlePass, got)
		}
	}
}

// TestSystemOptionsRoundTrip: a system installs at the paper's
// configuration, SetOptions publishes exactly the value it is given — the
// engine's share lands in the back-end database, where System.Options
// reads it back from — and what was saved can be put back.
func TestSystemOptionsRoundTrip(t *testing.T) {
	sys, err := Install(Config{Release: Release30})
	if err != nil {
		t.Fatal(err)
	}
	saved := sys.Options()
	if saved != (Options{}) {
		t.Fatalf("a fresh system has options %+v, want the zero value", saved)
	}
	all := Options{
		Engine:         engine.Options{Parallel: 4, ArrayFetch: true, PeekBinds: true, Adaptive: true},
		ITabSinglePass: true,
	}
	sys.SetOptions(all)
	if got := sys.Options(); got != all {
		t.Fatalf("Options() = %+v after SetOptions(%+v)", got, all)
	}
	if got := sys.DB.Options(); got != all.Engine {
		t.Fatalf("the back-end database runs with %+v, want %+v", got, all.Engine)
	}
	sys.DB.SetOptions(engine.Options{Parallel: 2})
	if got := sys.Options(); got.Engine != (engine.Options{Parallel: 2}) || !got.ITabSinglePass {
		t.Fatalf("Options() = %+v does not show the database's own options", got)
	}
	sys.SetOptions(saved)
	if got := sys.Options(); got != saved {
		t.Fatalf("Options() = %+v after putting back %+v", got, saved)
	}
}
