package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestManifest: BENCHMARK.json is exactly what the tables in spec.go render.
// The metric and workload names are an API.
func TestManifest(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := manifest(doc.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest -seconds %d`; regenerate it", doc.RunSeconds)
	}
}

func smokeRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := w.run(&runCfg{w: w, sz: w.smoke, seed: 1, seconds: 1, trace: trace, smoke: true, dir: dir, log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.name, trace, res.Failed, res.Attempted, res.Notes)
	}
	var got, want []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	for _, m := range catalogue(res.Trace) {
		want = append(want, m.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s (trace %v): metric names %v, the catalogue has %v", w.name, trace, got, want)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	return res
}

// TestSmoke runs every workload at -smoke sizes, untraced and traced: no op
// may fail and the metric names must be the catalogue's. On dss_power_wire —
// one client, serial plans, nothing left to the scheduler — everything that
// is a count of the program's must repeat to the digit. No timing is
// asserted.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a := smokeRun(t, w, false)
			la := smokeRun(t, w, true)
			if w.name != "dss_power_wire" {
				return
			}
			b := smokeRun(t, w, false)
			for _, name := range []string{"sim_pass_s", "space_amp"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s read %v, then %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if a.Attempted != b.Attempted {
				t.Errorf("%d ops attempted, then %d", a.Attempted, b.Attempted)
			}
			lb := smokeRun(t, w, true)
			for _, m := range perLayer {
				if m.Unit == "count" && !strings.HasPrefix(m.Name, "runtime.") && la.Metrics[m.Name] != lb.Metrics[m.Name] {
					t.Errorf("%s read %v, then %v", m.Name, la.Metrics[m.Name], lb.Metrics[m.Name])
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := metric{Name: "ops_per_s", Better: "higher", Bound: bound(0.10)}
	steady := func(c float64) []float64 { return []float64{c, c * 1.01, c * 0.99, c, c * 1.005, c * 0.995} }
	for _, tc := range []struct {
		a, b []float64
		want string
	}{
		{steady(100), steady(101), "same"},
		{steady(100), steady(85), "worse"},
		{steady(100), steady(120), "better"},
		{steady(100), []float64{60, 100, 140, 80, 120, 100}, "unresolved"},
	} {
		if got := verdict(m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAlmostEqualRows(t *testing.T) {
	// The tolerance is 1e-6 relative + 5e-3 absolute on numbers, none on
	// text; the rule itself runs against real answers in r3_reports' smoke.
	if !almostEqualRows("#1.000|x", "#1.004|x") || almostEqualRows("#1.000|x", "#1.100|x") || almostEqualRows("#1.000|x", "#1.000|y") {
		t.Error("almostEqualRows")
	}
}
