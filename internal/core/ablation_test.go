package core

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"r3bench/internal/engine"
	"r3bench/internal/r3"
)

// TestAblationsLeaveRunConfiguration starts a run with array fetch on —
// not the zero value — and checks that the experiments which switch
// options for a measurement (Table 6, Table 7) hand the shared systems back
// as the run configured them: the options of every built system equal the
// run's after each experiment, and Table 9 does the same interface work and
// prints the same total whether or not Table 7 ran before it on the same
// 3.0E system. (The sub-second cells of Table 9 are not compared: they move
// with buffer residency from run to run at any commit — ROADMAP item 1 —
// while packets and rows shipped are exact. Restoring to "off" cost Table 9
// every packet and two simulated seconds in 43.) Table 7's four ablation
// rows are absolute settings, so under this flag the per-row rows must
// cost more than their array-fetch twins instead of repeating them.
func TestAblationsLeaveRunConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 3.0E systems")
	}
	run := r3.Options{Engine: engine.Options{ArrayFetch: true}}
	type result struct {
		out   map[string]string
		last  engine.EngineStats // the 3.0E engine's counters over the last experiment
		total int                // its printed total, simulated seconds
	}
	outputs := func(ids ...string) result {
		t.Helper()
		var buf bytes.Buffer
		cfg := &Config{SF: 0.002, Options: run, Out: &buf}
		res := result{out: map[string]string{}}
		sys3, err := cfg.envOf().Sys30()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			buf.Reset()
			before := sys3.DB.Stats()
			if err := RunOne(cfg, id); err != nil {
				t.Fatalf("%s: %v\n%s", id, err, buf.String())
			}
			res.out[id] = buf.String()
			env := cfg.envOf()
			if env.rdb != nil && env.rdb.Options() != run.Engine {
				t.Errorf("after %s the original DB runs with %+v, the run configured %+v", id, env.rdb.Options(), run.Engine)
			}
			for _, sys := range []*r3.System{env.sys2, env.sys3} {
				if sys != nil && sys.Options() != run {
					t.Errorf("after %s the %s system runs with %+v, the run configured %+v", id, sys.Version(), sys.Options(), run)
				}
			}
			after := sys3.DB.Stats()
			res.last = engine.EngineStats{
				InterfaceCalls: after.InterfaceCalls - before.InterfaceCalls,
				RowsShipped:    after.RowsShipped - before.RowsShipped,
				Packets:        after.Packets - before.Packets,
			}
		}
		if m := regexp.MustCompile(`(?m)^total +(\d+)s$`).FindStringSubmatch(buf.String()); m != nil {
			res.total, _ = strconv.Atoi(m[1])
		}
		return res
	}
	alone := outputs("table9")
	after := outputs("table6", "table7", "table9")
	if alone.last.Packets == 0 || alone.last != after.last {
		t.Errorf("Table 9's interface work after Tables 6 and 7 is %+v, alone it is %+v", after.last, alone.last)
	}
	if d := alone.total - after.total; alone.total == 0 || d < -1 || d > 1 {
		t.Errorf("Table 9 totals %ds after Tables 6 and 7 and %ds alone:\n%s", after.total, alone.total, after.out["table9"])
	}

	cell := regexp.MustCompile(`(?m)^  (.+?)  +(\S+)  +([0-9.]+)x$`)
	ratio := map[string]string{}
	for _, m := range cell.FindAllStringSubmatch(after.out["table7"], -1) {
		ratio[strings.TrimSpace(m[1])] = m[3]
	}
	if len(ratio) != 4 {
		t.Fatalf("found %d ablation rows in Table 7:\n%s", len(ratio), after.out["table7"])
	}
	if ratio["per-row ship, 2-phase group"] == ratio["array fetch"] {
		t.Errorf("the per-row row printed the array-fetch number (%sx):\n%s", ratio["array fetch"], after.out["table7"])
	}
	if ratio["single-pass group"] == ratio["array fetch + single-pass"] {
		t.Errorf("the single-pass row printed the array-fetch number (%sx):\n%s", ratio["single-pass group"], after.out["table7"])
	}
}

// TestToyExperiment is the "one file" claim: an experiment registered from
// this file alone — no list, help text or metrics collector edited — runs
// through RunOne, is offered by name where the IDs are listed, and its
// published result is in the registry dump.
func TestToyExperiment(t *testing.T) {
	saved := experiments
	t.Cleanup(func() { experiments = saved })
	experiments = append([]Experiment(nil), saved...)
	register(Experiment{Seq: 15, ID: "toy", Title: "A toy", PaperRef: "no table", Run: func(cfg *Config) error {
		cfg.printf("toy ran at SF %g\n", cfg.SF)
		cfg.registry().SetInt("toy.answer", 42)
		return nil
	}})

	var buf bytes.Buffer
	cfg := &Config{SF: 0.002, Out: &buf}
	if err := RunOne(cfg, "toy"); err != nil {
		t.Fatal(err)
	}
	if want := "=== toy — A toy (paper no table; SF=0.002) ===\n\ntoy ran at SF 0.002\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("output %q lacks %q", buf.String(), want)
	}
	if ids := strings.Join(IDs(), ","); !strings.HasPrefix(ids, "table1,toy,table2,") {
		t.Errorf("IDs() = %s: the toy is not at its position in the run order", ids)
	}
	err := RunOne(cfg, "nope")
	if err == nil || !strings.Contains(err.Error(), "table1, toy, table2") {
		t.Errorf("the unknown-ID error does not offer the toy: %v", err)
	}
	var dump bytes.Buffer
	if err := CollectMetrics(cfg).WriteText(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "toy.answer  42") {
		t.Errorf("registry dump lacks the toy's result:\n%s", dump.String())
	}
}
