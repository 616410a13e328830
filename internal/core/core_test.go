package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"r3bench/internal/r3"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exp_all_golden.txt from this run")

// runAll runs every experiment at SF 0.002 with the default options, once
// per test process: the tests that read a whole run share it.
var runAll = sync.OnceValues(func() (*Config, error) {
	cfg := &Config{SF: 0.002, Out: new(bytes.Buffer)}
	return cfg, RunAll(cfg)
})

// sharedRun returns runAll's configuration and output, failing t if the run
// failed.
func sharedRun(t *testing.T) (*Config, string) {
	t.Helper()
	cfg, err := runAll()
	out := cfg.Out.(*bytes.Buffer).String()
	if err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, out)
	}
	return cfg, out
}

// TestAllExperimentsRun drives every paper table end to end at a tiny
// scale factor and sanity-checks the printed reports.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	cfg, out := sharedRun(t)
	for _, want := range []string{
		"table1", "VBAP", "Lineitem: position", // Table 1 mapping
		"SAP/original data ratio", // Table 2
		"ORDER+LINEITEM",          // Table 3
		"Total (quer.)",           // Tables 4/5
		"high (0 result tuples)",  // Table 6
		"Native SQL",              // Table 7
		"hit ratio",               // Table 8
		"LINEITEM",                // Table 9
		"speedup",                 // shardscale
		"Exchange rows shipped",   // shardscale traffic table
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "ERROR") || strings.Contains(out, "!!") {
		t.Errorf("experiment reported errors:\n%s", out)
	}
	// Thirteen experiments later the shared systems still run the
	// configuration the run started them with.
	env := cfg.envOf()
	if got := env.rdb.Options(); got != cfg.Options.Engine {
		t.Errorf("the original DB ends the run with options %+v", got)
	}
	for _, sys := range []*r3.System{env.sys2, env.sys3} {
		if got := sys.Options(); got != cfg.Options {
			t.Errorf("the %s system ends the run with options %+v", sys.Version(), got)
		}
	}
}

func TestFind(t *testing.T) {
	if Find("table6") == nil {
		t.Fatal("table6 must exist")
	}
	if Find("nope") != nil {
		t.Fatal("unknown ID must return nil")
	}
	// `-exp all` runs the paper's tables in paper order, then the modern
	// ablations in the order they were added.
	if got, want := strings.Join(IDs(), ","), "table1,table2,table3,table4,table5,table6,table7,table8,table9,throughput,shardscale,loadpath,warehouse"; got != want {
		t.Fatalf("run order %s, want %s", got, want)
	}
	if Find("throughput") == nil {
		t.Fatal("throughput must exist")
	}
	if Find("shardscale") == nil {
		t.Fatal("shardscale must exist")
	}
	if Find("loadpath") == nil {
		t.Fatal("loadpath must exist")
	}
	if Find("warehouse") == nil {
		t.Fatal("warehouse must exist")
	}
}

// laneRace matches the speedup and fsync cells of loadpath's direct path
// under WAL. Its loader lanes share one pool and one log, so both move with
// how the lanes interleave (ROADMAP item 14): TestExperimentsRepeat masks
// them until that item lands.
var laneRace = regexp.MustCompile(`(?m)^(direct path \+ WAL \+ group commit .*\s)[0-9.]+x(\s+)\d+(\s+\S+)$`)

// TestExperimentsRepeat holds `-exp all` at SF 0.002 with the default
// options to testdata/exp_all_golden.txt, byte for byte but for the two
// masked cells: every other simulated time, count and ratio the run prints
// must come out the same in every process (-update re-records the file).
func TestExperimentsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	_, out := sharedRun(t)
	got := laneRace.ReplaceAllString(out, "${1}#x${2}#${3}")
	const golden = "testdata/exp_all_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, lines := strings.Split(string(b), "\n"), strings.Split(got, "\n")
	bad := 0
	for i := range max(len(lines), len(want)) {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d lines differ in all", bad)
	}
}

// TestTable2RatioShape asserts the headline data-inflation result at a
// small scale factor.
func TestTable2RatioShape(t *testing.T) {
	var buf bytes.Buffer
	cfg := &Config{SF: 0.002, Out: &buf}
	if err := RunOne(cfg, "table2"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	idx := strings.Index(out, "SAP/original data ratio: ")
	if idx < 0 {
		t.Fatalf("no ratio line:\n%s", out)
	}
	var ratio float64
	if _, err := fmt.Sscanf(out[idx:], "SAP/original data ratio: %fx", &ratio); err != nil {
		t.Fatal(err)
	}
	if ratio < 5 || ratio > 25 {
		t.Errorf("data inflation ratio = %.1f, paper reports ~10x", ratio)
	}
}
