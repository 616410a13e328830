package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"r3bench/internal/r3"
)

// TestAllExperimentsRun drives every paper table end to end at a tiny
// scale factor and sanity-checks the printed reports.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	var buf bytes.Buffer
	cfg := &Config{SF: 0.002, Out: &buf}
	if err := RunAll(cfg); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
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
