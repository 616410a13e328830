package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(pairs ...any) *snapshot {
	s := &snapshot{}
	for i := 0; i < len(pairs); i += 2 {
		s.Benchmarks = append(s.Benchmarks, benchmark{
			Name:  pairs[i].(string),
			SimMS: pairs[i+1].(float64),
		})
	}
	return s
}

func allocSnap(pairs ...any) *snapshot {
	s := &snapshot{}
	for i := 0; i < len(pairs); i += 2 {
		s.Benchmarks = append(s.Benchmarks, benchmark{
			Name:        pairs[i].(string),
			AllocsPerOp: pairs[i+1].(float64),
		})
	}
	return s
}

func bytesSnap(name string, bytes float64) *snapshot {
	return &snapshot{Benchmarks: []benchmark{{Name: name, BytesPerOp: bytes}}}
}

func metricSnap(pairs ...any) *snapshot {
	s := &snapshot{Metrics: map[string]float64{}}
	for i := 0; i < len(pairs); i += 2 {
		s.Metrics[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return s
}

// printed is one row of the report as a reader sees it.
type printed struct {
	name, status, line string
}

// outcome is a parsed report: the rows of every section by title, the
// FAIL lines and the verdict.
type outcome struct {
	sections map[string][]printed
	fails    []string
	failed   bool
}

// diff runs the checked-in gate table over two snapshots and parses what
// it printed. A row's status is its last column when that is a gate's
// label or ADDED/REMOVED.
func diff(t *testing.T, oldS, newS *snapshot) outcome {
	t.Helper()
	labels, captions := map[string]bool{"ADDED": true, "REMOVED": true}, map[string]bool{}
	for _, g := range gates {
		labels[g.label] = true
		captions[g.caption] = g.caption != ""
	}
	var buf bytes.Buffer
	o := outcome{sections: map[string][]printed{}}
	o.failed = run(&buf, oldS, newS)
	for _, block := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n\n") {
		lines := strings.Split(block, "\n")
		if msg, ok := strings.CutPrefix(lines[0], "FAIL: "); ok {
			o.fails = append(o.fails, msg)
			continue
		}
		if strings.HasPrefix(lines[0], "OK: ") {
			continue
		}
		title := strings.TrimSpace(lines[0][:36])
		for _, line := range lines[1:] {
			if captions[strings.TrimSpace(line[:36])] {
				continue // the quotient line under a section
			}
			f := strings.Fields(line)
			p := printed{name: f[0], line: line}
			if labels[f[len(f)-1]] {
				p.status = f[len(f)-1]
			}
			o.sections[title] = append(o.sections[title], p)
		}
	}
	if o.failed != (len(o.fails) > 0) {
		t.Fatalf("failed=%v but the report has %d FAIL lines:\n%s", o.failed, len(o.fails), buf.String())
	}
	return o
}

// want checks a section's rows against name → status, in any order.
func (o outcome) want(t *testing.T, title string, statuses map[string]string) {
	t.Helper()
	rows := o.sections[title]
	if len(rows) != len(statuses) {
		t.Fatalf("%s: got %d rows, want %d: %+v", title, len(rows), len(statuses), rows)
	}
	for _, r := range rows {
		if status, ok := statuses[r.name]; !ok || r.status != status {
			t.Errorf("%s: %s has status %q, want %q (listed: %v)", title, r.name, r.status, status, ok)
		}
	}
}

func TestDiffStatuses(t *testing.T) {
	oldS := snap("stable", 100.0, "regressed", 100.0, "improved", 100.0, "removed", 50.0)
	newS := snap("stable", 105.0, "regressed", 130.0, "improved", 60.0, "added", 42.0)
	o := diff(t, oldS, newS)
	if !o.failed {
		t.Fatalf("diff reported no failure despite a 30%% regression")
	}
	o.want(t, "benchmark", map[string]string{
		"stable": "", "regressed": "REGRESSION", "improved": "", "added": "ADDED", "removed": "REMOVED",
	})
}

func TestDiffOneSidedRowsDoNotFail(t *testing.T) {
	o := diff(t, snap("removed", 10.0), snap("added", 99999.0))
	if o.failed {
		t.Fatalf("one-sided benchmarks must not fail the gate")
	}
	o.want(t, "benchmark", map[string]string{"added": "ADDED", "removed": "REMOVED"})
}

func TestDiffRowOrderAndFields(t *testing.T) {
	o := diff(t, snap("b", 200.0, "gone", 10.0), snap("a", 1.0, "b", 210.0))
	if o.failed {
		t.Fatalf("5%% growth under a 10%% threshold must pass")
	}
	rows := o.sections["benchmark"]
	for i, n := range []string{"a", "b", "gone"} { // new-snapshot order, removed appended
		if rows[i].name != n {
			t.Fatalf("row %d = %q, want %q", i, rows[i].name, n)
		}
	}
	if !strings.Contains(rows[1].line, "+5.0%") {
		t.Errorf("b: row %q does not show +5.0%%", rows[1].line)
	}
}

func TestDiffZeroOldBaseline(t *testing.T) {
	// old == 0 must not divide by zero or flag a regression.
	o := diff(t, snap("z", 0.0), snap("z", 5.0))
	if o.failed {
		t.Fatal("zero baseline flagged")
	}
	o.want(t, "benchmark", map[string]string{"z": ""})
}

func TestParseAllocsCeiling(t *testing.T) {
	newS := allocSnap(
		"BenchmarkParseSelect", 11.0,
		"BenchmarkParseDML", 20.0,
		"BenchmarkParseSelectOld", 131.0, // preserved pre-rewrite parser: exempt
		"BenchmarkPower22_RDBMS", 5000.0, // not a parse benchmark: ignored
	)
	o := diff(t, &snapshot{}, newS)
	if !o.failed {
		t.Fatal("20 allocs/op over a 16 ceiling must fail")
	}
	// Old and non-parse benchmarks are not listed, in NEW's order.
	o.want(t, "parse allocs/op (ceiling)", map[string]string{
		"BenchmarkParseSelect": "", "BenchmarkParseDML": "PARSE-ALLOCS",
	})
	if rows := o.sections["parse allocs/op (ceiling)"]; rows[0].name != "BenchmarkParseSelect" {
		t.Errorf("rows out of NEW's order: %+v", rows)
	}
}

func TestParseAllocsSkipsUnmeasured(t *testing.T) {
	// Snapshots whose parse benchmarks carry no allocs/op (or predate
	// them entirely) contribute no rows and cannot fail.
	o := diff(t, &snapshot{}, allocSnap("BenchmarkParseSelect", 0.0))
	if rows := o.sections["parse allocs/op (ceiling)"]; o.failed || len(rows) != 0 {
		t.Fatalf("unmeasured benchmark produced rows=%v failed=%v", rows, o.failed)
	}
}

func TestHitRatioFloor(t *testing.T) {
	newS := metricSnap(
		"sap22.pool.hit_ratio", 0.89,
		"rdb.pool.hit_ratio", 0.95,
		"sap22.pool.readahead.windows", 5.0, // not a hit ratio: ignored
	)
	o := diff(t, metricSnap(), newS)
	if !o.failed {
		t.Fatal("0.89 under a 0.92 floor must fail")
	}
	// rdb clears the floor but is absent from the old snapshot, so it
	// reports as ADDED; the floor applies to new-only metrics too.
	o.want(t, "hit-ratio metric", map[string]string{"rdb.pool.hit_ratio": "ADDED", "sap22.pool.hit_ratio": "LOW"})
	if rows := o.sections["hit-ratio metric"]; rows[0].name != "rdb.pool.hit_ratio" {
		t.Errorf("rows not sorted by name: %+v", rows)
	}
}

func TestHitRatioRemovedReported(t *testing.T) {
	// A hit ratio present only in the old snapshot must surface as
	// REMOVED instead of vanishing silently — a gated metric
	// disappearing is exactly what the gate's reader needs to see.
	oldS := metricSnap("sap22.pool.hit_ratio", 0.95, "sap22.pool.readahead.windows", 5.0)
	o := diff(t, oldS, metricSnap("rdb.pool.hit_ratio", 0.99))
	if o.failed {
		t.Fatal("one-sided hit-ratio rows must not fail the gate")
	}
	o.want(t, "hit-ratio metric", map[string]string{"rdb.pool.hit_ratio": "ADDED", "sap22.pool.hit_ratio": "REMOVED"})
}

func TestHitRatioDrop(t *testing.T) {
	oldS := metricSnap("sap22.pool.hit_ratio", 0.95)
	// 2.5pp drop > 2pp gate, even though 0.925 clears the floor.
	o := diff(t, oldS, metricSnap("sap22.pool.hit_ratio", 0.925))
	if !o.failed {
		t.Fatal("2.5pp drop not flagged")
	}
	o.want(t, "hit-ratio metric", map[string]string{"sap22.pool.hit_ratio": "DROP"})
	// A 1.5pp drop stays within the gate.
	o = diff(t, oldS, metricSnap("sap22.pool.hit_ratio", 0.935))
	if o.failed {
		t.Fatal("1.5pp drop flagged")
	}
	o.want(t, "hit-ratio metric", map[string]string{"sap22.pool.hit_ratio": ""})
}

func TestQPHAddedRemovedReported(t *testing.T) {
	oldS := metricSnap("throughput.qph.streams8", 120.0, "throughput.qph.streams2", 80.0)
	newS := metricSnap("throughput.qph.streams2", 79.0, "throughput.qph.streams4", 100.0)
	o := diff(t, oldS, newS)
	if o.failed {
		t.Fatal("one-sided qph rows must not fail the gate")
	}
	o.want(t, "queries/hour", map[string]string{
		"throughput.qph.streams2": "", "throughput.qph.streams4": "ADDED", "throughput.qph.streams8": "REMOVED",
	})
}

func TestShardScalingGate(t *testing.T) {
	newS := metricSnap(
		"shardscale.simms.shards1", 3600.0,
		"shardscale.simms.shards4", 1800.0, // 2.0x speedup
		"shardscale.net.rows_shipped", 14352.0,
	)
	var buf bytes.Buffer
	if run(&buf, metricSnap(), newS) {
		t.Fatalf("2.0x speedup over a 1.5x floor must pass:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "4-shard power-test speedup") || !strings.Contains(buf.String(), " 2.00x\n") {
		t.Errorf("report does not show the 2.00x speedup:\n%s", buf.String())
	}
	// The old snapshot predates shardscale: every metric is ADDED.
	diff(t, metricSnap(), newS).want(t, "shardscale metric", map[string]string{
		"shardscale.simms.shards1": "ADDED", "shardscale.simms.shards4": "ADDED", "shardscale.net.rows_shipped": "ADDED",
	})

	// 1.2x speedup under a 1.5x floor fails on the shards4 row.
	slow := metricSnap("shardscale.simms.shards1", 3600.0, "shardscale.simms.shards4", 3000.0)
	o := diff(t, metricSnap(), slow)
	if !o.failed {
		t.Fatal("1.2x speedup under a 1.5x floor must fail")
	}
	o.want(t, "shardscale metric", map[string]string{
		"shardscale.simms.shards1": "ADDED", "shardscale.simms.shards4": "SCALING",
	})

	// A NEW snapshot without the sim-time metrics cannot fail, and an
	// old shardscale metric it dropped surfaces as REMOVED.
	o = diff(t, metricSnap("shardscale.simms.shards1", 3600.0), metricSnap())
	if o.failed {
		t.Fatal("missing metrics must not fail")
	}
	o.want(t, "shardscale metric", map[string]string{"shardscale.simms.shards1": "REMOVED"})
}

// TestGateTable trips every row of the checked-in gate table on its own:
// the smallest pair of snapshots that fails that gate must fail the run,
// put the gate's label on the named row, print the gate's FAIL line and
// no other gate's. A gate added to the table without a case here fails
// the test.
func TestGateTable(t *testing.T) {
	cases := map[string]struct {
		oldS, newS *snapshot
		title, row string
	}{
		"REGRESSION":   {snap("q", 100.0), snap("q", 111.0), "benchmark", "q"},
		"ALLOCS":       {allocSnap("q", 100.0), allocSnap("q", 111.0), "allocs/op", "q"},
		"BYTES":        {bytesSnap("q", 100.0), bytesSnap("q", 111.0), "bytes/op", "q"},
		"PARSE-ALLOCS": {&snapshot{}, allocSnap("BenchmarkParseX", 17.0), "parse allocs/op (ceiling)", "BenchmarkParseX"},
		"QPH":          {metricSnap("throughput.qph.streams2", 100.0), metricSnap("throughput.qph.streams2", 49.0), "queries/hour", "throughput.qph.streams2"},
		"SCALING": {metricSnap(), metricSnap("shardscale.simms.shards1", 140.0, "shardscale.simms.shards4", 100.0),
			"shardscale metric", "shardscale.simms.shards4"},
		"LOAD": {metricSnap(), metricSnap("loadpath.simms.batchinput", 900.0, "loadpath.simms.directpath", 100.0),
			"loadpath metric", "loadpath.simms.directpath"},
		"REFRESH": {metricSnap(), metricSnap("warehouse.simms.full", 900.0, "warehouse.simms.incremental", 100.0),
			"warehouse metric", "warehouse.simms.incremental"},
		"LOW":  {metricSnap("x.pool.hit_ratio", 0.91), metricSnap("x.pool.hit_ratio", 0.91), "hit-ratio metric", "x.pool.hit_ratio"},
		"DROP": {metricSnap("x.pool.hit_ratio", 0.99), metricSnap("x.pool.hit_ratio", 0.96), "hit-ratio metric", "x.pool.hit_ratio"},
	}
	for _, g := range gates {
		c, ok := cases[g.label]
		if !ok {
			t.Errorf("gate %s has no case", g.label)
			continue
		}
		o := diff(t, c.oldS, c.newS)
		if want := fmt.Sprintf(g.fail, g.limit); len(o.fails) != 1 || o.fails[0] != want {
			t.Errorf("%s: FAIL lines %q, want only %q", g.label, o.fails, want)
		}
		found := false
		for _, r := range o.sections[c.title] {
			if r.name == c.row {
				found = r.status == g.label
			} else if r.status != "" && r.status != "ADDED" {
				t.Errorf("%s: row %s also flagged %s", g.label, r.name, r.status)
			}
		}
		if !found {
			t.Errorf("%s: row %s of %q not labelled: %+v", g.label, c.row, c.title, o.sections[c.title])
		}
	}
	if len(cases) != len(gates) {
		t.Errorf("%d cases for %d gates", len(cases), len(gates))
	}
}

// TestGoldenPairs replays two committed snapshot pairs through the gate
// table: stdout and exit status must equal, byte for byte, what the
// hand-coded benchdiff of the commit before the table printed for them
// (recorded into testdata with the thresholds scripts/bench_diff.sh
// passed then).
func TestGoldenPairs(t *testing.T) {
	for _, pair := range [][2]string{
		{"BENCH_2026-08-08d", "BENCH_2026-09-27"},
		{"BENCH_2026-09-27b", "BENCH_2026-10-02"},
	} {
		var snaps [2]*snapshot
		for i, name := range pair {
			s, err := load(filepath.Join("..", "..", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = s
		}
		want, err := os.ReadFile(filepath.Join("testdata", pair[0]+"__"+pair[1]+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		status := 0
		if run(&buf, snaps[0], snaps[1]) {
			status = 1
		}
		fmt.Fprintf(&buf, "exit status %d\n", status)
		if buf.String() != string(want) {
			t.Errorf("%s -> %s: report differs from the recorded one:\n%s", pair[0], pair[1], buf.String())
		}
	}
}
