package shard

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// -update rewrites testdata/cluster_golden.txt from this run instead of
// comparing against it — only for a change that is meant to move what a
// distributed run charges.
var updateGolden = flag.Bool("update", false, "rewrite testdata/cluster_golden.txt from this run")

// TestClusterChargesGolden pins what a distributed run charges: for Q1–Q17,
// UF1 and UF2 on 1, 2, 4 and 8 shards, the cluster meter's exact lap, the
// exchange rows booked to the query, its class and the names of the phases
// under its span, in order. Degree 1 only: lanes racing for a shared pool
// make a degree-2 lap vary. A refactor of the planner or the exchanges must
// leave the file byte-identical.
func TestClusterChargesGolden(t *testing.T) {
	var b strings.Builder
	for _, shards := range []int{1, 2, 4, 8} {
		c := loadedCluster(t, shards, 1)
		for q := 1; q <= 17; q++ {
			start := c.Meter().Elapsed()
			if _, err := c.RunQuery(q); err != nil {
				t.Fatalf("shards=%d Q%d: %v", shards, q, err)
			}
			lap := c.Meter().Lap(start)
			var phases []string
			for _, sp := range c.LastSpan().Children() {
				phases = append(phases, sp.Name())
			}
			fmt.Fprintf(&b, "shards=%d Q%d lap_ns=%d shipped=%d class=%s phases=[%s]\n",
				shards, q, lap.Nanoseconds(), c.ShippedFor(q), QueryClass(q), strings.Join(phases, " | "))
		}
		for _, uf := range []struct {
			name string
			run  func() error
		}{{"UF1", c.RunUF1}, {"UF2", c.RunUF2}} {
			start := c.Meter().Elapsed()
			if err := uf.run(); err != nil {
				t.Fatalf("shards=%d %s: %v", shards, uf.name, err)
			}
			fmt.Fprintf(&b, "shards=%d %s lap_ns=%d\n", shards, uf.name, c.Meter().Lap(start).Nanoseconds())
		}
	}
	const path = "testdata/cluster_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("ran %d lines, golden has %d", len(got), len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Errorf("got  %s\nwant %s", got[i], lines[i])
		}
	}
}
