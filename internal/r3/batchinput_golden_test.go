package r3_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
)

// -update rewrites testdata/batchinput_golden.txt from this run instead of
// comparing against it — only for a change that is meant to move what batch
// input charges.
var updateGolden = flag.Bool("update", false, "rewrite testdata/batchinput_golden.txt from this run")

// counts renders a meter's event counts of every kind, in kind order, and
// fails t unless the meter's elapsed is those counts priced to the
// nanosecond — true of a serial meter and of lanes summed (AddSum).
func counts(t *testing.T, name string, m *cost.Meter) string {
	t.Helper()
	var parts []string
	var priced time.Duration
	for k := cost.Kind(0); k < cost.NumKinds; k++ {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m.Count(k)))
		priced += time.Duration(m.Count(k)) * m.Model().PerEvent[k]
	}
	if m.Elapsed() != priced {
		t.Errorf("%s: elapsed %d ns, Σ Count × PerEvent %d ns", name, m.Elapsed(), priced)
	}
	return strings.Join(parts, " ")
}

// TestBatchInputGolden pins what the dialog charges: for Table 3's
// configuration (two lanes, no WAL) and loadpath's two logged variants at
// SF 0.002, each entity stream's records and end lap, the total lap, the
// summed lanes' event counts and the log's counters; and the exact lap and
// counts of UF1 and UF2 on the 2.2 system Table 3 loaded. A refactor of the
// batch-input path must leave the file byte-identical.
func TestBatchInputGolden(t *testing.T) {
	g := dbgen.New(0.002)
	var b strings.Builder
	var fixture *r3.System // Table 3's system, which UF1 and UF2 then run on
	for _, v := range []struct {
		name string
		cfg  r3.Config
	}{
		{"table3", r3.Config{Release: r3.Release22}},
		{"batchinput_wal", r3.Config{Release: r3.Release22, Durable: true, GroupCommit: 1}},
		{"batchinput_group", r3.Config{Release: r3.Release22, Durable: true, GroupCommit: 32}},
	} {
		sys, err := r3.Install(v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bi := sys.NewBatchInput(2)
		if err := bi.Load(g, func(anchor string, records int64) {
			fmt.Fprintf(&b, "%s stream=%s records=%d end_ns=%d\n", v.name, anchor, records, bi.Elapsed().Nanoseconds())
		}); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		fmt.Fprintf(&b, "%s total_ns=%d records=%d\n", v.name, bi.Elapsed().Nanoseconds(), bi.Records())
		fmt.Fprintf(&b, "%s counts %s\n", v.name, counts(t, v.name, bi.Meter()))
		if w := sys.DB.WAL(); w != nil {
			fmt.Fprintf(&b, "%s wal %+v\n", v.name, w.Stats())
		}
		if fixture == nil {
			fixture = sys
		}
	}

	// The fixture was loaded through batch input, which leaves no
	// statistics; give it those LoadDirect would have built.
	if err := fixture.DB.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	for _, uf := range []struct {
		name string
		run  func(*reports.SAPImpl) error
	}{{"UF1", (*reports.SAPImpl).RunUF1}, {"UF2", (*reports.SAPImpl).RunUF2}} {
		impl := reports.New(fixture, g, reports.Open22) // a meter of its own
		if err := uf.run(impl); err != nil {
			t.Fatalf("%s: %v", uf.name, err)
		}
		fmt.Fprintf(&b, "%s lap_ns=%d counts %s\n", uf.name, impl.Meter().Elapsed().Nanoseconds(), counts(t, uf.name, impl.Meter()))
	}

	const path = "testdata/batchinput_golden.txt"
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
	if got := b.String(); got != string(want) {
		t.Errorf("batch input's charges moved; got\n%swant\n%s", got, want)
	}
}
