package core

import (
	"fmt"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
)

// The loadpath experiment is the modern ablation of the paper's Table 3:
// the dialog-scale batch input took 26 days at SF=0.2 because every
// record paid the full consistency pipeline, a tuple-at-a-time insert
// and a commit per transaction. This run measures, on the same simulated
// hardware, what each modern ingredient buys — durability via
// write-ahead logging (commit forces the log instead of flushing data
// pages), group commit (concurrent commits share one force), and the
// direct path (full pages built below the WAL with bottom-up index
// builds and batched checks) — and proves the query answers don't care
// which road the data took in.

func init() {
	register(Experiment{Seq: 120, ID: "loadpath", Title: "WAL, group commit and direct-path load vs batch input",
		PaperRef: "Table 3 ablation (not in paper)", Run: runLoadPath})
}

// loadVariant is one cell of the ablation.
type loadVariant struct {
	key     string // metrics key: loadpath.simms.<key>
	label   string
	durable bool
	group   int  // group-commit size when durable
	direct  bool // direct path instead of batch input
}

func loadVariants() []loadVariant {
	return []loadVariant{
		{"batchinput", "batch input (2 procs)", false, 0, false},
		{"batchinput_wal", "batch input + WAL", true, 1, false},
		{"batchinput_group", "batch input + WAL + group commit", true, 32, false},
		{"directpath", "direct path (4 lanes)", false, 0, true},
		{"directpath_wal", "direct path + WAL + group commit", true, 32, true},
	}
}

// loadPathWorkers is the direct path's parallel degree — the same
// two-worker spirit as the paper's batch input, but the direct path
// scales with table-ownership lanes.
const loadPathWorkers = 4

// runLoadVariant installs a fresh system and loads it the variant's way,
// returning the system, simulated load time and record count.
func runLoadVariant(cfg *Config, v loadVariant, g *dbgen.Generator) (*r3.System, time.Duration, int64, error) {
	sys, err := r3.Install(r3.Config{Release: r3.Release22, Durable: v.durable, GroupCommit: v.group})
	if err != nil {
		return nil, 0, 0, err
	}
	if v.direct {
		dp := sys.NewDirectPath(loadPathWorkers)
		if err := dp.Load(g); err != nil {
			return nil, 0, 0, err
		}
		return sys, dp.Elapsed(), dp.Records(), nil
	}
	b := sys.NewBatchInput(2)
	if err := b.Load(g, nil); err != nil {
		return nil, 0, 0, err
	}
	if err := sys.DB.AnalyzeAll(); err != nil {
		return nil, 0, 0, err
	}
	return sys, b.Elapsed(), b.Records(), nil
}

// queryFingerprint renders Q1–Q17 answers to a canonical form.
func queryFingerprint(sys *r3.System, g *dbgen.Generator) ([]string, error) {
	impl := reports.New(sys, g, reports.Open22)
	out := make([]string, 0, 17)
	for q := 1; q <= 17; q++ {
		rows, err := impl.RunQuery(q)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q, err)
		}
		s := fmt.Sprintf("Q%d:", q)
		for _, row := range rows {
			s += fmt.Sprintf("%v;", row)
		}
		out = append(out, s)
	}
	return out, nil
}

func runLoadPath(cfg *Config) error {
	g, reg := cfg.envOf().Gen, cfg.registry()

	cfg.printf("%-36s  %10s  %16s  %9s  %8s  %9s\n",
		"", "records", "loading time", "speedup", "fsyncs", "avg group")
	var baseline, direct time.Duration
	var fingerprints [][]string
	for _, v := range loadVariants() {
		sys, sim, records, err := runLoadVariant(cfg, v, g)
		if err != nil {
			return fmt.Errorf("%s: %w", v.key, err)
		}
		reg.Set("loadpath.simms."+v.key, simMS(sim))
		speedup := "—"
		if v.key == "directpath" {
			direct = sim
		}
		if v.key == "batchinput" {
			baseline = sim
		} else if baseline > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(baseline)/float64(sim))
		}
		fsyncs, group := "—", "—"
		if w := sys.DB.WAL(); w != nil {
			ws := w.Stats()
			addWalStats(reg, "loadpath.wal."+v.key, ws)
			fsyncs = fmt.Sprintf("%d", ws.Fsyncs)
			if ws.Groups > 0 {
				group = fmt.Sprintf("%.1f", float64(ws.GroupSum)/float64(ws.Groups))
			}
		}
		cfg.printf("%-36s  %10d  %16s  %9s  %8s  %9s\n",
			v.label, records, cost.Fmt(sim), speedup, fsyncs, group)

		// The identity half of the claim: Q1–Q17 must not care how the
		// data got in. Checked on the endpoint variants (the faithful
		// batch input and both direct paths); the WAL-only batch-input
		// variants write the same bytes through the same code path.
		if v.key == "batchinput" || v.direct {
			fp, err := queryFingerprint(sys, g)
			if err != nil {
				return fmt.Errorf("%s: %w", v.key, err)
			}
			fingerprints = append(fingerprints, fp)
		}
	}

	identical := true
	for _, fp := range fingerprints[1:] {
		for q := range fp {
			if fp[q] != fingerprints[0][q] {
				identical = false
				cfg.printf("!! %s differs between load paths\n", fp[q][:min(len(fp[q]), 40)])
			}
		}
	}
	setBool(reg, "loadpath.q_identical", identical)
	if identical {
		cfg.printf("\nQ1–Q17 answers are byte-identical across all load paths.\n")
	} else {
		return fmt.Errorf("loadpath: query answers differ between load paths")
	}
	if direct > 0 && baseline > 0 {
		reg.Set("loadpath.speedup", float64(baseline)/float64(direct))
		cfg.printf("direct path retires the batch input %.0fx over (paper Table 3:\n26 days at SF=0.2; the batch-input line above is the same pipeline at SF=%.3g)\n",
			float64(baseline)/float64(direct), cfg.SF)
	}
	return nil
}
