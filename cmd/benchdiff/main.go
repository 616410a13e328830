// Command benchdiff compares two benchmark snapshots produced by
// scripts/bench_snapshot.sh and fails when the simulated clock
// regressed. It is the CI gate against accidental cost regressions:
//
//	benchdiff [-threshold 10] [-min-hit-ratio 0.92] [-max-hit-drop 2]
//	          [-max-allocs-increase 10] [-max-parse-allocs 16]
//	          [-min-qph-ratio 0.5] [-min-shard-scaling 1.5]
//	          [-min-load-speedup 10] [-min-refresh-speedup 10] OLD.json NEW.json
//
// Exit status 1 means at least one benchmark's sim_ms grew by more than
// the threshold percentage, a benchmark's real allocations per operation
// grew by more than -max-allocs-increase percent (the batch
// executor's win is measured in allocs/op; a regression there is a real
// wall-clock regression even when the simulated clock is unchanged), a
// front-end benchmark (BenchmarkParse*) in the new snapshot allocates
// more than the -max-parse-allocs absolute ceiling per op (the
// zero-allocation parser's guarantee is absolute, not relative —
// "BenchmarkParseSelectOld", the preserved pre-rewrite contrast, is
// exempt), or a buffer-pool hit-ratio metric in the new snapshot fell
// below -min-hit-ratio, or dropped by more than -max-hit-drop
// percentage points against the old snapshot, or a multi-stream
// throughput metric (throughput.qph.*) fell below -min-qph-ratio times
// its old value (loose by design: qph shifts with every cost-model
// change, and the gate exists to catch streams serializing against each
// other, not tuning drift), or the sharded power test's 4-shard speedup
// (shardscale.simms.shards1 / shardscale.simms.shards4) fell below
// -min-shard-scaling, or the direct-path load's speedup over batch
// input (loadpath.simms.batchinput / loadpath.simms.directpath) fell
// below -min-load-speedup — the gate that keeps Table 3's 26-day batch
// input retired — or the warehouse's incremental-refresh speedup over a
// full re-extraction (warehouse.simms.full / warehouse.simms.incremental)
// fell below -min-refresh-speedup, the gate that keeps Table 9's
// periodic rebuild retired. Benchmarks and gated metrics present in only
// one file are reported as ADDED/REMOVED but do not fail the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type snapshot struct {
	Date       string             `json:"date"`
	Benchmarks []benchmark        `json:"benchmarks"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchmark struct {
	Name        string  `json:"name"`
	SimMS       float64 `json:"sim_ms"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// diffRow is one benchmark's comparison outcome. Status is "" for a
// benchmark within threshold, "REGRESSION" past it, "ADDED" when only
// the new snapshot has it, "REMOVED" when only the old one does.
type diffRow struct {
	Name     string
	Old, New float64
	HasOld   bool
	HasNew   bool
	Delta    float64 // percent, meaningful only when both sides present
	Status   string
}

// diff compares two snapshots: rows follow the new snapshot's order with
// removed benchmarks appended in old-snapshot order; failed is true when
// any matched benchmark's sim_ms grew by more than threshold percent.
// One-sided rows never fail the gate.
func diff(oldS, newS *snapshot, threshold float64) (rows []diffRow, failed bool) {
	oldBy := make(map[string]float64, len(oldS.Benchmarks))
	for _, b := range oldS.Benchmarks {
		oldBy[b.Name] = b.SimMS
	}
	seen := make(map[string]bool, len(newS.Benchmarks))
	for _, b := range newS.Benchmarks {
		seen[b.Name] = true
		old, ok := oldBy[b.Name]
		if !ok {
			rows = append(rows, diffRow{Name: b.Name, New: b.SimMS, HasNew: true, Status: "ADDED"})
			continue
		}
		r := diffRow{Name: b.Name, Old: old, New: b.SimMS, HasOld: true, HasNew: true}
		if old != 0 {
			r.Delta = (b.SimMS - old) / old * 100
		}
		if r.Delta > threshold {
			r.Status = "REGRESSION"
			failed = true
		}
		rows = append(rows, r)
	}
	for _, b := range oldS.Benchmarks {
		if !seen[b.Name] {
			rows = append(rows, diffRow{Name: b.Name, Old: b.SimMS, HasOld: true, Status: "REMOVED"})
		}
	}
	return rows, failed
}

// hitRow is one hit-ratio metric's gate outcome.
type hitRow struct {
	Name     string
	Old, New float64
	HasOld   bool
	HasNew   bool
	Status   string // "" passes, "LOW"/"DROP" fail, "ADDED"/"REMOVED" one-sided
}

// diffHitRatios gates every `*.pool.hit_ratio` metric of the new snapshot:
// below minRatio fails outright (minRatio <= 0 disables the floor); a drop
// of more than maxDropPP percentage points against the same metric in the
// old snapshot fails as a regression. Metrics present in only one snapshot
// are reported as ADDED (floor still applies) or REMOVED (never fails).
// Rows come back sorted by name for stable output.
func diffHitRatios(oldS, newS *snapshot, minRatio, maxDropPP float64) (rows []hitRow, failed bool) {
	for name, cur := range newS.Metrics {
		if !strings.HasSuffix(name, ".pool.hit_ratio") {
			continue
		}
		r := hitRow{Name: name, New: cur, HasNew: true}
		if old, ok := oldS.Metrics[name]; ok {
			r.Old, r.HasOld = old, true
		}
		switch {
		case minRatio > 0 && cur < minRatio:
			r.Status = "LOW"
			failed = true
		case !r.HasOld:
			r.Status = "ADDED"
		case (r.Old-cur)*100 > maxDropPP:
			r.Status = "DROP"
			failed = true
		}
		rows = append(rows, r)
	}
	for name, old := range oldS.Metrics {
		if !strings.HasSuffix(name, ".pool.hit_ratio") {
			continue
		}
		if _, ok := newS.Metrics[name]; ok {
			continue
		}
		rows = append(rows, hitRow{Name: name, Old: old, HasOld: true, Status: "REMOVED"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, failed
}

// allocRow is one benchmark's allocs/op comparison.
type allocRow struct {
	Name     string
	Old, New float64
	Delta    float64 // percent
	Status   string  // "" passes, "ALLOCS" grew past the cap
}

// diffAllocs gates real allocations per operation for every benchmark
// both snapshots measured (snapshots predating allocs/op capture simply
// contribute no rows). Growth beyond maxIncreasePct percent fails;
// maxIncreasePct <= 0 disables the gate.
func diffAllocs(oldS, newS *snapshot, maxIncreasePct float64) (rows []allocRow, failed bool) {
	if maxIncreasePct <= 0 {
		return nil, false
	}
	oldBy := make(map[string]float64, len(oldS.Benchmarks))
	for _, b := range oldS.Benchmarks {
		if b.AllocsPerOp > 0 {
			oldBy[b.Name] = b.AllocsPerOp
		}
	}
	for _, b := range newS.Benchmarks {
		old, ok := oldBy[b.Name]
		if !ok || b.AllocsPerOp <= 0 {
			continue
		}
		r := allocRow{Name: b.Name, Old: old, New: b.AllocsPerOp}
		r.Delta = (b.AllocsPerOp - old) / old * 100
		if r.Delta > maxIncreasePct {
			r.Status = "ALLOCS"
			failed = true
		}
		rows = append(rows, r)
	}
	return rows, failed
}

// qphRow is one throughput metric's gate outcome.
type qphRow struct {
	Name     string
	Old, New float64
	HasOld   bool
	HasNew   bool
	Ratio    float64 // new/old, meaningful only when both sides present
	Status   string  // "" passes, "QPH" fails, "ADDED"/"REMOVED" one-sided
}

// diffQPH gates every `throughput.qph.*` metric of the new snapshot
// against the old one: a stream count whose queries-per-hour fell below
// minRatio times its old value fails. The floor is deliberately loose —
// qph moves with every cost-model change — so only a collapse (a stream
// serializing against another) trips it. Metrics present in only one
// snapshot are reported as ADDED/REMOVED and never fail; minRatio <= 0
// disables the gate.
func diffQPH(oldS, newS *snapshot, minRatio float64) (rows []qphRow, failed bool) {
	if minRatio <= 0 {
		return nil, false
	}
	for name, cur := range newS.Metrics {
		if !strings.HasPrefix(name, "throughput.qph.") {
			continue
		}
		r := qphRow{Name: name, New: cur, HasNew: true}
		if old, ok := oldS.Metrics[name]; ok && old > 0 {
			r.Old, r.HasOld = old, true
			r.Ratio = cur / old
			if r.Ratio < minRatio {
				r.Status = "QPH"
				failed = true
			}
		} else {
			r.Status = "ADDED"
		}
		rows = append(rows, r)
	}
	for name, old := range oldS.Metrics {
		if !strings.HasPrefix(name, "throughput.qph.") {
			continue
		}
		if _, ok := newS.Metrics[name]; ok {
			continue
		}
		rows = append(rows, qphRow{Name: name, Old: old, HasOld: true, Status: "REMOVED"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, failed
}

// scaleRow is one shardscale metric's comparison outcome.
type scaleRow struct {
	Name     string
	Old, New float64
	HasOld   bool
	HasNew   bool
	Status   string // "" passes, "SCALING" fails, "ADDED"/"REMOVED" one-sided
}

// diffShardScaling reports every `shardscale.` metric of both snapshots
// (one-sided entries as ADDED/REMOVED) and gates the sharded power
// test's scale-out: the 4-shard speedup — shardscale.simms.shards1
// divided by shardscale.simms.shards4, both from the NEW snapshot —
// must reach minScaling or the shards4 row fails with SCALING.
// minScaling <= 0 disables the gate (metrics still report); a NEW
// snapshot without both sim-time metrics cannot fail it.
func diffShardScaling(oldS, newS *snapshot, minScaling float64) (rows []scaleRow, speedup float64, failed bool) {
	for name, cur := range newS.Metrics {
		if !strings.HasPrefix(name, "shardscale.") {
			continue
		}
		r := scaleRow{Name: name, New: cur, HasNew: true}
		if old, ok := oldS.Metrics[name]; ok {
			r.Old, r.HasOld = old, true
		} else {
			r.Status = "ADDED"
		}
		rows = append(rows, r)
	}
	for name, old := range oldS.Metrics {
		if !strings.HasPrefix(name, "shardscale.") {
			continue
		}
		if _, ok := newS.Metrics[name]; ok {
			continue
		}
		rows = append(rows, scaleRow{Name: name, Old: old, HasOld: true, Status: "REMOVED"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })

	s1, ok1 := newS.Metrics["shardscale.simms.shards1"]
	s4, ok4 := newS.Metrics["shardscale.simms.shards4"]
	if ok1 && ok4 && s4 > 0 {
		speedup = s1 / s4
		if minScaling > 0 && speedup < minScaling {
			failed = true
			for i := range rows {
				if rows[i].Name == "shardscale.simms.shards4" {
					rows[i].Status = "SCALING"
				}
			}
		}
	}
	return rows, speedup, failed
}

// diffLoadPath reports every `loadpath.` metric of both snapshots
// (one-sided entries as ADDED/REMOVED) and gates the direct-path bulk
// load's win over row-at-a-time batch input: loadpath.simms.batchinput
// divided by loadpath.simms.directpath, both from the NEW snapshot,
// must reach minSpeedup or the directpath row fails with LOAD. The
// floor is far below the measured ~2900x — it exists to catch the
// direct path silently falling back to logged row inserts, not tuning
// drift. minSpeedup <= 0 disables the gate (metrics still report); a
// NEW snapshot without both sim-time metrics cannot fail it.
func diffLoadPath(oldS, newS *snapshot, minSpeedup float64) (rows []scaleRow, speedup float64, failed bool) {
	for name, cur := range newS.Metrics {
		if !strings.HasPrefix(name, "loadpath.") {
			continue
		}
		r := scaleRow{Name: name, New: cur, HasNew: true}
		if old, ok := oldS.Metrics[name]; ok {
			r.Old, r.HasOld = old, true
		} else {
			r.Status = "ADDED"
		}
		rows = append(rows, r)
	}
	for name, old := range oldS.Metrics {
		if !strings.HasPrefix(name, "loadpath.") {
			continue
		}
		if _, ok := newS.Metrics[name]; ok {
			continue
		}
		rows = append(rows, scaleRow{Name: name, Old: old, HasOld: true, Status: "REMOVED"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })

	batch, ok1 := newS.Metrics["loadpath.simms.batchinput"]
	direct, ok2 := newS.Metrics["loadpath.simms.directpath"]
	if ok1 && ok2 && direct > 0 {
		speedup = batch / direct
		if minSpeedup > 0 && speedup < minSpeedup {
			failed = true
			for i := range rows {
				if rows[i].Name == "loadpath.simms.directpath" {
					rows[i].Status = "LOAD"
				}
			}
		}
	}
	return rows, speedup, failed
}

// diffWarehouse reports every `warehouse.` metric of both snapshots
// (one-sided entries as ADDED/REMOVED) and gates the star-schema
// warehouse's incremental maintenance: warehouse.simms.full divided by
// warehouse.simms.incremental, both from the NEW snapshot, must reach
// minSpeedup or the incremental row fails with REFRESH. The floor is far
// below the measured speedup — it exists to catch change capture
// silently degrading into a full re-extraction, not tuning drift.
// minSpeedup <= 0 disables the gate (metrics still report); a NEW
// snapshot without both sim-time metrics cannot fail it.
func diffWarehouse(oldS, newS *snapshot, minSpeedup float64) (rows []scaleRow, speedup float64, failed bool) {
	for name, cur := range newS.Metrics {
		if !strings.HasPrefix(name, "warehouse.") {
			continue
		}
		r := scaleRow{Name: name, New: cur, HasNew: true}
		if old, ok := oldS.Metrics[name]; ok {
			r.Old, r.HasOld = old, true
		} else {
			r.Status = "ADDED"
		}
		rows = append(rows, r)
	}
	for name, old := range oldS.Metrics {
		if !strings.HasPrefix(name, "warehouse.") {
			continue
		}
		if _, ok := newS.Metrics[name]; ok {
			continue
		}
		rows = append(rows, scaleRow{Name: name, Old: old, HasOld: true, Status: "REMOVED"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })

	full, ok1 := newS.Metrics["warehouse.simms.full"]
	inc, ok2 := newS.Metrics["warehouse.simms.incremental"]
	if ok1 && ok2 && inc > 0 {
		speedup = full / inc
		if minSpeedup > 0 && speedup < minSpeedup {
			failed = true
			for i := range rows {
				if rows[i].Name == "warehouse.simms.incremental" {
					rows[i].Status = "REFRESH"
				}
			}
		}
	}
	return rows, speedup, failed
}

// parseAllocRow is one front-end benchmark's absolute allocs/op check.
type parseAllocRow struct {
	Name   string
	New    float64
	Status string // "" passes, "PARSE-ALLOCS" above the ceiling
}

// diffParseAllocs holds every BenchmarkParse* benchmark of the new
// snapshot to an absolute allocs/op ceiling — the zero-allocation front
// end's budget, independent of any baseline. Names containing "Old"
// (the preserved pre-rewrite parser kept for contrast) are exempt;
// maxAllocs <= 0 disables the gate.
func diffParseAllocs(newS *snapshot, maxAllocs float64) (rows []parseAllocRow, failed bool) {
	if maxAllocs <= 0 {
		return nil, false
	}
	for _, b := range newS.Benchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkParse") || strings.Contains(b.Name, "Old") {
			continue
		}
		if b.AllocsPerOp <= 0 {
			continue
		}
		r := parseAllocRow{Name: b.Name, New: b.AllocsPerOp}
		if b.AllocsPerOp > maxAllocs {
			r.Status = "PARSE-ALLOCS"
			failed = true
		}
		rows = append(rows, r)
	}
	return rows, failed
}

func main() {
	threshold := flag.Float64("threshold", 10, "fail when sim_ms grows by more than this percentage")
	minHitRatio := flag.Float64("min-hit-ratio", 0, "fail when any *.pool.hit_ratio metric in NEW is below this (0 disables the floor)")
	maxHitDrop := flag.Float64("max-hit-drop", 2, "fail when a *.pool.hit_ratio metric drops by more than this many percentage points vs OLD")
	maxAllocsIncrease := flag.Float64("max-allocs-increase", 10, "fail when a benchmark's allocs/op grows by more than this percentage vs OLD (0 disables)")
	maxParseAllocs := flag.Float64("max-parse-allocs", 16, "fail when a BenchmarkParse* benchmark in NEW exceeds this many allocs/op outright (0 disables)")
	minQPHRatio := flag.Float64("min-qph-ratio", 0.5, "fail when a throughput.qph.* metric falls below this fraction of its OLD value (0 disables)")
	minShardScaling := flag.Float64("min-shard-scaling", 0, "fail when NEW's 4-shard power-test speedup (shardscale.simms.shards1/shards4) is below this multiple (0 disables)")
	minLoadSpeedup := flag.Float64("min-load-speedup", 10, "fail when NEW's direct-path load speedup (loadpath.simms.batchinput/directpath) is below this multiple (0 disables)")
	minRefreshSpeedup := flag.Float64("min-refresh-speedup", 10, "fail when NEW's incremental warehouse-refresh speedup (warehouse.simms.full/incremental) is below this multiple (0 disables)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldS, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newS, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	rows, failed := diff(oldS, newS, *threshold)
	fmt.Printf("%-36s %12s %12s %9s\n", "benchmark", "old sim_ms", "new sim_ms", "delta")
	for _, r := range rows {
		switch {
		case !r.HasOld:
			fmt.Printf("%-36s %12s %12.4g %9s\n", r.Name, "-", r.New, r.Status)
		case !r.HasNew:
			fmt.Printf("%-36s %12.4g %12s %9s\n", r.Name, r.Old, "-", r.Status)
		default:
			mark := ""
			if r.Status != "" {
				mark = "  " + r.Status
			}
			fmt.Printf("%-36s %12.4g %12.4g %+8.1f%%%s\n", r.Name, r.Old, r.New, r.Delta, mark)
		}
	}
	allocRows, allocsFailed := diffAllocs(oldS, newS, *maxAllocsIncrease)
	if len(allocRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s %9s\n", "allocs/op", "old", "new", "delta")
		for _, r := range allocRows {
			mark := ""
			if r.Status != "" {
				mark = "  " + r.Status
			}
			fmt.Printf("%-36s %12.4g %12.4g %+8.1f%%%s\n", r.Name, r.Old, r.New, r.Delta, mark)
		}
	}
	parseRows, parseFailed := diffParseAllocs(newS, *maxParseAllocs)
	if len(parseRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s\n", "parse allocs/op (ceiling)", "new", "")
		for _, r := range parseRows {
			fmt.Printf("%-36s %12.4g %12s\n", r.Name, r.New, r.Status)
		}
	}
	qphRows, qphFailed := diffQPH(oldS, newS, *minQPHRatio)
	if len(qphRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s %9s\n", "queries/hour", "old", "new", "ratio")
		for _, r := range qphRows {
			switch {
			case !r.HasOld:
				fmt.Printf("%-36s %12s %12.4g %9s\n", r.Name, "-", r.New, r.Status)
			case !r.HasNew:
				fmt.Printf("%-36s %12.4g %12s %9s\n", r.Name, r.Old, "-", r.Status)
			default:
				mark := ""
				if r.Status != "" {
					mark = "  " + r.Status
				}
				fmt.Printf("%-36s %12.4g %12.4g %8.2fx%s\n", r.Name, r.Old, r.New, r.Ratio, mark)
			}
		}
	}
	scaleRows, speedup, scaleFailed := diffShardScaling(oldS, newS, *minShardScaling)
	if len(scaleRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s %9s\n", "shardscale metric", "old", "new", "")
		for _, r := range scaleRows {
			switch {
			case !r.HasOld:
				fmt.Printf("%-36s %12s %12.4g %9s\n", r.Name, "-", r.New, r.Status)
			case !r.HasNew:
				fmt.Printf("%-36s %12.4g %12s %9s\n", r.Name, r.Old, "-", r.Status)
			default:
				fmt.Printf("%-36s %12.4g %12.4g %9s\n", r.Name, r.Old, r.New, r.Status)
			}
		}
		if speedup > 0 {
			fmt.Printf("%-36s %35.2fx\n", "4-shard power-test speedup", speedup)
		}
	}
	loadRows, loadSpeedup, loadFailed := diffLoadPath(oldS, newS, *minLoadSpeedup)
	if len(loadRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s %9s\n", "loadpath metric", "old", "new", "")
		for _, r := range loadRows {
			switch {
			case !r.HasOld:
				fmt.Printf("%-36s %12s %12.4g %9s\n", r.Name, "-", r.New, r.Status)
			case !r.HasNew:
				fmt.Printf("%-36s %12.4g %12s %9s\n", r.Name, r.Old, "-", r.Status)
			default:
				fmt.Printf("%-36s %12.4g %12.4g %9s\n", r.Name, r.Old, r.New, r.Status)
			}
		}
		if loadSpeedup > 0 {
			fmt.Printf("%-36s %35.1fx\n", "direct-path load speedup", loadSpeedup)
		}
	}
	whRows, whSpeedup, whFailed := diffWarehouse(oldS, newS, *minRefreshSpeedup)
	if len(whRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s %9s\n", "warehouse metric", "old", "new", "")
		for _, r := range whRows {
			switch {
			case !r.HasOld:
				fmt.Printf("%-36s %12s %12.4g %9s\n", r.Name, "-", r.New, r.Status)
			case !r.HasNew:
				fmt.Printf("%-36s %12.4g %12s %9s\n", r.Name, r.Old, "-", r.Status)
			default:
				fmt.Printf("%-36s %12.4g %12.4g %9s\n", r.Name, r.Old, r.New, r.Status)
			}
		}
		if whSpeedup > 0 {
			fmt.Printf("%-36s %35.1fx\n", "incremental refresh speedup", whSpeedup)
		}
	}
	hitRows, hitFailed := diffHitRatios(oldS, newS, *minHitRatio, *maxHitDrop)
	if len(hitRows) > 0 {
		fmt.Printf("\n%-36s %12s %12s %9s\n", "hit-ratio metric", "old", "new", "")
		for _, r := range hitRows {
			oldCol := "-"
			if r.HasOld {
				oldCol = fmt.Sprintf("%.4f", r.Old)
			}
			fmt.Printf("%-36s %12s %12.4f %9s\n", r.Name, oldCol, r.New, r.Status)
		}
	}

	if failed {
		fmt.Printf("\nFAIL: at least one benchmark regressed by more than %.4g%% simulated time\n", *threshold)
		os.Exit(1)
	}
	if allocsFailed {
		fmt.Printf("\nFAIL: a benchmark's allocs/op grew by more than %.4g%%\n", *maxAllocsIncrease)
		os.Exit(1)
	}
	if parseFailed {
		fmt.Printf("\nFAIL: a parse benchmark exceeds the %.4g allocs/op ceiling\n", *maxParseAllocs)
		os.Exit(1)
	}
	if hitFailed {
		fmt.Printf("\nFAIL: a pool hit ratio is below %.4g or dropped by more than %.4gpp\n", *minHitRatio, *maxHitDrop)
		os.Exit(1)
	}
	if qphFailed {
		fmt.Printf("\nFAIL: a throughput.qph metric fell below %.4gx its old value\n", *minQPHRatio)
		os.Exit(1)
	}
	if scaleFailed {
		fmt.Printf("\nFAIL: the 4-shard power-test speedup %.2fx is below %.4gx\n", speedup, *minShardScaling)
		os.Exit(1)
	}
	if loadFailed {
		fmt.Printf("\nFAIL: the direct-path load speedup %.1fx is below %.4gx\n", loadSpeedup, *minLoadSpeedup)
		os.Exit(1)
	}
	if whFailed {
		fmt.Printf("\nFAIL: the incremental warehouse-refresh speedup %.1fx is below %.4gx\n", whSpeedup, *minRefreshSpeedup)
		os.Exit(1)
	}
	fmt.Printf("\nOK: no benchmark regressed by more than %.4g%% simulated time\n", *threshold)
}
