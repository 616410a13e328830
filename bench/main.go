// Command bench is the repository's two-clock, wire-to-WAL benchmark: five
// workloads, each checked for correct answers, measured end to end on the
// real machine beside the simulated 1996 clock, and — in a separate traced
// run — layer by layer from outside the program. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the
// repository root is the contract later changes are judged by.
//
// Usage:
//
//	bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-smoke]
//	bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (1 = development, 2 = hold-out)")
	seconds := flag.Int("seconds", 10, "how long the timed passes of a run should take on the seed's box")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes (SF 0.002, one pass): every path in seconds, no timing worth reading")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	updateGolden := flag.Bool("update-golden", false, "record seed 1's warm-up digests as the goldens instead of checking them")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in spec.go define it")
	flag.Parse()

	if *printManifest {
		out, err := manifest(*seconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	// One process, two processors, at most two connections: the load
	// generator, the server and the engine share what the box has.
	runtime.GOMAXPROCS(2)

	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("no workload %q", *workloadName))
		}
		selected = []workload{*w}
	}
	dir := benchDir()
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		fatal(err)
	}
	ok := true
	var last *result
	for i := range selected {
		w := &selected[i]
		cfg := &runCfg{w: w, sz: w.full, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			dir: dir, log: os.Stderr, updateGolden: *updateGolden}
		if *smoke {
			cfg.sz = w.smoke
		}
		res, err := w.run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		report(os.Stdout, res)
		if err := appendResult(filepath.Join(dir, "out", "results.jsonl"), res); err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		last = res
	}
	// The last line of standard output is the result object the driver
	// reads (of the one workload it asked for).
	if err := json.NewEncoder(os.Stdout).Encode(driverLine(last)); err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// benchDir finds the benchmark's own directory from the two places it is
// run from: the repository root (bench/run.sh) and bench/ itself (go run,
// go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// sortedKeys returns a map's keys in order (stable printing).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func catalogue(trace int) []metric {
	if trace != 0 {
		return perLayer
	}
	return endToEnd
}

// report prints a run's metrics by name with their units.
func report(w *os.File, res *result) {
	kind := "end to end"
	if res.Trace != 0 {
		kind = "per layer (traced run)"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %d ops attempted, %d failed (error_rate %g)\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, m := range catalogue(res.Trace) {
		fmt.Fprintf(w, "  %-38s %16.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	fmt.Fprint(w, "  class medians, ms:")
	for i, c := range sortedKeys(res.ClassMs) {
		if i%4 == 0 {
			fmt.Fprint(w, "\n   ")
		}
		fmt.Fprintf(w, " %-20s %-10.4g", c, res.ClassMs[c])
	}
	fmt.Fprintf(w, "\n  p99 within a pass, median over passes: %.4g ms\n", res.P99Ms)
	if res.Trace == 0 {
		// Both clocks side by side: what this machine does in an hour, and
		// what the 1996 machine of the cost model would.
		sim := res.Metrics["sim_pass_s"]
		fmt.Fprintf(w, "  real %.4g ops/hour; simulated %.4g ops/hour (a pass of %d ops takes %.4g sim-s)\n",
			res.OpsPerS*3600, ratio(float64(res.PassOps)*3600, sim), res.PassOps, sim)
	} else if prev := lastUntraced(res); prev != nil {
		fmt.Fprintf(w, "  tracing overhead: %.4g ops/s traced against %.4g ops/s untraced (%+.1f %%)\n",
			res.OpsPerS, prev.OpsPerS, 100*(ratio(res.OpsPerS, prev.OpsPerS)-1))
	} else {
		fmt.Fprintf(w, "  %.4g ops/s traced; run it untraced first to see the tracing overhead\n", res.OpsPerS)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
}

// driverLine is the object the contract asks for on the last line.
func driverLine(res *result) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range catalogue(res.Trace) {
		metrics[m.Name] = mv{res.Metrics[m.Name], m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}
