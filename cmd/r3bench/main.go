// Command r3bench regenerates the paper's tables: it loads the TPC-D
// population into both the original-schema database and the SAP R/3
// simulator, runs the selected experiments, and prints paper-style
// results on the simulated 1996 clock.
//
// Usage:
//
//	r3bench [-sf 0.02] [-parallel 1] [-streams 8] [-shards 8] [-array-fetch] [-exp all|ID,ID,...]
//
// `r3bench -h` lists the experiment IDs (they come from the registry in
// internal/core, where every experiment registers itself).
// The paper runs at SF=0.2; the default 0.02 keeps a full run to minutes
// of wall time. Simulated times scale approximately linearly with SF.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"r3bench/internal/core"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
)

func main() {
	sf := flag.Float64("sf", core.DefaultSF, "TPC-D scale factor (paper: 0.2)")
	parallel := flag.Int("parallel", 1, "intra-query parallel degree (1 = serial, as in the paper)")
	exp := flag.String("exp", "all", "experiments to run: all, or comma-separated from "+strings.Join(core.IDs(), ","))
	streams := flag.Int("streams", 0, "largest concurrent query-stream count the throughput experiment sweeps to (0 = default 8)")
	shards := flag.Int("shards", 0, "widest engine-shard cluster the shardscale experiment sweeps to (0 = default 8)")
	arrayFetch := flag.Bool("array-fetch", false, "ship result rows in array-fetch packets instead of one interface round trip per row (off = the paper's per-row interface)")
	showMetrics := flag.Bool("metrics", false, "print the cumulative metrics registry after the run")
	metricsJSON := flag.String("metrics-json", "", "write the metrics registry as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "r3bench: creating CPU profile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "r3bench: starting CPU profile:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	cfg := &core.Config{SF: *sf, Streams: *streams, Shards: *shards,
		Options: r3.Options{Engine: engine.Options{Parallel: *parallel, ArrayFetch: *arrayFetch}},
		Out:     os.Stdout}
	start := time.Now()
	var err error
	if *exp == "all" {
		err = core.RunAll(cfg)
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if err = core.RunOne(cfg, strings.TrimSpace(id)); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "r3bench:", err)
		os.Exit(1)
	}
	if *showMetrics || *metricsJSON != "" {
		reg := core.CollectMetrics(cfg)
		if *showMetrics {
			fmt.Println("\n== metrics ==")
			if err := reg.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "r3bench: writing metrics:", err)
				os.Exit(1)
			}
		}
		if *metricsJSON != "" {
			f, err := os.Create(*metricsJSON)
			if err == nil {
				err = reg.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "r3bench: writing metrics JSON:", err)
				os.Exit(1)
			}
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "r3bench: creating heap profile:", err)
			os.Exit(1)
		}
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "r3bench: writing heap profile:", err)
			os.Exit(1)
		}
		f.Close()
	}
	fmt.Printf("\n(wall time: %s)\n", time.Since(start).Round(time.Millisecond))
}
