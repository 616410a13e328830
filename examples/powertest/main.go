// Powertest: a miniature of the paper's headline experiment — the TPC-D
// power test run four ways (isolated RDBMS, Native SQL, Open SQL on
// Releases 2.2G and 3.0E) against the same population, with per-query
// simulated times side by side.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
	"r3bench/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.005, "scale factor")
	parallel := flag.Int("parallel", 1, "intra-query parallel degree (1 = serial)")
	flag.Parse()

	g := dbgen.New(*sf)
	fmt.Printf("loading TPC-D at SF=%g into four configurations...\n", *sf)

	opts := r3.Options{Engine: engine.Options{Parallel: *parallel}}
	rdb := engine.Open(engine.Config{})
	rdb.SetOptions(opts.Engine)
	if err := tpcd.Load(rdb, g, nil); err != nil {
		log.Fatal(err)
	}
	sys2, err := r3.Install(r3.Config{Release: r3.Release22})
	if err != nil {
		log.Fatal(err)
	}
	sys2.SetOptions(opts)
	if err := sys2.LoadDirect(g); err != nil {
		log.Fatal(err)
	}
	sys3, err := r3.Install(r3.Config{Release: r3.Release30})
	if err != nil {
		log.Fatal(err)
	}
	sys3.SetOptions(opts)
	if err := sys3.LoadDirect(g); err != nil {
		log.Fatal(err)
	}
	if err := sys3.ConvertToTransparent("KONV", nil); err != nil {
		log.Fatal(err)
	}
	if err := sys3.DropIndex("VBEP", "VBEP_EDATU"); err != nil {
		log.Fatal(err)
	}

	impls := []tpcd.Implementation{
		tpcd.NewRDBMS(rdb, g),
		reports.New(sys2, g, reports.Native22),
		reports.New(sys2, g, reports.Open22),
		reports.New(sys3, g, reports.Native30),
		reports.New(sys3, g, reports.Open30),
	}
	fmt.Printf("\n%-6s %14s %14s %14s %14s %14s\n",
		"", "RDBMS", "Native 2.2", "Open 2.2", "Native 3.0", "Open 3.0")
	totals := make([]int64, len(impls))
	for q := 1; q <= 17; q++ {
		fmt.Printf("Q%-5d", q)
		for i, impl := range impls {
			m := impl.Meter()
			start := m.Elapsed()
			if _, err := impl.RunQuery(q); err != nil {
				log.Fatalf("%s Q%d: %v", impl.Name(), q, err)
			}
			d := m.Lap(start)
			totals[i] += int64(d)
			fmt.Printf(" %14s", cost.Fmt(d))
		}
		fmt.Println()
	}
	fmt.Printf("%-6s", "Total")
	base := totals[0]
	for _, t := range totals {
		fmt.Printf(" %14s", cost.Fmt(time.Duration(t)))
	}
	fmt.Printf("\n%-6s", "vs DB")
	for _, t := range totals {
		fmt.Printf(" %13.1fx", float64(t)/float64(base))
	}
	fmt.Println("\n\n(paper at SF=0.2: RDBMS 1h26m; Native 2.2 6h26m; Open 2.2 13h15m;",
		"\n Native 3.0 4h10m; Open 3.0 6h06m)")
}
