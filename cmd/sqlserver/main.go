// Command sqlserver serves the embedded engine over the wire protocol,
// optionally preloaded with a TPC-D population. Every accepted
// connection is an independent session with its own simulated-cost
// meter; concurrent clients exercise the engine's snapshot catalog and
// copy-on-write storage exactly as the multi-stream throughput harness
// does in-process.
//
// Usage:
//
//	sqlserver [-addr :4711] [-load 0.01] [-array] [-degree 2]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/server"
	"r3bench/internal/tpcd"
)

func main() {
	addr := flag.String("addr", ":4711", "listen address")
	load := flag.Float64("load", 0, "preload a TPC-D population at this scale factor (0 = empty database)")
	array := flag.Bool("array", false, "enable the array-fetch interface (packet-granular row shipping)")
	degree := flag.Int("degree", 1, "intra-query parallel degree")
	flag.Parse()

	db := engine.Open(engine.Config{})
	db.SetOptions(engine.Options{ArrayFetch: *array, Parallel: *degree})
	if *load > 0 {
		fmt.Printf("loading TPC-D SF=%g...\n", *load)
		if err := tpcd.Load(db, dbgen.New(*load), nil); err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("sqlserver listening on %s\n", l.Addr())
	if err := server.New(db).Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
