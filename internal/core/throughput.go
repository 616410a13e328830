package core

import (
	"fmt"
	"sync/atomic"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// The TPC-D multi-stream throughput test the paper never ran: N
// concurrent Q1–Q17 query streams against the original-schema database,
// interleaved with a dialog-transaction mix on the R/3 system (order
// entry through batch input plus the salesorder example's part
// lookups). The query streams share one engine — catalog snapshots,
// copy-on-write pages and the atomic plan cache carry the concurrency —
// and the metric is TPC-D-style queries per (simulated) hour.

// dialogKeyBase opens a private VBELN range for throughput-test order
// entry, far above anything the load or the UF1 set allocates, so
// repeated rounds (and reruns against a shared environment) never
// collide on document numbers.
const dialogKeyBase = 50_000_000

func init() {
	register(Experiment{Seq: 100, ID: "throughput", Title: "TPC-D multi-stream throughput with dialog mix",
		PaperRef: "TPC-D §5 (not in paper)", Run: runThroughput})
}

func runThroughput(cfg *Config) error {
	env := cfg.envOf()
	rdb, err := env.RDB()
	if err != nil {
		return err
	}
	sys, err := env.Sys22()
	if err != nil {
		return err
	}
	g := env.Gen

	// The dialog mix draws on the UF1 insert set: brand-new orders whose
	// customers and materials exist, entered with full consistency
	// checking. Document numbers are remapped into a private range so
	// every round enters fresh documents.
	var uf1 []*dbgen.Order
	if err := g.UF1Orders(func(o *dbgen.Order) error {
		c := *o
		uf1 = append(uf1, &c)
		return nil
	}); err != nil {
		return err
	}

	cfg.printf("%-8s  %8s  %14s  %10s  %8s  %14s\n",
		"streams", "queries", "wall (sim)", "QphD", "orders", "dialog wall")
	var nextKey atomic.Int64
	nextKey.Store(dialogKeyBase)
	for _, n := range sweep(cfg.Streams) {
		// One dialog stream per query stream, each on its own virtual
		// clock: enter a slice of the UF1 orders through batch input,
		// then look up every entered line's material through Open SQL —
		// the salesorder example's transaction mix. Lane 0 drives the
		// query streams, which charge their sessions' clocks, so its meter
		// stays at zero and the lanes' Elapsed is the dialogs' wall; lane
		// w > 0 runs dialog w-1.
		lanes := cost.NewLanes(sys.DB.Model(), n+1)
		var tr *tpcd.ThroughputResult
		var orders atomic.Int64
		err := lanes.Run(func(w int, m *cost.Meter) error {
			if w == 0 {
				var err error
				tr, err = tpcd.RunThroughput(rdb, g, n)
				return err
			}
			bi := sys.NewBatchInputWithMeter(1, m)
			o := sys.OpenSQL(m)
			for i := w - 1; i < len(uf1); i += n {
				ord := *uf1[i]
				ord.Key = nextKey.Add(1)
				ord.Lines = append([]dbgen.Lineitem(nil), ord.Lines...)
				for j := range ord.Lines {
					ord.Lines[j].OrderKey = ord.Key
				}
				if err := bi.EnterOrder(&ord); err != nil {
					return err
				}
				orders.Add(1)
				for _, l := range ord.Lines {
					matnr := val.Str(r3.Key16(l.PartKey))
					if _, _, err := o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", matnr)}); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		dialogWall := lanes.Elapsed()
		cfg.printf("%-8d  %8d  %14s  %10.1f  %8d  %14s\n",
			n, tr.Queries, cost.Fmt(tr.Wall), tr.QPH, orders.Load(), cost.Fmt(dialogWall))
		cfg.registry().Set(fmt.Sprintf("throughput.qph.streams%d", n), tr.QPH)
	}
	cfg.printf("\nQphD = queries per simulated hour across all streams (wall = slowest\nstream); the dialog mix runs concurrently on the R/3 system. The paper\n(like most published numbers) reports only single-stream power times —\nthis is the multi-user half TPC-D defines and Section 2 calls for.\n")
	return nil
}
