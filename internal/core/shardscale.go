package core

import (
	"fmt"

	"r3bench/internal/cost"
	"r3bench/internal/shard"
	"r3bench/internal/tpcd"
)

// The shard-scaling experiment the 1996 paper could not run: the same
// TPC-D power test against hash-partitioned engine clusters of
// increasing width. Every configuration loads the identical population
// (partitioned by the deterministic hash), runs Q1–Q17 + UF1/UF2 on
// the shared virtual clock, and must return byte-identical results —
// the speedup row at the bottom is therefore a pure cost-model
// statement about partitioned scans, exchange traffic and the
// unparallelizable gather-mode queries.

func init() {
	register(Experiment{Seq: 110, ID: "shardscale", Title: "Sharded scale-out power test (1/2/4/8 shards)",
		PaperRef: "scale-out (not in paper)", Run: runShardScale})
}

func runShardScale(cfg *Config) error {
	env, reg := cfg.envOf(), cfg.registry()
	counts := sweep(cfg.Shards)

	results := make([]*tpcd.PowerResult, 0, len(counts))
	clusters := make([]*shard.Cluster, 0, len(counts))
	for _, n := range counts {
		c := shard.Open(shard.Config{Shards: n, Options: cfg.Options.Engine})
		if err := c.Load(env.Gen); err != nil {
			return err
		}
		pr := tpcd.RunPowerTest(c)
		for _, st := range pr.Steps {
			if st.Err != nil {
				return st.Err
			}
		}
		results = append(results, pr)
		clusters = append(clusters, c)
		reg.Set(fmt.Sprintf("shardscale.simms.shards%d", n), simMS(pr.TotalAll))
	}

	// Per-step table, one column per cluster width.
	cfg.printf("%-14s", "Query/Update")
	for _, n := range counts {
		cfg.printf("  %14s", plural(n))
	}
	cfg.printf("\n")
	for i := range results[0].Steps {
		cfg.printf("%-14s", results[0].Steps[i].Label)
		for _, pr := range results {
			cfg.printf("  %14s", cost.Fmt(pr.Steps[i].Elapsed))
		}
		cfg.printf("\n")
	}
	cfg.printf("%-14s", "Total (quer.)")
	for _, pr := range results {
		cfg.printf("  %14s", cost.Fmt(pr.TotalQ))
	}
	cfg.printf("\n%-14s", "Total (all)")
	for _, pr := range results {
		cfg.printf("  %14s", cost.Fmt(pr.TotalAll))
	}
	cfg.printf("\n%-14s", "speedup")
	base := results[0].TotalAll
	for _, pr := range results {
		cfg.printf("  %13.2fx", float64(base)/float64(pr.TotalAll))
	}
	cfg.printf("\n")

	// Exchange traffic of the widest cluster, by query class.
	widest := clusters[len(clusters)-1]
	classRows := map[string]int64{}
	for q := 1; q <= 17; q++ {
		classRows[shard.QueryClass(q)] += widest.ShippedFor(q)
	}
	reg.SetInt("shardscale.net.rows_shipped", widest.RowsShipped())
	cfg.printf("\nExchange rows shipped at %d shards, by query class:\n", widest.Shards())
	for _, class := range []string{"scan", "copart", "broadcast", "shuffle", "gather"} {
		cfg.printf("  %-10s  %10d\n", class, classRows[class])
		reg.SetInt("shardscale.net.rows_shipped."+class, classRows[class])
	}
	cfg.printf("  %-10s  %10d\n", "total", widest.RowsShipped())
	cfg.printf("\n(scan/copart ship only partial-aggregate rows; broadcast ships the\nsmall dimension to every shard; shuffle repartitions lineitem columns\nby part key; gather-mode queries centralize one input and forgo\nscale-out — the honest cost of globally-dependent aggregation.)\n")
	return nil
}

func plural(n int) string {
	if n == 1 {
		return "1 shard"
	}
	return fmt.Sprintf("%d shards", n)
}
