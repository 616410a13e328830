package core

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/warehouse"
)

// The warehouse experiment is the modern ablation of the paper's Table 9
// and its stated future work: the paper measured a full warehouse
// extraction at about one power test (6h05m) and asked what incremental
// maintenance would cost. This run builds a star-schema warehouse from
// the full extraction, then ablates both halves of the modern answer on
// the same simulated hardware — change-data capture (a write observer on
// the R/3 database feeds an order-level change log, so refresh after an
// update-function batch re-extracts only the touched orders instead of
// everything) and materialized aggregates with planner query rewrite (a
// DWEB-style generated workload runs once against the fact table and
// once redirected to the aggregates) — and proves every answer is
// byte-identical whichever road was taken: rewrite off or on, warehouse
// refreshed in place or rebuilt from a fresh extraction.

// whWorkloadSeed and whWorkloadQueries pin the generated workload, so
// the printed numbers are comparable across runs and the rewrite
// hit/miss counts are exact.
const (
	whWorkloadSeed    = 42
	whWorkloadQueries = 40
)

// runWarehouseQueries runs every workload query on the warehouse,
// returning per-query fingerprints and simulated laps.
func runWarehouseQueries(wh *warehouse.Warehouse, qs []warehouse.WorkloadQuery) ([]string, []time.Duration, error) {
	fps := make([]string, len(qs))
	laps := make([]time.Duration, len(qs))
	for i, q := range qs {
		start := wh.Meter().Elapsed()
		res, err := wh.Session().Query(q.SQL)
		if err != nil {
			return nil, nil, fmt.Errorf("workload query %d: %w", i, err)
		}
		laps[i] = wh.Meter().Lap(start)
		fps[i] = warehouse.Fingerprint(res)
	}
	return fps, laps, nil
}

// rewritableSum adds up the laps of the queries inside the aggregate
// vocabulary — the subset the rewrite can touch, so the speedup is
// measured on like-for-like work.
func rewritableSum(qs []warehouse.WorkloadQuery, laps []time.Duration) time.Duration {
	var sum time.Duration
	for i, q := range qs {
		if q.Rewritable {
			sum += laps[i]
		}
	}
	return sum
}

func init() {
	register(Experiment{Seq: 130, ID: "warehouse", Title: "Star-schema warehouse: incremental refresh and aggregate rewrite",
		PaperRef: "Table 9 ablation (not in paper)", Run: runWarehouse})
}

func runWarehouse(cfg *Config) error {
	env, reg := cfg.envOf(), cfg.registry()
	g := env.Gen
	sys, err := env.Sys30()
	if err != nil {
		return err
	}

	// Change capture: from here on, every physical write the R/3 database
	// applies is folded into an order-level change log.
	cl := warehouse.NewChangeLog()
	sys.AddWriteObserver(cl.Observe)

	// Initial construction: the paper's full extraction into .tbl files,
	// then the star-schema load and aggregate materialization.
	dir, err := os.MkdirTemp("", "r3bench-star-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ex := warehouse.New(sys)
	if _, err := ex.ExtractAll(dir); err != nil {
		return err
	}
	extract0 := ex.Meter().Elapsed()
	wh, err := warehouse.NewWarehouse(sys.DB.Model(), cfg.Options.Engine.Parallel)
	if err != nil {
		return err
	}
	build0, err := wh.Build(dir)
	if err != nil {
		return err
	}
	cfg.printf("star schema built from the full extraction: %d fact rows, %d dimension rows, %d aggregate rows\n",
		build0.FactRows, build0.DimRows, build0.AggRows)
	cfg.printf("(extraction %s + build %s)\n\n", cost.Fmt(extract0), cost.Fmt(build0.Elapsed))

	qs := warehouse.GenerateWorkload(warehouse.DefaultWorkload(whWorkloadSeed, whWorkloadQueries))
	baseline, _, err := runWarehouseQueries(wh, qs)
	if err != nil {
		return err
	}

	// One UF1 batch through the dialog-scale batch input; the change log
	// sees its writes and surfaces exactly the touched order keys.
	cl.Drain()
	bi := sys.NewBatchInput(1)
	if err := g.UF1Orders(bi.EnterOrder); err != nil {
		return err
	}
	ups, dels := cl.Drain()

	// The incremental path: re-extract only the captured orders, fold the
	// delta into the fact table and patch the touched aggregate groups.
	var deltaBuf bytes.Buffer
	delta, err := ex.ExtractDelta(ups, dels, &deltaBuf)
	if err != nil {
		return err
	}
	refresh, err := wh.ApplyDelta(bytes.NewReader(deltaBuf.Bytes()))
	if err != nil {
		return err
	}
	incSim := delta.Elapsed + refresh.Elapsed

	// The full path the refresh replaces: re-extract everything and
	// rebuild the star schema from scratch.
	dir2, err := os.MkdirTemp("", "r3bench-star-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	ex2 := warehouse.New(sys)
	if _, err := ex2.ExtractAll(dir2); err != nil {
		return err
	}
	wh2, err := warehouse.NewWarehouse(sys.DB.Model(), cfg.Options.Engine.Parallel)
	if err != nil {
		return err
	}
	build2, err := wh2.Build(dir2)
	if err != nil {
		return err
	}
	fullSim := ex2.Meter().Elapsed() + build2.Elapsed

	cfg.printf("%-52s  %14s  %9s\n", "bringing the warehouse up to date (one UF1 batch)", "sim time", "speedup")
	cfg.printf("%-52s  %14s  %9s\n", "full re-extraction + rebuild", cost.Fmt(fullSim), "—")
	cfg.printf("%-52s  %14s  %8.1fx\n",
		fmt.Sprintf("incremental (%d orders, %d fact rows, %d groups)",
			refresh.Orders, refresh.RowsInserted, refresh.GroupsTouched),
		cost.Fmt(incSim), float64(fullSim)/float64(incSim))

	// The identity half of the refresh claim, crossed with the rewrite:
	// refreshed-in-place and rebuilt-from-scratch must answer the whole
	// workload byte-identically, with the aggregate rewrite off and on.
	refOff, offLaps, err := runWarehouseQueries(wh, qs)
	if err != nil {
		return err
	}
	rebOff, _, err := runWarehouseQueries(wh2, qs)
	if err != nil {
		return err
	}
	wh.EnableRewrite(true)
	wh2.EnableRewrite(true)
	refOn, onLaps, err := runWarehouseQueries(wh, qs)
	if err != nil {
		return err
	}
	rebOn, _, err := runWarehouseQueries(wh2, qs)
	if err != nil {
		return err
	}
	st := wh.DB.Stats()
	wh.EnableRewrite(false)

	identical := true
	for i := range qs {
		if refOff[i] != rebOff[i] || refOff[i] != refOn[i] || refOff[i] != rebOn[i] {
			identical = false
			cfg.printf("!! answers differ at workload query %d: %s\n", i, qs[i].SQL)
		}
	}

	var rewritable int
	for _, q := range qs {
		if q.Rewritable {
			rewritable++
		}
	}
	baseSim := rewritableSum(qs, offLaps)
	rewriteSim := rewritableSum(qs, onLaps)
	cfg.printf("\nworkload: %d generated queries (seed %d), %d inside the aggregate vocabulary\n",
		len(qs), whWorkloadSeed, rewritable)
	cfg.printf("%-52s  %14s  %9s\n", "", "sim time", "speedup")
	cfg.printf("%-52s  %14s  %9s\n", "rewrite off (fact-table scans)", cost.Fmt(baseSim), "—")
	cfg.printf("%-52s  %14s  %8.1fx\n", "rewrite on (materialized aggregates)", cost.Fmt(rewriteSim),
		float64(baseSim)/float64(rewriteSim))
	cfg.printf("(rewritable subset only; hook hits/misses %d/%d)\n", st.RewriteHits, st.RewriteMisses)

	// The inverse batch: UF2 deletes the UF1 segment, the change log
	// converts the deletes to tombstones, and the tombstone refresh must
	// restore every baseline answer.
	for _, k := range g.UF2OrderKeys() {
		if err := bi.DeleteOrder(k); err != nil {
			return err
		}
	}
	ups, dels = cl.Drain()
	var tombBuf bytes.Buffer
	if _, err := ex.ExtractDelta(ups, dels, &tombBuf); err != nil {
		return err
	}
	if _, err := wh.ApplyDelta(&tombBuf); err != nil {
		return err
	}
	restored, _, err := runWarehouseQueries(wh, qs)
	if err != nil {
		return err
	}
	for i := range qs {
		if restored[i] != baseline[i] {
			identical = false
			cfg.printf("!! tombstone refresh did not restore workload query %d: %s\n", i, qs[i].SQL)
		}
	}

	reg.Set("warehouse.simms.full", simMS(fullSim))
	reg.Set("warehouse.simms.incremental", simMS(incSim))
	reg.Set("warehouse.simms.query_base", simMS(baseSim))
	reg.Set("warehouse.simms.query_rewrite", simMS(rewriteSim))
	if fullSim > 0 && incSim > 0 {
		reg.Set("warehouse.refresh.speedup", float64(fullSim)/float64(incSim))
	}
	if baseSim > 0 && rewriteSim > 0 {
		reg.Set("warehouse.query.speedup", float64(baseSim)/float64(rewriteSim))
	}
	reg.SetInt("warehouse.refresh.rows", refresh.RowsInserted+refresh.RowsDeleted)
	reg.SetInt("warehouse.rewrite.hits", st.RewriteHits)
	reg.SetInt("warehouse.rewrite.misses", st.RewriteMisses)
	setBool(reg, "warehouse.q_identical", identical)
	if !identical {
		return fmt.Errorf("warehouse: workload answers differ across refresh/rewrite paths")
	}
	cfg.printf("\nanswers byte-identical: rewrite off/on, refreshed vs rebuilt, and\nUF2 tombstone refresh restores the original warehouse.\n")
	cfg.printf("(paper Table 9: full extraction costs about one power test; change\ncapture + in-place aggregate maintenance retires the periodic rebuild)\n")
	return nil
}
