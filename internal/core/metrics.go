package core

import (
	"fmt"
	"time"

	"r3bench/internal/engine"
	"r3bench/internal/metrics"
	"r3bench/internal/r3"
	"r3bench/internal/storage"
)

// CollectMetrics completes the run's registry — which already holds what
// each experiment published as it ran — with the cumulative counters of
// every environment component the run actually built (lazily created
// databases that were never touched do not appear): engine execution
// counts, per-shard buffer-pool statistics, R/3 table-buffer statistics
// and system-wide cursor-cache reuse.
func CollectMetrics(cfg *Config) *metrics.Registry {
	reg := cfg.registry()
	e := cfg.envOf()
	if e.rdb != nil {
		addEngineMetrics(reg, "rdb", e.rdb)
	}
	if e.sys2 != nil {
		addSystemMetrics(reg, "sap22", e.sys2)
	}
	if e.sys3 != nil {
		addSystemMetrics(reg, "sap30", e.sys3)
	}
	return reg
}

// simMS is a simulated duration in the unit the snapshot records.
func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setBool publishes a pass/fail fact as 1 or 0.
func setBool(reg *metrics.Registry, name string, ok bool) {
	v := int64(0)
	if ok {
		v = 1
	}
	reg.SetInt(name, v)
}

// addWalStats publishes one write-ahead log's counters under the prefix.
func addWalStats(reg *metrics.Registry, prefix string, ws storage.WalStats) {
	reg.SetInt(prefix+".records", ws.Records)
	reg.SetInt(prefix+".bytes", ws.Bytes)
	reg.SetInt(prefix+".fsyncs", ws.Fsyncs)
	reg.SetInt(prefix+".fsync_pages", ws.FsyncPages)
	reg.SetInt(prefix+".commits", ws.Commits)
	reg.SetInt(prefix+".groups", ws.Groups)
	reg.SetInt(prefix+".max_group", ws.MaxGroup)
	reg.SetInt(prefix+".checkpoints", ws.Checkpoints)
	if ws.Groups > 0 {
		reg.Set(prefix+".avg_group", float64(ws.GroupSum)/float64(ws.Groups))
	}
}

// addEngineMetrics publishes one engine's execution counters and its
// buffer pool's overall and per-shard cache statistics.
func addEngineMetrics(reg *metrics.Registry, prefix string, db *engine.DB) {
	st := db.Stats()
	reg.SetInt(prefix+".engine.selects", st.Selects)
	reg.SetInt(prefix+".engine.parallel_selects", st.ParallelSelects)
	reg.SetInt(prefix+".engine.parallel_runs", st.ParallelRuns)
	reg.SetInt(prefix+".interface.calls", st.InterfaceCalls)
	reg.SetInt(prefix+".interface.rows_shipped", st.RowsShipped)
	reg.SetInt(prefix+".interface.packets", st.Packets)
	reg.SetInt(prefix+".parser.statements", st.ParseStatements)
	reg.SetInt(prefix+".parser.cache_hits", st.ParseHits)
	reg.SetInt(prefix+".parser.cache_misses", st.ParseMisses)
	reg.SetInt(prefix+".optimizer.peeks", st.Peeks)
	reg.SetInt(prefix+".optimizer.replans", st.Replans)
	reg.SetInt(prefix+".optimizer.plan_cache_hits", st.PlanHits)
	reg.SetInt(prefix+".optimizer.plan_cache_misses", st.PlanMisses)
	reg.SetInt(prefix+".optimizer.hist_estimates", st.HistEstimates)
	reg.SetInt(prefix+".optimizer.default_estimates", st.DefaultEstimates)
	pool := db.Pool()
	reg.Set(prefix+".pool.hit_ratio", pool.HitRatio())
	windows, pages, raHits := pool.ReadaheadStats()
	reg.SetInt(prefix+".pool.readahead.windows", windows)
	reg.SetInt(prefix+".pool.readahead.pages", pages)
	reg.SetInt(prefix+".pool.readahead.hits", raHits)
	young, old := pool.Occupancy()
	reg.SetInt(prefix+".pool.young", young)
	reg.SetInt(prefix+".pool.old", old)
	ic := db.IndexCache()
	ixs := ic.Stats()
	reg.SetInt(prefix+".index_cache.hits", ixs.Hits)
	reg.SetInt(prefix+".index_cache.misses", ixs.Misses)
	reg.SetInt(prefix+".index_cache.scan_bypass", ixs.ScanBypass)
	reg.SetInt(prefix+".index_cache.resident", int64(ixs.Resident))
	reg.Set(prefix+".index_cache.hit_ratio", ic.HitRatio())
	for i, sh := range pool.Stats() {
		base := fmt.Sprintf("%s.pool.shard%d.", prefix, i)
		reg.SetInt(base+"hits", sh.Hits)
		reg.SetInt(base+"misses", sh.Misses)
		reg.SetInt(base+"readahead_hits", sh.ReadaheadHits)
		reg.SetInt(base+"capacity_pages", int64(sh.Capacity))
	}
	if w := db.WAL(); w != nil {
		addWalStats(reg, prefix+".wal", w.Stats())
	}
}

// addSystemMetrics publishes an R/3 system's engine metrics plus its
// application-server table-buffer and cursor-cache counters.
func addSystemMetrics(reg *metrics.Registry, prefix string, sys *r3.System) {
	addEngineMetrics(reg, prefix, sys.DB)
	hits, misses := sys.CursorStats()
	reg.SetInt(prefix+".cursor_cache.hits", hits)
	reg.SetInt(prefix+".cursor_cache.misses", misses)
	for _, bs := range sys.BufferStatsAll() {
		base := prefix + ".table_buffer." + bs.Table + "."
		reg.SetInt(base+"hits", bs.Hits)
		reg.SetInt(base+"misses", bs.Misses)
		reg.SetInt(base+"evictions", bs.Evictions)
		reg.SetInt(base+"invalidations", bs.Invalidations)
		reg.SetInt(base+"resident", bs.Resident)
		reg.SetInt(base+"admission_rejects", bs.AdmissionRejects)
		reg.SetInt(base+"scan_bypass", bs.ScanBypass)
		reg.SetInt(base+"resizes", bs.Resizes)
		reg.SetInt(base+"cap_bytes", bs.CapBytes)
		setBool(reg, base+"undersized", bs.Undersized())
	}
}
