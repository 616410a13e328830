package r3

import (
	"fmt"
	"sync/atomic"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
)

// DirectPath is the modern load facility the paper's installation lacked
// (Section 2.4 reports the batch-input alternative at 26 days): records
// bypass the dialog pipeline and stream through the RDBMS's direct-path
// interface — full heap pages built below the WAL, index maintenance
// deferred to sorted bottom-up builds, consistency checks batched per
// ~10k records instead of one dialog round per record, and a single
// commit per table instead of one per document.
//
// Parallelism is by physical-table ownership: every worker re-derives
// the deterministic generator streams it needs but appends only to the
// tables it owns, so each physical table sees its rows in canonical
// stream order from exactly one goroutine and the loaded population is
// byte-identical to a serial load regardless of scheduling (the same
// argument tpcd.LoadPartition makes).
type DirectPath struct {
	sys     *System
	lanes   cost.Lanes
	records atomic.Int64
}

// checkBatch is how many records one batched consistency check covers —
// the direct path validates input in bulk, not one dialog per record.
const checkBatch = 10000

// dpTableOrder lists the physical tables in descending expected row
// weight; round-robin assignment over this order balances the lanes.
var dpTableOrder = []string{
	"STXL",         // one text row per record of every stream
	"VBAP", "VBEP", // per lineitem
	"KONV" + clusterSuffix, // two pricing rows per lineitem, packed
	"VBAK",                 // per order
	"AUSP",                 // three characteristics per part
	poolTableName,          // A004 condition headers (pooled)
	"KNA1", "EINA", "EINE", // customers, partsupps
	"MARA", "MAKT", "KONP", // parts
	"LFA1",                   // suppliers
	"T005", "T005T", "T005U", // tiny dimensions
}

// NewDirectPath opens a direct-path load with the given parallel degree,
// each lane charging its own virtual clock.
func (sys *System) NewDirectPath(workers int) *DirectPath {
	if workers < 1 {
		workers = 1
	}
	return &DirectPath{sys: sys, lanes: cost.NewLanes(sys.DB.Model(), workers)}
}

// Records returns how many logical records were loaded.
func (d *DirectPath) Records() int64 { return d.records.Load() }

// Elapsed returns the simulated wall time: the slowest lane, since the
// lanes overlap.
func (d *DirectPath) Elapsed() time.Duration { return d.lanes.Elapsed() }

// dpWorker is one load lane: the physical tables it owns and their open
// direct-path channels.
type dpWorker struct {
	dp      *DirectPath
	m       *cost.Meter
	loaders map[string]*engine.DirectLoader
	pending int64 // records since the last batched consistency check
}

// owns reports whether the lane loads the physical table.
func (w *dpWorker) owns(phys string) bool {
	_, ok := w.loaders[phys]
	return ok
}

// wants implements populationSink: the lane replays only the generator
// streams that feed a table it owns.
func (w *dpWorker) wants(phys ...string) bool {
	for _, p := range phys {
		if w.owns(p) {
			return true
		}
	}
	return false
}

// record accounts one logical record entering the load: the per-record
// interpretation CPU plus one consistency check per batch, charged to the
// lane owning the record's anchor table so it is paid exactly once.
func (w *dpWorker) record(anchor string) {
	if !w.owns(anchor) {
		return
	}
	w.m.Charge(cost.TupleCPU, 1)
	w.pending++
	if w.pending >= checkBatch {
		w.m.Charge(cost.Check, 100) // one full check, in hundredths
		w.pending = 0
	}
	w.dp.records.Add(1)
}

// add maps logical rows to their physical table if this lane owns it;
// ownership is tested before a row is built.
func (w *dpWorker) add(table string, group ...F) error {
	sys := w.dp.sys
	t := sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", table)
	}
	ld := w.loaders[t.physName()]
	if ld == nil {
		return nil
	}
	rows, err := sys.physRows(t, group)
	if err != nil {
		return err
	}
	if t.Kind != Transparent {
		w.m.Charge(cost.Decode, int64(len(rows))) // encode on the way in
	}
	return t.toPhysical(rows, ld.Append)
}

// Load streams the generated population through the direct path. The
// generator must describe the same population for every lane, which it
// does: dbgen streams are pure functions of (SF, seed).
func (d *DirectPath) Load(g *dbgen.Generator) error {
	sys := d.sys
	ws := make([]*dpWorker, len(d.lanes))
	for i, m := range d.lanes {
		ws[i] = &dpWorker{dp: d, m: m, loaders: make(map[string]*engine.DirectLoader)}
	}
	// Assign physical tables to lanes round-robin in weight order:
	// dpTableOrder[i] belongs to lane i % workers.
	for i, phys := range dpTableOrder {
		w := ws[i%len(ws)]
		ld, err := sys.DB.NewDirectLoader(phys, w.m)
		if err != nil {
			return err
		}
		w.loaders[phys] = ld
	}

	if err := d.lanes.Run(func(i int, _ *cost.Meter) error { return walkPopulation(g, ws[i]) }); err != nil {
		return err
	}
	// Close every channel in weight order: seal pages, build indexes, commit.
	for i, phys := range dpTableOrder {
		if err := ws[i%len(ws)].loaders[phys].Close(); err != nil {
			return err
		}
	}
	// The load wrote below the row-level write hook, so invalidate the
	// application-server table buffers wholesale.
	sys.mu.RLock()
	bufs := make([]*TableBuffer, 0, len(sys.buffers))
	for _, b := range sys.buffers {
		bufs = append(bufs, b)
	}
	sys.mu.RUnlock()
	for _, b := range bufs {
		b.invalidateAll()
	}
	return sys.DB.AnalyzeAll()
}
