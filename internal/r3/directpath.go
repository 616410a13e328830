package r3

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/val"
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
	workers int
	meters  []*cost.Meter
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
	d := &DirectPath{sys: sys, workers: workers, meters: make([]*cost.Meter, workers)}
	for i := range d.meters {
		d.meters[i] = cost.NewMeter(sys.DB.Model())
	}
	return d
}

// Workers returns the parallel degree.
func (d *DirectPath) Workers() int { return d.workers }

// Records returns how many logical records were loaded.
func (d *DirectPath) Records() int64 { return d.records.Load() }

// Elapsed returns the simulated wall time: the slowest lane, since the
// lanes overlap.
func (d *DirectPath) Elapsed() time.Duration {
	return cost.MaxElapsed(d.meters...)
}

// Meter returns a snapshot of total resource consumption across lanes.
func (d *DirectPath) Meter() *cost.Meter {
	m := cost.NewMeter(d.sys.DB.Model())
	m.AddSum(d.meters...)
	return m
}

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

// record accounts one logical record entering through this lane: the
// per-record interpretation CPU plus one consistency check per batch.
func (w *dpWorker) record() {
	w.m.Charge(cost.TupleCPU, 1)
	w.pending++
	if w.pending >= checkBatch {
		w.m.Charge(cost.Check, 1)
		w.pending = 0
	}
	w.dp.records.Add(1)
}

// add routes one logical row to its physical table if this lane owns it.
func (w *dpWorker) add(r SAPRow) error {
	sys := w.dp.sys
	t := sys.Table(r.Table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", r.Table)
	}
	switch t.Kind {
	case Transparent:
		ld := w.loaders[t.Name]
		if ld == nil {
			return nil
		}
		row, err := sys.physRow(t, r.Fields)
		if err != nil {
			return err
		}
		return ld.Append(row)
	case Pooled:
		ld := w.loaders[poolTableName]
		if ld == nil {
			return nil
		}
		row, err := sys.physRow(t, r.Fields)
		if err != nil {
			return err
		}
		w.m.Charge(cost.Decode, 1) // encode on the way in
		return ld.Append([]val.Value{
			val.Str(t.Name), val.Str(t.keyString(row)), val.Str(t.packRow(row))})
	default:
		return fmt.Errorf("r3: cluster table %s needs addClusterGroup", t.Name)
	}
}

// addClusterGroup packs one cluster key's logical rows into physical
// tuples and appends them if this lane owns the cluster's table.
func (w *dpWorker) addClusterGroup(table string, groups []F) error {
	sys := w.dp.sys
	t := sys.Table(table)
	if t == nil {
		return fmt.Errorf("r3: unknown table %s", table)
	}
	ld := w.loaders[t.Name+clusterSuffix]
	if ld == nil {
		return nil
	}
	var keyVals []val.Value
	var cur strings.Builder
	pageNo := int64(0)
	flush := func() error {
		if cur.Len() == 0 {
			return nil
		}
		phys := append(append([]val.Value{}, keyVals...), val.Int(pageNo), val.Str(cur.String()))
		cur.Reset()
		pageNo++
		return ld.Append(phys)
	}
	for gi, fields := range groups {
		row, err := sys.physRow(t, fields)
		if err != nil {
			return err
		}
		if gi == 0 {
			for _, kc := range t.ClusterPrefix {
				keyVals = append(keyVals, row[t.ColIndex(kc)])
			}
		}
		w.m.Charge(cost.Decode, 1)
		packed := t.packRow(row)
		if cur.Len() > 0 && cur.Len()+len(rowSep)+len(packed) > clusterVarData {
			if err := flush(); err != nil {
				return err
			}
		}
		if cur.Len() > 0 {
			cur.WriteString(rowSep)
		}
		cur.WriteString(packed)
	}
	return flush()
}

// Load streams the generated population through the direct path. The
// generator must describe the same population for every lane, which it
// does: dbgen streams are pure functions of (SF, seed).
func (d *DirectPath) Load(g *dbgen.Generator) error {
	sys := d.sys
	// Assign physical tables to lanes round-robin in weight order.
	owner := make(map[string]int, len(dpTableOrder))
	for i, phys := range dpTableOrder {
		owner[phys] = i % d.workers
	}
	ws := make([]*dpWorker, d.workers)
	for i := range ws {
		ws[i] = &dpWorker{dp: d, m: d.meters[i], loaders: make(map[string]*engine.DirectLoader)}
	}
	for phys, wi := range owner {
		ld, err := sys.DB.NewDirectLoader(phys, d.meters[wi])
		if err != nil {
			return err
		}
		ws[wi].loaders[phys] = ld
	}

	var wg sync.WaitGroup
	errs := make([]error, d.workers)
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *dpWorker) {
			defer wg.Done()
			errs[i] = w.run(g)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Close every channel: seal pages, build indexes, commit.
	for _, w := range ws {
		for _, ld := range w.loaders {
			if err := ld.Close(); err != nil {
				return err
			}
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

// run replays the generator streams this lane needs, in the serial
// loader's stream order, emitting only owned tables. Batched per-record
// charges go to the lane owning the record's anchor table so each
// record's interpretation cost is paid exactly once.
func (w *dpWorker) run(g *dbgen.Generator) error {
	stxl := w.owns("STXL")
	if stxl || w.owns("T005") || w.owns("T005T") {
		for _, n := range g.NationRows() {
			if w.owns("T005") {
				w.record()
			}
			for _, r := range NationRows(n) {
				if err := w.add(r); err != nil {
					return err
				}
			}
		}
	}
	if stxl || w.owns("T005U") {
		for _, rg := range g.Regions() {
			if w.owns("T005U") {
				w.record()
			}
			for _, r := range RegionRows(rg) {
				if err := w.add(r); err != nil {
					return err
				}
			}
		}
	}
	if stxl || w.owns("LFA1") {
		if err := g.Suppliers(func(s dbgen.Supplier) error {
			if w.owns("LFA1") {
				w.record()
			}
			for _, r := range SupplierRows(s) {
				if err := w.add(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if stxl || w.owns("MARA") || w.owns("MAKT") || w.owns(poolTableName) ||
		w.owns("KONP") || w.owns("AUSP") {
		if err := g.Parts(func(p dbgen.Part) error {
			if w.owns("MARA") {
				w.record()
			}
			for _, r := range PartRows(p) {
				if err := w.add(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if stxl || w.owns("EINA") || w.owns("EINE") {
		j := 0
		if err := g.PartSupps(func(ps dbgen.PartSupp) error {
			if w.owns("EINA") {
				w.record()
			}
			for _, r := range PartSuppRows(ps, j%4) {
				if err := w.add(r); err != nil {
					return err
				}
			}
			j++
			return nil
		}); err != nil {
			return err
		}
	}
	if stxl || w.owns("KNA1") {
		if err := g.Customers(func(c dbgen.Customer) error {
			if w.owns("KNA1") {
				w.record()
			}
			for _, r := range CustomerRows(c) {
				if err := w.add(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if stxl || w.owns("VBAK") || w.owns("VBAP") || w.owns("VBEP") ||
		w.owns("KONV"+clusterSuffix) {
		if err := g.Orders(func(o *dbgen.Order) error {
			if w.owns("VBAK") {
				w.record()
			}
			for _, r := range OrderHeaderRows(o) {
				if err := w.add(r); err != nil {
					return err
				}
			}
			for _, li := range o.Lines {
				if w.owns("VBAP") {
					w.record()
				}
				for _, r := range LineItemRows(li) {
					if err := w.add(r); err != nil {
						return err
					}
				}
			}
			return w.addClusterGroup("KONV", KonvRows(o))
		}); err != nil {
			return err
		}
	}
	return nil
}
