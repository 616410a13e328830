package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// r3_reports is the paper's own subject: the 17 TPC-D queries as SAP R/3
// reports in the four strategies of Tables 4 and 5, in process and on one
// goroutine, as a report runs in one work process. An op is one report; a
// pass is all 68 in a seeded order. Answers must equal those of standard
// SQL on the original schema at the same scale factor.

var r3Strategy = []reports.Strategy{reports.Open22, reports.Native22, reports.Open30, reports.Native30}

var r3Classes = func() []string {
	var names []string
	for _, s := range r3Strategies {
		for q := 1; q <= 17; q++ {
			names = append(names, fmt.Sprintf("%s.q%02d", s, q))
		}
	}
	return names
}()

type r3Run struct {
	cfg        *runCfg
	m          *measure
	gen        *dbgen.Generator
	rdb        *engine.DB
	sys2, sys3 *r3.System
	impls      []*reports.SAPImpl
	loadS      []float64 // whole build, one per set-up repeat
	loadDirS   []float64 // the two LoadDirect calls of each build
	rdbLoadS   []float64
	want       [17][][]val.Value // the RDBMS's answers
	ref        []uint64          // per class: fingerprint of an answer already found equal to want
	meterBase  meterTotals       // traced: the report meters when the timed passes began
}

// meterTotals sums the four report meters.
type meterTotals struct {
	tuples, elapsed float64
	byKind          [len(simKinds)]float64
}

func (r *r3Run) meterTotals() meterTotals {
	var t meterTotals
	for _, impl := range r.impls {
		m := impl.Meter()
		t.tuples += float64(m.Count(cost.TupleCPU))
		t.elapsed += float64(m.Elapsed())
		for i, k := range simKinds {
			t.byKind[i] += float64(m.ByKind(k))
		}
	}
	return t
}

func runR3(cfg *runCfg) (*result, error) {
	r := &r3Run{cfg: cfg, m: newMeasure(r3Classes), ref: make([]uint64, len(r3Classes))}
	origin := time.Now()

	// --- set-up, on the clock: the three databases and a warm-up pass.
	setupStart := time.Now()
	if err := r.build(); err != nil {
		return nil, err
	}
	for i, s := range r3Strategy {
		sys := r.sys2
		if i >= 2 {
			sys = r.sys3
		}
		r.impls = append(r.impls, reports.New(sys, r.gen, s))
	}
	warm := r.runPass(passWarmUp, origin, nil)
	setupS := time.Since(setupStart).Seconds() - sum(r.loadS) + median(r.loadS)
	cfg.logf("set up in %.2f s (databases built %d times, median %.2f s)", setupS, len(r.loadS), median(r.loadS))

	// --- the ratio base and the expected answers: standard SQL on the
	// original schema, three passes for a median.
	base := tpcd.NewRDBMS(r.rdb, r.gen)
	var baseWall, baseSim []float64
	for p := 0; p < 3; p++ {
		t0, s0 := time.Now(), base.Meter().Elapsed()
		for q := 1; q <= 17; q++ {
			rows, err := base.RunQuery(q)
			if err != nil {
				return nil, fmt.Errorf("RDBMS Q%d: %w", q, err)
			}
			r.want[q-1] = rows
		}
		baseWall = append(baseWall, time.Since(t0).Seconds())
		baseSim = append(baseSim, base.Meter().Lap(s0).Seconds())
	}

	digests := newClassDigests(r3Classes)
	r.check(warm, digests)
	checkGoldens(cfg, r.m, digests)

	// --- the timed passes.
	var tr *tracer
	var ld *layerData
	if cfg.trace {
		tr = newTracer(origin, r3Classes)
		ld = newLayerData()
		r.meterBase = r.meterTotals()
	}
	n := cfg.timedPasses()
	timedStart := time.Now()
	var simPass []float64
	var recs []*r3Pass
	for p := 0; p < n; p++ {
		rec := r.runPass(p, origin, ld)
		simPass = append(simPass, rec.simS)
		if tr != nil {
			for i := range rec.lat {
				tr.add(0, tr.nextOp+int32(i), rec.class[i], spReport, rec.start[i], rec.start[i]+rec.lat[i])
			}
			tr.nextOp += int32(len(rec.lat))
			recs = append(recs, rec)
		}
		r.check(rec, nil)
		if cfg.overBudget(timedStart) && p+1 < n {
			cfg.logf("stopped after %d of %d passes: the timed section ran past twice -seconds", p+1, n)
			break
		}
	}
	r.m.finish()

	res := cfg.newResult(r.m)
	if cfg.trace {
		r.layers(ld, recs, median(baseWall), median(baseSim))
		res.Metrics = ld.metrics
		if err := tr.write(filepath.Join(cfg.dir, "out", "trace-"+cfg.w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		// The SAP database of the 2.2G system over dbgen's flat files: the
		// paper's Table 2.
		var stored int64
		for _, name := range r.sys2.DB.TableNames() {
			t := r.sys2.DB.Table(name)
			stored += t.DataBytes() + t.IndexBytes()
		}
		flat, err := flatBytes(cfg, r.gen)
		if err != nil {
			return nil, err
		}
		res.Metrics = r.m.endToEnd(setupS, median(simPass), ratio(float64(stored), float64(flat)))
		cfg.logf("one RDBMS pass: %.3f s wall, %.2f sim-s; one report pass: %.2f s wall, %.1f sim-s",
			median(baseWall), median(baseSim), median(r.m.passWall), median(simPass))
	}
	return res.close(r.m), nil
}

// build loads the original-schema database and installs and loads R/3
// 2.2G and 3.0E (3.0E with KONV converted to transparent and the
// ship-date index dropped, the paper's Table 5 configuration),
// setupRepeats times, keeping the last set.
func (r *r3Run) build() error {
	r.gen = dbgen.New(r.cfg.sz.sf)
	repeats := setupRepeats
	if r.cfg.smoke {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		r.rdb = engine.Open(engine.Config{})
		if err := tpcd.Load(r.rdb, r.gen, nil); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		r.rdbLoadS = append(r.rdbLoadS, time.Since(t0).Seconds())
		var direct time.Duration
		var err error
		if r.sys2, err = r3.Install(r3.Config{Release: r3.Release22}); err != nil {
			return err
		}
		t1 := time.Now()
		if err := r.sys2.LoadDirect(r.gen); err != nil {
			return fmt.Errorf("load 2.2G: %w", err)
		}
		direct += time.Since(t1)
		if r.sys3, err = r3.Install(r3.Config{Release: r3.Release30}); err != nil {
			return err
		}
		t1 = time.Now()
		if err := r.sys3.LoadDirect(r.gen); err != nil {
			return fmt.Errorf("load 3.0E: %w", err)
		}
		direct += time.Since(t1)
		if err := r.sys3.ConvertToTransparent("KONV", nil); err != nil {
			return err
		}
		if err := r.sys3.DropIndex("VBEP", "VBEP_EDATU"); err != nil {
			return err
		}
		r.loadDirS = append(r.loadDirS, direct.Seconds())
		r.loadS = append(r.loadS, time.Since(t0).Seconds())
	}
	coldStart(r.rdb)
	coldStart(r.sys2.DB)
	coldStart(r.sys3.DB)
	return nil
}

// r3Pass is what one pass over the 68 reports records.
type r3Pass struct {
	class        []uint8
	start, lat   []int64
	sim          []time.Duration
	fp           []uint64
	rows         map[int][][]val.Value // answers whose fingerprint is not the class's known one
	errs         map[int]error
	calls, ships []float64 // traced: engine interface calls and rows shipped per report
	simS         float64
}

// runPass runs the 68 reports in the pass's seeded order. The warm-up pass
// (and any pass given no measure to fold into) is not timed.
func (r *r3Run) runPass(pass int, origin time.Time, ld *layerData) *r3Pass {
	n := len(r3Classes)
	rec := &r3Pass{class: make([]uint8, n), start: make([]int64, n), lat: make([]int64, n), sim: make([]time.Duration, n),
		fp: make([]uint64, n), rows: map[int][][]val.Value{}, errs: map[int]error{}}
	if ld != nil {
		rec.calls, rec.ships = make([]float64, n), make([]float64, n)
	}
	order := rand.New(rand.NewSource(subSeed(r.cfg.seed, 300, int64(pass)))).Perm(n)
	for i, c := range order {
		rec.class[i] = uint8(c)
	}
	timed := pass >= 0
	var before runtime.MemStats
	if timed {
		before = r.m.beginPass()
		if ld != nil {
			ld.beginPass(r.sys2.DB, r.sys3.DB)
		}
	}
	passStart := time.Now()
	for i, c := range order {
		impl := r.impls[c/17]
		var st0 engine.EngineStats
		if ld != nil {
			st0 = r.db(c).Stats()
		}
		s0 := impl.Meter().Elapsed()
		t0 := time.Now()
		rows, err := impl.RunQuery(c%17 + 1)
		rec.lat[i] = int64(time.Since(t0))
		rec.start[i] = int64(t0.Sub(origin))
		rec.sim[i] = impl.Meter().Lap(s0)
		if ld != nil {
			st1 := r.db(c).Stats()
			rec.calls[i] = float64(st1.InterfaceCalls - st0.InterfaceCalls)
			rec.ships[i] = float64(st1.RowsShipped - st0.RowsShipped)
		}
		if err != nil {
			rec.errs[i] = err
			continue
		}
		rec.fp[i] = fingerprintRows(rows)
		if rec.fp[i] != r.ref[c] {
			rec.rows[i] = rows
		}
	}
	wall := time.Since(passStart)
	if timed {
		r.m.endPass(before, wall, rec.lat, rec.class)
		if ld != nil {
			ld.endPass(r.sys2.DB, r.sys3.DB)
		}
	}
	for _, s := range rec.sim {
		rec.simS += s.Seconds()
	}
	return rec
}

// db is the engine behind class c's strategy.
func (r *r3Run) db(c int) *engine.DB {
	if c/17 >= 2 {
		return r.sys3.DB
	}
	return r.sys2.DB
}

// check compares a pass's answers with the RDBMS's. An answer whose
// fingerprint equals one already accepted for its class is accepted; any
// other is compared in full by the multiset-with-tolerance rule.
func (r *r3Run) check(rec *r3Pass, digests *classDigests) {
	for i, c := range rec.class {
		r.m.attempted++
		if err := rec.errs[i]; err != nil {
			r.m.fail("%s: %v", r3Classes[c], err)
			continue
		}
		if digests != nil {
			digests.add(int(c), rec.fp[i])
		}
		rows, kept := rec.rows[i]
		if !kept || (r.ref[c] != 0 && rec.fp[i] == r.ref[c]) {
			continue
		}
		if err := sameAnswer(r.want[c%17], rows); err != nil {
			r.m.fail("%s differs from the RDBMS's answer: %v", r3Classes[c], err)
			continue
		}
		r.ref[c] = rec.fp[i]
	}
}

// layers fills the ledger of the traced run.
func (r *r3Run) layers(ld *layerData, recs []*r3Pass, baseWall, baseSim float64) {
	lm := ld.metrics
	ld.counts(r.m)

	// Per strategy: the paper's Tables 4 and 5 on both clocks.
	reportsRun := float64(17 * len(recs))
	for s, name := range r3Strategies {
		var wall, sim []float64
		var calls, ships float64
		for _, rec := range recs {
			var w, sm float64
			for i, c := range rec.class {
				if int(c)/17 != s {
					continue
				}
				w += float64(rec.lat[i]) / 1e9
				sm += rec.sim[i].Seconds()
				calls += rec.calls[i]
				ships += rec.ships[i]
			}
			wall, sim = append(wall, w), append(sim, sm)
		}
		p := "r3." + name
		lm[p+".pass_s"] = median(wall)
		lm[p+".sim_pass_s"] = median(sim)
		lm[p+".engine_calls_per_report"] = ratio(calls, reportsRun)
		lm[p+".rows_shipped_per_report"] = ratio(ships, reportsRun)
		lm[p+".wall_over_rdbms_x"] = ratio(median(wall), baseWall)
		lm[p+".sim_over_rdbms_x"] = ratio(median(sim), baseSim)
	}
	hits, misses := r.sys2.CursorStats()
	h3, m3 := r.sys3.CursorStats()
	lm["r3.cursor_cache.hit_ratio"] = ratio(float64(hits+h3), float64(hits+h3+misses+m3))

	// The engine as the reports use it, from the four report meters: the
	// passes ran on one goroutine, so wall time and allocations are theirs.
	mt := r.meterTotals()
	tuples := mt.tuples - r.meterBase.tuples
	ops := float64(r.m.ops())
	lm["engine.exec_ns_per_tuple"] = ratio(r.m.wall()*1e9, tuples)
	lm["engine.tuples_per_row"] = ratio(tuples, ld.passes[cRows])
	lm["engine.exec_allocs_per_op"] = ratio(float64(r.m.mallocs), ops)
	lm["engine.exec_alloc_kb_per_op"] = ratio(float64(r.m.bytes)/1024, ops)
	lm["engine.interface_calls_per_op"] = ratio(ld.passes[cIface], ops)
	lm["engine.rows_shipped_per_op"] = ratio(ld.passes[cRows], ops)
	for i, k := range simKinds {
		lm["cost.sim_share."+k.String()] = ratio(mt.byKind[i]-r.meterBase.byKind[i], mt.elapsed-r.meterBase.elapsed)
	}

	// The front end over the texts the benchmark can see: the RDBMS forms
	// of the queries (the reports' generated SQL stays inside r3).
	var texts []string
	for _, q := range tpcd.Queries(r.gen.SF) {
		texts = append(texts, q.SQL...)
	}
	frontEnd(lm, r.rdb.NewSession(), texts, texts)

	pkVals := microStorage(lm, r.sys2.DB, "VBAK", "VBAP", false, true, r.cfg.seed)
	stmtOverhead(lm, r.sys2.DB, "VBAK", pkVals)
	r.appServer(lm)

	lm["r3.loaddirect_s"] = median(r.loadDirS)
	lm["tpcd.load_rows_per_s"] = ratio(float64(tableRows(r.rdb)), median(r.rdbLoadS))
	lm["dbgen.rows_per_s"] = dbgenRate(r.gen)
	t0 := time.Now()
	if err := r.sys2.DB.AnalyzeAll(); err != nil {
		r.m.fail("analyze: %v", err)
	}
	lm["engine.analyze_s"] = time.Since(t0).Seconds()
}

// appServer times the application server's own mechanisms on the 2.2G
// system: the table buffer under the paper's Figure 5 loop (a SELECT SINGLE
// on MARA per VBAP row), SELECT SINGLE on a hit and on a miss, and ITab
// grouping.
func (r *r3Run) appServer(lm map[string]float64) {
	sys := r.sys2
	m := cost.NewMeter(sys.DB.Model())
	o := sys.OpenSQL(m)
	single := func(matnr val.Value) {
		if _, _, err := o.SelectSingle("MARA", []r3.Cond{r3.Eq("MATNR", matnr)}); err != nil {
			r.m.fail("SELECT SINGLE MARA: %v", err)
		}
	}
	// The paper's 2 MB buffer, scaled with the scale factor as Table 8 does.
	sys.SetBuffered("MARA", int64(float64(2<<20)*r.gen.SF/0.2))
	var matnrs []val.Value
	err := o.Select("VBAP", nil, func(row r3.Row) error {
		matnr := row.Get("MATNR")
		matnrs = append(matnrs, matnr)
		single(matnr)
		return nil
	})
	if err != nil {
		r.m.fail("Figure 5 loop: %v", err)
	}
	for _, st := range sys.BufferStatsAll() {
		if st.Table == "MARA" {
			lm["r3.table_buffer.hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
			lm["r3.table_buffer.evictions"] = float64(st.Evictions)
		}
	}
	if len(matnrs) > 0 {
		// Everything resident: the hit path. Then a pinned buffer of a few
		// rows under a cyclic sweep: every lookup misses.
		sys.SetBuffered("MARA", 8<<20)
		for _, k := range matnrs {
			single(k)
		}
		lm["r3.opensql.select_single_hit_ns"] = nsPer(20000, func(i int) { single(matnrs[i%len(matnrs)]) })
		sys.SetBufferedFixed("MARA", 1024)
		lm["r3.opensql.select_single_miss_ns"] = nsPer(2000, func(i int) { single(matnrs[i%len(matnrs)]) })
	}
	sys.SetBuffered("MARA", 0)

	const rows = 20000
	it := r3.NewITab(m, "K", "V")
	for i := 0; i < rows; i++ {
		it.Append(val.Int(int64(i%100)), val.Float(float64(i)))
	}
	t0 := time.Now()
	err = it.GroupBy([]string{"K"}, []r3.Agg{{Fn: "SUM", Of: func(row []val.Value) val.Value { return row[1] }}},
		func([]val.Value, []val.Value) error { return nil })
	if err != nil {
		r.m.fail("ITab.GroupBy: %v", err)
	}
	lm["r3.itab.groupby_ns_per_row"] = float64(time.Since(t0)) / rows
}

func tableRows(db *engine.DB) int64 {
	var n int64
	for _, name := range db.TableNames() {
		n += db.Table(name).Rows()
	}
	return n
}

// stmtOverhead is what a prepared primary-key lookup costs in process
// beyond its B-tree probe and heap fetch: the per-statement price of the
// engine.
func stmtOverhead(lm map[string]float64, db *engine.DB, table string, pkVals [][]val.Value) {
	t := db.Table(table)
	if t == nil || len(pkVals) == 0 {
		return
	}
	conds := make([]string, len(t.PrimaryKey))
	for i, ci := range t.PrimaryKey {
		conds[i] = t.Cols[ci].Name + " = ?"
	}
	st, err := db.NewSession().Prepare("SELECT * FROM " + table + " WHERE " + strings.Join(conds, " AND "))
	if err != nil {
		return
	}
	lookup := nsPer(20000, func(i int) { _, _ = st.Query(pkVals[i%len(pkVals)]...) })
	lm["engine.stmt_overhead_ns"] = lookup - lm["btree.seek_ns"] - lm["storage.heap.fetch_ns"]
}
