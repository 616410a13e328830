package main

import (
	"math/rand"
	"runtime"
	"strings"
	"time"

	"r3bench/internal/btree"
	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/sqlparse"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// The layer ledger of the traced run. Nothing here reaches into the
// program: counts are deltas of counters the packages export, times are
// taken around calls into exported functions, against the workload's own
// loaded database.

// Exported counters, summed over the databases of a workload.
const (
	cParStmts = iota
	cParRuns
	cParseStmts
	cParseHits
	cHist
	cDefault
	cIface
	cRows
	cPoolHits
	cPoolMisses
	cRaHits
	cRaPages
	cIxHits
	cIxMisses
	cWalRecords
	cWalBytes
	cWalFsyncs
	cWalCommits
	cWalGroups
	cWalGroupSum
	cWalCkpts
	numCounters
)

type counters [numCounters]float64

func readCounters(dbs ...*engine.DB) counters {
	var c counters
	for _, db := range dbs {
		st := db.Stats()
		c[cParStmts] += float64(st.ParallelSelects)
		c[cParRuns] += float64(st.ParallelRuns)
		c[cParseStmts] += float64(st.ParseStatements)
		c[cParseHits] += float64(st.ParseHits)
		c[cHist] += float64(st.HistEstimates)
		c[cDefault] += float64(st.DefaultEstimates)
		c[cIface] += float64(st.InterfaceCalls)
		c[cRows] += float64(st.RowsShipped)
		for _, sh := range db.Pool().Stats() {
			c[cPoolHits] += float64(sh.Hits + sh.ReadaheadHits)
			c[cPoolMisses] += float64(sh.Misses)
		}
		_, pages, hits := db.Pool().ReadaheadStats()
		c[cRaPages] += float64(pages)
		c[cRaHits] += float64(hits)
		if ic := db.IndexCache(); ic != nil {
			s := ic.Stats()
			c[cIxHits] += float64(s.Hits)
			c[cIxMisses] += float64(s.Misses)
		}
		if w := db.WAL(); w != nil {
			s := w.Stats()
			c[cWalRecords] += float64(s.Records)
			c[cWalBytes] += float64(s.Bytes)
			c[cWalFsyncs] += float64(s.Fsyncs)
			c[cWalCommits] += float64(s.Commits)
			c[cWalGroups] += float64(s.Groups)
			c[cWalGroupSum] += float64(s.GroupSum)
			c[cWalCkpts] += float64(s.Checkpoints)
		}
	}
	return c
}

func (c *counters) addDelta(after, before counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// layerData collects the ledger of one traced run.
type layerData struct {
	metrics map[string]float64
	passes  counters // summed over the traced passes
	at      counters // at the start of the current pass

	simAt     counters
	simMem    runtime.MemStats
	simByKind [len(simKinds)]time.Duration
}

func newLayerData() *layerData {
	ld := &layerData{metrics: map[string]float64{}}
	for _, m := range perLayer {
		ld.metrics[m.Name] = 0
	}
	return ld
}

// nsPer times n calls of fn and returns nanoseconds per call.
func nsPer(n int, fn func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// allocsPer counts the process's allocations over n calls of fn, per call.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return ratio(float64(b.Mallocs-a.Mallocs), float64(n))
}

// --- hooks of the wire run ---

// beforeSim snapshots what the sim pass will be charged against.
func (ld *layerData) beforeSim(r *wireRun, m *cost.Meter) {
	ld.simAt = readCounters(r.db)
	for i, k := range simKinds {
		ld.simByKind[i] = m.ByKind(k)
	}
	runtime.ReadMemStats(&ld.simMem)
}

// afterSim turns the sim pass — every op of a pass in process, one
// goroutine, a meter the benchmark owns — into the executor's numbers and
// the attribution of sim_pass_s.
func (ld *layerData) afterSim(r *wireRun, m *cost.Meter, tuples0 int64, sim time.Duration, ops int, wall time.Duration) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var d counters
	d.addDelta(readCounters(r.db), ld.simAt)
	tuples := float64(m.Count(cost.TupleCPU) - tuples0)
	lm := ld.metrics
	lm["engine.exec_ns_per_tuple"] = ratio(float64(wall), tuples)
	lm["engine.tuples_per_row"] = ratio(tuples, d[cRows])
	lm["engine.exec_allocs_per_op"] = ratio(float64(mem.Mallocs-ld.simMem.Mallocs), float64(ops))
	lm["engine.exec_alloc_kb_per_op"] = ratio(float64(mem.TotalAlloc-ld.simMem.TotalAlloc)/1024, float64(ops))
	lm["engine.interface_calls_per_op"] = ratio(d[cIface], float64(ops))
	lm["engine.rows_shipped_per_op"] = ratio(d[cRows], float64(ops))
	for i, k := range simKinds {
		lm["cost.sim_share."+k.String()] = ratio(float64(m.ByKind(k)-ld.simByKind[i]), float64(sim))
	}
}

func (ld *layerData) beginPass(dbs ...*engine.DB) { ld.at = readCounters(dbs...) }
func (ld *layerData) endPass(dbs ...*engine.DB)   { ld.passes.addDelta(readCounters(dbs...), ld.at) }

// counts fills in the metrics that are deltas of exported counters over
// the traced passes.
func (ld *layerData) counts(m *measure) {
	c, lm := ld.passes, ld.metrics
	ops, passes := float64(m.ops()), float64(len(m.passWall))
	lm["engine.parsecache.hit_ratio"] = ratio(c[cParseHits], c[cParseStmts])
	lm["engine.plan.hist_estimates"] = c[cHist]
	lm["engine.plan.default_estimates"] = c[cDefault]
	lm["engine.parallel.runs"] = c[cParRuns]
	lm["engine.parallel.selects"] = c[cParStmts]
	lm["storage.pool.hit_ratio"] = ratio(c[cPoolHits], c[cPoolHits]+c[cPoolMisses])
	lm["storage.pool.misses_per_op"] = ratio(c[cPoolMisses], ops)
	lm["storage.pool.readahead_hit_ratio"] = ratio(c[cRaHits], c[cRaPages])
	lm["btree.index_cache.hit_ratio"] = ratio(c[cIxHits], c[cIxHits]+c[cIxMisses])
	lm["storage.wal.records_per_commit"] = ratio(c[cWalRecords], c[cWalCommits])
	lm["storage.wal.avg_group"] = ratio(c[cWalGroupSum], c[cWalGroups])
	lm["storage.wal.fsyncs_per_commit"] = ratio(c[cWalFsyncs], c[cWalCommits])
	lm["storage.wal.checkpoints"] = c[cWalCkpts]
	lm["client.op_p99_ms"] = median(m.passP99)
	lm["runtime.gc_cycles_per_pass"] = ratio(float64(m.gcCycles), passes)
	lm["runtime.gc_pause_ms_per_pass"] = ratio(float64(m.gcPause)/1e6, passes)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	lm["runtime.gc_cpu_share"] = mem.GCCPUFraction
}

// layers computes the rest of the ledger once the wire passes and their
// replay are over.
func (ld *layerData) layers(r *wireRun, tr *tracer) {
	lm := ld.metrics
	ld.counts(r.m)
	if w := r.db.WAL(); w != nil {
		lm["storage.wal.log_mb"] = float64(w.Size()) / (1 << 20)
		lm["storage.wal.bytes_per_user_byte"] = ratio(ld.passes[cWalBytes], float64(r.userBytes))
	}

	// Spans: the engine's share of an op, and what is left for transport.
	ns, n := tr.byName()
	lm["engine.exec_share"] = ratio(float64(ns[spPrepare]+ns[spExec]), float64(ns[spOpWire]))
	wireNs := make([]float64, tr.nextOp)
	work := make([]float64, tr.nextOp) // the replay without the attribution-only parse span
	for _, s := range tr.spans {
		switch d := float64(s.end - s.start); s.name {
		case spOpWire:
			wireNs[s.op] = d
		case spOpReplay:
			work[s.op] += d
		case spParse:
			work[s.op] -= d
		}
	}
	diff := make([]float64, len(wireNs))
	for i := range diff {
		diff[i] = wireNs[i] - work[i]
	}
	lm["server.transport_ns"] = median(diff)
	lm["server.transport_share"] = ratio(median(diff), median(wireNs))

	rp := r.replay
	lm["wire.encode_ns_per_row"] = ratio(float64(ns[spEncode]), float64(rp.rows))
	lm["wire.decode_ns_per_row"] = ratio(float64(ns[spDecode]), float64(rp.rows))
	lm["wire.bytes_per_row"] = ratio(float64(rp.bytes), float64(rp.rows))
	lm["wire.bytes_per_op"] = ratio(float64(rp.bytes), float64(n[spOpReplay]))
	lm["wire.frame_ns"] = ratio(float64(ns[spFrame]), float64(n[spFrame]))
	var frameRows int
	for _, f := range rp.frames {
		if res, err := decodeResultFrame(f); err == nil {
			frameRows += len(res.Rows)
		}
	}
	lm["wire.decode_allocs_per_row"] = ratio(allocsPer(len(rp.frames), func(i int) { _, _ = decodeResultFrame(rp.frames[i]) })*float64(len(rp.frames)), float64(frameRows))

	// The client's floor and its streaming rate.
	c0 := r.clients[0]
	rtt := make([]float64, 2000)
	for i := range rtt {
		t0 := time.Now()
		if _, err := c0.stmts[stFloor].Query(val.Int(int64(i % 5))); err != nil {
			r.m.fail("floor round trip: %v", err)
			break
		}
		rtt[i] = float64(time.Since(t0))
	}
	lm["client.floor_rtt_ns"] = median(rtt)
	var rows int
	t0 := time.Now()
	for i := 0; i < 20; i++ {
		_, _, err := c0.conn.QueryArray(stmtSQL[stArray], []val.Value{val.Int(1), val.Int(arrayOrders)}, func(batch [][]val.Value) error {
			rows += len(batch)
			return nil
		})
		if err != nil {
			r.m.fail("array fetch: %v", err)
			break
		}
	}
	lm["client.array_rows_per_s"] = ratio(float64(rows), time.Since(t0).Seconds())

	// The front end, over the workload's own texts.
	texts, cached := r.texts()
	frontEnd(lm, r.checker.sess, texts, cached)
	ld.simSpans(r)

	// Storage, B-tree and row codec on the loaded data.
	write := r.kind == kindWrite
	stmtOverhead(lm, r.db, "ORDERS", microStorage(lm, r.db, "ORDERS", "LINEITEM", write, write, r.cfg.seed))

	// The split of setup_s.
	lm["tpcd.load_rows_per_s"] = ratio(float64(tableRows(r.db)), median(r.loadS))
	lm["dbgen.rows_per_s"] = dbgenRate(r.gen)
	t0 = time.Now()
	if err := r.db.AnalyzeAll(); err != nil {
		r.m.fail("analyze: %v", err)
	}
	lm["engine.analyze_s"] = time.Since(t0).Seconds()
}

// texts returns the distinct statement texts the last pass sent (at most
// 256), and the subset sure to sit in the fingerprint cache: texts seen
// before the cache filled, which the prepared statements and the 17 queries
// are and a literal-inlined lookup may not be.
func (r *wireRun) texts() (all, cached []string) {
	seen := map[string]bool{}
	add := func(list *[]string, sql string) {
		if !seen[sql] && len(*list) < 256 {
			seen[sql] = true
			*list = append(*list, sql)
		}
	}
	for _, o := range r.lastOps[0] {
		if o.send == sendPrepared {
			add(&cached, stmtSQL[o.stmt])
			continue
		}
		for _, sql := range o.sqls {
			if r.kind == kindDSS || o.send == sendArray {
				add(&cached, sql)
			} else {
				add(&all, sql)
			}
		}
	}
	return append(all, cached...), cached
}

// frontEnd times the parser alone and Session.Prepare on texts the
// fingerprint cache has and has not seen.
func frontEnd(lm map[string]float64, sess *engine.Session, texts, cached []string) {
	if len(texts) == 0 {
		return
	}
	var bytes int
	for _, t := range texts {
		bytes += len(t)
	}
	reps := max(1, 2000/len(texts))
	p := sqlparse.NewParser()
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, t := range texts {
			_, _ = p.Parse(t)
		}
	}
	el := time.Since(t0)
	lm["sqlparse.parse_ns"] = float64(el) / float64(reps*len(texts))
	lm["sqlparse.parse_mb_s"] = ratio(float64(reps*bytes)/1e6, el.Seconds())
	lm["sqlparse.parse_allocs"] = allocsPer(reps*len(texts), func(i int) { _, _ = sqlparse.Parse(texts[i%len(texts)]) })

	// A text the cache has never seen: the same statement with trailing
	// blanks (the fingerprint is over the raw bytes). DDL is left out, it
	// would run.
	var selects []string
	for _, t := range texts {
		if isSelect(t) {
			selects = append(selects, t)
		}
	}
	if len(selects) > 0 {
		unseen := make([]string, 200)
		for i := range unseen {
			unseen[i] = selects[i%len(selects)] + strings.Repeat(" ", 1+i/len(selects))
		}
		lm["engine.prepare_miss_ns"] = nsPer(len(unseen), func(i int) { _, _ = sess.Prepare(unseen[i]) })
	}
	var hits []string
	for _, t := range cached {
		if isSelect(t) {
			hits = append(hits, t)
		}
	}
	if len(hits) > 0 {
		lm["engine.prepare_hit_ns"] = nsPer(2000, func(i int) { _, _ = sess.Prepare(hits[i%len(hits)]) })
	}
}

func isSelect(sql string) bool {
	return strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "SELECT")
}

// simSpans attributes simulated time to the top-level children of
// Session.ExplainAnalyze over the workload's SELECTs: parse+optimize, row
// shipping, and the operators between them.
func (ld *layerData) simSpans(r *wireRun) {
	var parse, ship, total time.Duration
	analyze := func(sql string, params ...val.Value) {
		a, err := r.checker.sess.ExplainAnalyze(sql, params...)
		if err != nil {
			r.m.fail("explain analyze %q: %v", sql, err)
			return
		}
		total += a.Root.Total()
		for _, ch := range a.Root.Children() {
			switch ch.Name() {
			case "parse+optimize":
				parse += ch.Total()
			case "row-ship":
				ship += ch.Total()
			}
		}
	}
	if r.kind == kindDSS {
		for _, q := range r.og.queries {
			for _, sql := range q.SQL {
				if isSelect(sql) {
					analyze(sql)
				} else if _, err := r.checker.sess.Exec(sql); err != nil {
					r.m.fail("%q: %v", sql, err)
				}
			}
		}
	} else {
		for _, o := range r.lastOps[0][:min(500, len(r.lastOps[0]))] {
			if o.want != wantAffected && o.send == sendPrepared {
				analyze(stmtSQL[o.stmt], o.params...)
			}
		}
	}
	lm := ld.metrics
	lm["cost.sim_share.span.parse_optimize"] = ratio(float64(parse), float64(total))
	lm["cost.sim_share.span.row_ship"] = ratio(float64(ship), float64(total))
	lm["cost.sim_share.span.operators"] = ratio(float64(total-parse-ship), float64(total))
}

// dbgenRate generates the whole population without loading it.
func dbgenRate(g *dbgen.Generator) float64 {
	var rows int64
	t0 := time.Now()
	_ = g.Suppliers(func(dbgen.Supplier) error { rows++; return nil })
	_ = g.Parts(func(dbgen.Part) error { rows++; return nil })
	_ = g.PartSupps(func(dbgen.PartSupp) error { rows++; return nil })
	_ = g.Customers(func(dbgen.Customer) error { rows++; return nil })
	_ = g.Orders(func(o *dbgen.Order) error { rows += 1 + int64(len(o.Lines)); return nil })
	return ratio(float64(rows), time.Since(t0).Seconds())
}

// microStorage times the storage, B-tree and row-codec calls a statement
// is made of: reads against db's loaded tables (probe: looked up by primary
// key; scan: scanned, and the source of the row image), writes against
// scratch structures of the same shape so the database under test is not
// changed. writes and bulk say whether the workload exercises those paths.
//
// It returns the primary-key values it probed with.
func microStorage(lm map[string]float64, db *engine.DB, probe, scan string, writes, bulk bool, seed int64) (pkVals [][]val.Value) {
	pt, st := db.Table(probe), db.Table(scan)
	if pt == nil || st == nil || len(pt.PrimaryKey) == 0 || len(pt.Indexes) == 0 {
		return nil
	}
	pk := pt.Indexes[0].Tree // the primary-key index is created with the table
	pool := db.Pool()

	// Keys of up to 2000 rows spread over the probe table.
	stride := max(1, int(pt.Rows())/2000)
	i := 0
	_ = pt.Heap.Scan(nil, func(_ storage.RID, row []val.Value) error {
		if i%stride == 0 {
			vals := make([]val.Value, len(pt.PrimaryKey))
			for j, ci := range pt.PrimaryKey {
				vals[j] = row[ci]
			}
			pkVals = append(pkVals, vals)
		}
		i++
		return nil
	})
	if len(pkVals) == 0 {
		return nil
	}
	rand.New(rand.NewSource(subSeed(seed, 500))).Shuffle(len(pkVals), func(a, b int) { pkVals[a], pkVals[b] = pkVals[b], pkVals[a] })
	keys := make([][]byte, len(pkVals))
	for i, vals := range pkVals {
		keys[i] = val.EncodeKey(vals...)
	}

	const n = 20000
	rids := make([]storage.RID, len(keys))
	for i, k := range keys {
		if it := pk.Seek(k, nil); it.Next() {
			rids[i] = it.RID
		}
	}
	lm["btree.seek_ns"] = nsPer(n, func(i int) { pk.Seek(keys[i%len(keys)], nil) })
	it := pk.Seek(nil, nil)
	steps := int(min(int64(n), pk.Entries()))
	lm["btree.next_ns"] = nsPer(steps, func(int) { it.Next() })
	out := make([]val.Value, 0, 32)
	lm["storage.heap.fetch_ns"] = nsPer(n, func(i int) { out, _ = pt.Heap.Fetch(rids[i%len(rids)], nil, out[:0]) })
	lm["storage.pool.get_hit_ns"] = nsPer(n, func(i int) { _, _ = pool.Get(pt.Heap.File(), rids[i%len(rids)].Page, nil) })

	var scanned int
	t0 := time.Now()
	_ = st.Heap.Scan(nil, func(storage.RID, []val.Value) error { scanned++; return nil })
	lm["storage.heap.scan_ns_per_row"] = ratio(float64(time.Since(t0)), float64(scanned))

	// Pages the pool does not hold (there are some when the data is larger
	// than the pool, right after a scan of the other table).
	var cold []storage.PageID
	for p := 0; p < pt.Heap.Pages() && len(cold) < 512; p++ {
		if !pool.Contains(pt.Heap.File(), storage.PageID(p)) {
			cold = append(cold, storage.PageID(p))
		}
	}
	lm["storage.pool.get_miss_ns"] = nsPer(len(cold), func(i int) { _, _ = pool.Get(pt.Heap.File(), cold[i], nil) })

	// The row codec, on the scan table's first row.
	codec := st.Heap.Codec()
	var row []val.Value
	_ = st.Heap.Scan(nil, func(_ storage.RID, r []val.Value) error {
		row = append([]val.Value(nil), r...)
		return storage.ErrStopScan
	})
	if row == nil {
		return pkVals
	}
	enc := make([]byte, 0, codec.RowBytes())
	lm["val.rowcodec.encode_ns"] = nsPer(n, func(int) { enc, _ = codec.Encode(enc[:0], row) })
	lm["val.rowcodec.decode_ns"] = nsPer(n, func(int) { out, _ = codec.Decode(enc, out[:0]) })
	lm["val.key.encode_ns"] = nsPer(n, func(i int) { val.EncodeKey(val.Int(int64(i))) })

	if bulk {
		const entries = 50000
		es := make([]btree.BulkEntry, entries)
		for i := range es {
			es[i] = btree.BulkEntry{Key: val.EncodeKey(val.Int(int64(i))), RID: storage.RID{Page: storage.PageID(i / 64), Slot: uint16(i % 64)}}
		}
		t0 := time.Now()
		_ = btree.New(true).BulkBuild(es, nil)
		lm["btree.bulkbuild_ns_per_entry"] = float64(time.Since(t0)) / entries
	}
	if !writes {
		return pkVals
	}
	// Writes go to a scratch disk, pool, log and heap of the scan table's
	// row shape, and to a scratch tree.
	disk := storage.NewDisk()
	spool := storage.NewBufferPool(disk, engine.DefaultBufferBytes)
	heap := storage.NewHeapFile(disk, spool, codec)
	wal := storage.NewWAL(disk, groupCommit)
	heap.SetWAL(wal)
	spool.SetWAL(wal)
	ins := make([]storage.RID, n)
	lm["storage.heap.insert_ns"] = nsPer(n, func(i int) { ins[i], _ = heap.InsertTx(0, row, nil) })
	lm["storage.pool.mutate_ns"] = nsPer(n, func(i int) {
		_ = spool.Mutate(heap.File(), ins[i].Page, nil, func([]byte) (bool, error) { return true, nil })
	})
	lm["storage.heap.delete_ns"] = nsPer(n, func(i int) { _ = heap.DeleteTx(0, ins[i], nil) })
	log := storage.NewWAL(storage.NewDisk(), groupCommit)
	lm["storage.wal.append_commit_ns"] = nsPer(n, func(i int) {
		tx := log.Begin()
		log.LogInsert(tx, 1, storage.PageID(i/64), i%64, enc)
		log.Commit(tx, nil)
	})
	tree := btree.New(true)
	order := rand.New(rand.NewSource(subSeed(seed, 501))).Perm(n)
	tkeys := make([][]byte, n)
	for i, k := range order {
		tkeys[i] = val.EncodeKey(val.Int(int64(k)))
	}
	lm["btree.insert_ns"] = nsPer(n, func(i int) { _ = tree.Insert(tkeys[i], storage.RID{Page: storage.PageID(i)}, nil) })
	lm["btree.delete_ns"] = nsPer(n, func(i int) { _ = tree.Delete(tkeys[i], storage.RID{Page: storage.PageID(i)}, nil) })
	return pkVals
}
