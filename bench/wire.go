package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"r3bench/internal/client"
	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/server"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// The four wire workloads drive the path a user drives: client.Dial →
// loopback TCP → server.New(db).Serve → engine → storage/btree/WAL, in a
// closed loop (a session sends its next op when the reply to the last one
// has arrived, like an R/3 work process), from this one process.

// executor is how an op is sent: over the wire or in process.
type executor interface {
	exec(o *op) (*engine.Result, error)
}

// lastResult runs the statements of an op and returns the answer of the
// last one that returned rows (Q15 is CREATE VIEW, SELECT, DROP VIEW), as
// tpcd.RDBMS.RunQuery does.
func lastResult(sqls []string, run func(sql string) (*engine.Result, error)) (*engine.Result, error) {
	var last *engine.Result
	for _, sql := range sqls {
		res, err := run(sql)
		if err != nil {
			return nil, err
		}
		if last == nil || res.Cols != nil {
			last = res
		}
	}
	return last, nil
}

// wireClient is one connection with the statement table prepared on it.
type wireClient struct {
	conn  *client.Conn
	stmts [numStmts]*client.Stmt
}

func dialClient(addr string) (*wireClient, error) {
	conn, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &wireClient{conn: conn}
	for i, sql := range stmtSQL {
		if c.stmts[i], err = conn.Prepare(sql); err != nil {
			conn.Close()
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
	}
	return c, nil
}

func (c *wireClient) exec(o *op) (*engine.Result, error) {
	switch o.send {
	case sendPrepared:
		return c.stmts[o.stmt].Query(o.params...)
	case sendArray:
		res := &engine.Result{}
		cols, affected, err := c.conn.QueryArray(o.sqls[0], o.params, func(batch [][]val.Value) error {
			res.Rows = append(res.Rows, batch...)
			return nil
		})
		res.Cols, res.RowsAffected = cols, affected
		return res, err
	default:
		return lastResult(o.sqls, func(sql string) (*engine.Result, error) { return c.conn.Query(sql, o.params...) })
	}
}

// localClient is the benchmark's own in-process session with the same
// statement table: the sim pass, the expected answers and the traced
// replay run on it.
type localClient struct {
	sess  *engine.Session
	stmts [numStmts]*engine.Stmt
}

func newLocalClient(db *engine.DB, m *cost.Meter) (*localClient, error) {
	l := &localClient{sess: db.NewSessionWithMeter(m)}
	for i, sql := range stmtSQL {
		var err error
		if l.stmts[i], err = l.sess.Prepare(sql); err != nil {
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
	}
	return l, nil
}

func (l *localClient) exec(o *op) (*engine.Result, error) {
	if o.send == sendPrepared {
		return l.stmts[o.stmt].Query(o.params...)
	}
	return lastResult(o.sqls, func(sql string) (*engine.Result, error) { return l.sess.Exec(sql, o.params...) })
}

// passRec is what one pass records, client after client: each op's start,
// latency, answer fingerprint and error.
type passRec struct {
	ops   [][]op
	off   []int // client c's ops are lat[off[c]:off[c+1]]
	start []int64
	lat   []int64
	class []uint8
	fp    []uint64
	err   []error
}

func newPassRec(ops [][]op) *passRec {
	rec := &passRec{ops: ops, off: make([]int, len(ops)+1)}
	for c, o := range ops {
		rec.off[c+1] = rec.off[c] + len(o)
	}
	n := rec.off[len(ops)]
	rec.start, rec.lat, rec.class, rec.fp = make([]int64, n), make([]int64, n), make([]uint8, n), make([]uint64, n)
	rec.err = make([]error, n)
	for c, list := range ops {
		for i := range list {
			rec.class[rec.off[c]+i] = list[i].class
		}
	}
	return rec
}

// runClient sends one client's ops in a closed loop. origin is the zero of
// the recorded start times.
func (rec *passRec) runClient(c int, ex executor, origin time.Time) {
	ops, base := rec.ops[c], rec.off[c]
	for i := range ops {
		t0 := time.Now()
		res, err := ex.exec(&ops[i])
		rec.lat[base+i] = int64(time.Since(t0))
		rec.start[base+i] = int64(t0.Sub(origin))
		if rec.err[base+i] = err; err == nil {
			rec.fp[base+i] = fingerprint(res)
		}
	}
}

// runPass runs all clients of a pass concurrently and returns the pass's
// wall time.
func (rec *passRec) runPass(execs []executor, origin time.Time) time.Duration {
	start := time.Now()
	if len(execs) == 1 {
		rec.runClient(0, execs[0], origin)
		return time.Since(start)
	}
	var wg sync.WaitGroup
	for c := range execs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec.runClient(c, execs[c], origin)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

type wireKind int

const (
	kindDSS wireKind = iota
	kindRead
	kindWrite
)

// wireRun is one run of one wire workload.
type wireRun struct {
	cfg     *runCfg
	kind    wireKind
	classes []string
	gen     *dbgen.Generator
	db      *engine.DB
	og      *opGen
	m       *measure
	origin  time.Time

	srv     *server.Server
	served  chan error
	clients []*wireClient
	execs   []executor
	sim     *localClient // charges simMeter: the sim pass and the traced replay
	checker *localClient // computes expected answers; its meter is not read
	expect  map[expKey]uint64

	loadS     []float64 // one per set-up repeat
	baseLines int64     // LINEITEM rows as loaded
	lastOps   [][]op    // the ops of the last pass any session ran (durability check, statement texts)
	openKey   int64     // the order key of the transaction left open
	userBytes int64     // traced: row bytes the wire passes inserted
	replay    *replayer
	replayed  int32
}

func runWire(cfg *runCfg) (*result, error) {
	r := &wireRun{cfg: cfg, expect: map[expKey]uint64{}, origin: time.Now()}
	switch cfg.w.name {
	case "oltp_read_wire":
		r.kind, r.classes = kindRead, readClasses
	case "oltp_write_wal":
		r.kind, r.classes = kindWrite, writeClasses
	default:
		r.kind, r.classes = kindDSS, dssClasses
	}
	r.m = newMeasure(r.classes)
	defer r.close()

	// --- set-up, on the clock: build the database, listen, dial, warm up.
	setupStart := time.Now()
	if err := r.build(); err != nil {
		return nil, err
	}
	r.baseLines = r.db.Table("LINEITEM").Rows()
	if r.kind == kindWrite {
		r.db.EnableWAL(groupCommit)
	}
	if err := r.connect(); err != nil {
		return nil, err
	}
	r.og = newOpGen(cfg.seed, cfg.sz, r.gen)
	warm := newPassRec(r.passOps(passWarmUp, 0))
	warm.runPass(r.execs, r.origin)
	r.lastOps = warm.ops
	// The database was built setupRepeats times; charge the median build.
	setupS := time.Since(setupStart).Seconds() - sum(r.loadS) + median(r.loadS)
	cfg.logf("set up in %.2f s (database built %d times, median %.2f s)", setupS, len(r.loadS), median(r.loadS))

	// --- the sim pass: the same kind of pass in process, on a meter the
	// benchmark owns (the server's per-connection meters cannot be reached
	// from outside). Its answers are the first expected answers.
	var err error
	simMeter := cost.NewMeter(r.db.Model())
	if r.sim, err = newLocalClient(r.db, simMeter); err != nil {
		return nil, err
	}
	if r.checker, err = newLocalClient(r.db, nil); err != nil {
		return nil, err
	}
	var tr *tracer
	var ld *layerData
	simOps := r.simPassOps()
	simRec := newPassRec(simOps)
	if cfg.trace {
		tr = newTracer(r.origin, r.classes)
		ld = newLayerData()
		ld.beforeSim(r, simMeter)
	}
	sim0, tuples0, t0 := simMeter.Elapsed(), simMeter.Count(cost.TupleCPU), time.Now()
	for c := range simOps {
		simRec.runClient(c, r.sim, r.origin)
	}
	simPass := simMeter.Lap(sim0)
	if ld != nil {
		ld.afterSim(r, simMeter, tuples0, simPass, len(simRec.lat), time.Since(t0))
	}
	simPassS := simPass.Seconds()
	r.check(simRec, true, nil)
	if r.kind == kindWrite {
		r.openTransaction()
	}

	digests := newClassDigests(r.classes)
	r.check(warm, false, digests)
	checkGoldens(cfg, r.m, digests)

	// --- the timed passes.
	n := cfg.timedPasses()
	timedStart := time.Now()
	var recs []*passRec
	for p := 0; p < n; p++ {
		rec := newPassRec(r.passOps(p, p+1))
		before := r.m.beginPass()
		if ld != nil {
			ld.beginPass(r.db)
		}
		wall := rec.runPass(r.execs, r.origin)
		r.m.endPass(before, wall, rec.lat, rec.class)
		r.lastOps = rec.ops
		if ld != nil {
			ld.endPass(r.db) // before the checker touches the database
			tr.wirePass(rec)
			recs = append(recs, rec)
			if r.kind == kindWrite {
				r.userBytes += r.insertedBytes(rec.ops)
			}
		}
		r.check(rec, false, nil)
		if cfg.overBudget(timedStart) && p+1 < n {
			cfg.logf("stopped after %d of %d passes: the timed section ran past twice -seconds", p+1, n)
			break
		}
	}
	r.m.finish()

	res := cfg.newResult(r.m)
	if cfg.trace {
		for p, rec := range recs {
			r.replayPass(tr, rec, p)
		}
		ld.layers(r, tr)
		res.Metrics = ld.metrics
		if err := tr.write(filepath.Join(cfg.dir, "out", "trace-"+cfg.w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		spaceAmp, err := r.spaceAmp()
		if err != nil {
			return nil, err
		}
		res.Metrics = r.m.endToEnd(setupS, simPassS, spaceAmp)
	}
	if r.kind == kindWrite {
		repeats := 1
		if cfg.trace {
			repeats = 3
		}
		rs := r.crashAndVerify(repeats)
		if cfg.trace {
			rs.into(res.Metrics)
		}
	}
	return res.close(r.m), nil
}

// build loads the TPC-D population setupRepeats times, keeping the last
// database; the earlier ones are garbage by the first timed pass.
func (r *wireRun) build() error {
	r.gen = dbgen.New(r.cfg.sz.sf)
	repeats := setupRepeats
	if r.cfg.smoke {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		r.db = engine.Open(engine.Config{Parallel: r.cfg.sz.parallel})
		if err := tpcd.Load(r.db, r.gen, nil); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		r.loadS = append(r.loadS, time.Since(t0).Seconds())
	}
	coldStart(r.db)
	return nil
}

// coldStart empties the buffer pool and the index-page residence model. The
// loaders fill tables in parallel, so which pages are resident after a load
// is up to the scheduler; from an empty cache the warm-up pass leaves the
// same state every time, and the counts of a 1-client workload repeat to
// the digit.
func coldStart(db *engine.DB) {
	for _, name := range db.TableNames() {
		t := db.Table(name)
		db.Pool().DropFile(t.Heap.File())
		for _, ix := range t.Indexes {
			ix.Tree.ReleaseCache()
		}
	}
}

// connect starts the server on a loopback port and dials the clients.
func (r *wireRun) connect() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = server.New(r.db)
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	for c := 0; c < r.cfg.sz.clients; c++ {
		cl, err := dialClient(ln.Addr().String())
		if err != nil {
			return fmt.Errorf("client %d: %w", c, err)
		}
		r.clients = append(r.clients, cl)
		r.execs = append(r.execs, cl)
	}
	return nil
}

// close hangs up, stops the server and waits for Serve to return.
func (r *wireRun) close() {
	for _, c := range r.clients {
		c.conn.Close()
	}
	if r.srv != nil {
		r.srv.Close()
		<-r.served
	}
}

// passOps generates every wire client's ops for a logical pass; ordinal
// counts the passes a write stream has run before it.
func (r *wireRun) passOps(pass, ordinal int) [][]op {
	ops := make([][]op, r.cfg.sz.clients)
	for c := range ops {
		switch r.kind {
		case kindDSS:
			ops[c] = r.og.dssPass(pass)
		case kindRead:
			ops[c] = r.og.readPass(c, pass)
		default:
			ops[c] = r.og.writePass(txStream{block: int64(c), client: c}, pass, ordinal)
		}
	}
	return ops
}

// simPassOps is the pass the benchmark runs in process on its own meter:
// one pass per client, run one after the other; write streams use key
// blocks of their own.
func (r *wireRun) simPassOps() [][]op {
	if r.kind != kindWrite {
		return r.passOps(passSim, 0)
	}
	ops := make([][]op, r.cfg.sz.clients)
	for c := range ops {
		ops[c] = r.og.writePass(txStream{block: int64(r.cfg.sz.clients + c), client: c}, passSim, 0)
	}
	return ops
}

// answer computes the in-process answer of a read-only op's (shape, key),
// through the prepared form of the shape whatever form the op itself took.
func (r *wireRun) answer(o *op) (uint64, error) {
	var res *engine.Result
	var err error
	switch {
	case r.kind == kindDSS:
		res, err = r.checker.exec(o)
	case o.shape == stArray:
		res, err = r.checker.stmts[stArray].Query(val.Int(o.key), val.Int(o.key+arrayOrders-1))
	default:
		res, err = r.checker.stmts[o.shape].Query(val.Int(o.key))
	}
	if err != nil {
		return 0, err
	}
	return fingerprint(res), nil
}

// check compares every answer of a pass with the expected one. inProcess
// marks the sim pass, whose answers are themselves in-process answers: the
// first one seen for a (shape, key) becomes the expectation.
func (r *wireRun) check(rec *passRec, inProcess bool, digests *classDigests) {
	for c, ops := range rec.ops {
		for i := range ops {
			o := &ops[i]
			r.m.attempted++
			if err := rec.err[rec.off[c]+i]; err != nil {
				r.m.fail("%s: %v", o.describe(r.classes), err)
				continue
			}
			got := rec.fp[rec.off[c]+i]
			if digests != nil {
				digests.add(int(o.class), got)
			}
			var want uint64
			switch o.want {
			case wantAffected:
				want = affectedFP(o.wantN)
			case wantRows:
				want = o.wantFP
			default:
				k := expKey{o.shape, o.key}
				w, ok := r.expect[k]
				if !ok {
					if inProcess {
						w = got
					} else {
						var err error
						if w, err = r.answer(o); err != nil {
							r.m.fail("%s: in-process answer: %v", o.describe(r.classes), err)
							continue
						}
					}
					r.expect[k] = w
				}
				want = w
			}
			if got != want {
				r.m.fail("%s: answer %x, want %x", o.describe(r.classes), got, want)
			}
		}
	}
}

// insertedBytes is the stored size of the rows a write pass's ops insert:
// what the log's volume is set against.
func (r *wireRun) insertedBytes(ops [][]op) int64 {
	orderBytes := int64(r.db.Table("ORDERS").Heap.Codec().RowBytes())
	lineBytes := int64(r.db.Table("LINEITEM").Heap.Codec().RowBytes())
	var n int64
	for _, list := range ops {
		for i := range list {
			switch list[i].class {
			case clInsertOrder:
				n += orderBytes
			case clInsertLine:
				n += lineBytes
			}
		}
	}
	return n
}

// checkGoldens pins seed 1 at full size to the checked-in digests.
func checkGoldens(cfg *runCfg, m *measure, d *classDigests) {
	if cfg.seed != 1 || cfg.smoke {
		return
	}
	g, err := loadGoldens(cfg.dir)
	if cfg.updateGolden {
		if err != nil {
			g = goldens{}
		}
		g[cfg.w.name] = d.hex()
		if err := g.save(cfg.dir); err != nil {
			m.fail("writing goldens: %v", err)
		}
		return
	}
	if err != nil {
		m.fail("goldens: %v", err)
		return
	}
	for _, class := range d.mismatches(g[cfg.w.name]) {
		m.fail("class %s: warm-up answers differ from %s", class, goldenFile)
	}
}

// spaceAmp is stored heap + index bytes over the bytes of dbgen's flat
// files for the same scale factor (the paper's Table 2).
func (r *wireRun) spaceAmp() (float64, error) {
	var stored int64
	for _, name := range r.db.TableNames() {
		t := r.db.Table(name)
		stored += t.DataBytes() + t.IndexBytes()
	}
	flat, err := flatBytes(r.cfg, r.gen)
	return ratio(float64(stored), float64(flat)), err
}

// flatBytes writes dbgen's .tbl files under out/ to learn their size, and
// removes them again.
func flatBytes(cfg *runCfg, g *dbgen.Generator) (int64, error) {
	tmp, err := os.MkdirTemp(filepath.Join(cfg.dir, "out"), "tbl-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	return g.WriteTbl(tmp)
}
