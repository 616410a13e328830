package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"r3bench/internal/cost"
	"r3bench/internal/sqlparse"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// Session is a client connection to the database. All work done through a
// session charges its Meter; the Interface/RowShip charges model the
// client/server boundary the paper's Section 4 experiments measure.
//
// A Session is safe for concurrent use from any number of goroutines:
// it holds no mutable state beyond the internally locked Meter, the
// lock-guarded transaction (its ID and the heaps it wrote) and the
// atomically swapped scratch slot, catalog resolution pins an immutable
// snapshot per statement, and page reads are isolated from writers by the
// buffer pool's copy-on-write. A prepared *Stmt, by contrast, carries
// plan/feedback state and belongs to one goroutine at a time.
type Session struct {
	db    *DB
	Meter *cost.Meter

	// A session's writes run in a transaction begun lazily at the first
	// mutation and ended by Commit or the statement's autocommit: under WAL
	// the log's, without it a negative ID of the database's own, which only
	// the heaps see. heaps are the tables' heaps it wrote, told when it
	// ends (storage.HeapFile.Committed), so that the pages it emptied can
	// be reused.
	txMu  sync.Mutex
	tx    int64
	heaps []*storage.HeapFile

	// scratch is the memory the session lends its statements, held weakly
	// between them (takeScratch); nil while a statement has it.
	scratch atomic.Pointer[scratchRef]
}

// writeTx returns the session's open transaction for a write to heap h,
// beginning one on first use.
func (s *Session) writeTx(h *storage.HeapFile) int64 {
	w := s.db.WAL()
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if s.tx == 0 {
		if w != nil {
			s.tx = w.Begin()
		} else {
			s.tx = -s.db.txSeq.Add(1)
		}
	}
	if !slices.Contains(s.heaps, h) {
		s.heaps = append(s.heaps, h)
	}
	return s.tx
}

// Commit ends the session's current transaction. Under WAL this is a
// log-force only — dirty data pages stay in the pool until a checkpoint
// or eviction writes them back, which is the whole point of write-ahead
// logging. Without WAL it keeps the engine's historical commit
// behavior: flush all dirty pages and charge one commit.
func (s *Session) Commit() {
	w := s.db.WAL()
	if w == nil {
		s.db.pool.FlushAll(s.Meter)
		s.Meter.Charge(cost.Commit, 1)
	}
	s.endTx(w)
}

// endTx ends the session's transaction: under WAL its commit record is
// logged, and then the heaps it wrote settle its writes.
func (s *Session) endTx(w *storage.WAL) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if w != nil {
		w.Commit(s.tx, s.Meter)
	}
	for _, h := range s.heaps {
		h.Committed(s.tx)
	}
	clear(s.heaps)
	s.tx, s.heaps = 0, s.heaps[:0]
}

// NewSession opens a session charging against the database's cost model.
func (db *DB) NewSession() *Session {
	return &Session{db: db, Meter: cost.NewMeter(db.model)}
}

// NewSessionWithMeter opens a session charging an existing meter (used by
// the R/3 layer, which shares one virtual clock between application
// server and RDBMS). A nil meter gets a fresh one.
func (db *DB) NewSessionWithMeter(m *cost.Meter) *Session {
	if m == nil {
		m = cost.NewMeter(db.model)
	}
	return &Session{db: db, Meter: m}
}

// Result is a fully materialized statement result.
type Result struct {
	Cols         []string
	Rows         [][]val.Value
	RowsAffected int64
}

// RowSink receives a statement's result while it is produced: Header once,
// before any row, with the column names (nil when the statement is not a
// SELECT), then Row for every result row in order. A row is valid only
// until Row returns; an error from either method ends the statement.
//
// The statement is the ownership boundary of CHAR bytes: inside it a string
// value is a view of the page image it was decoded from (val.ColSet.Decode),
// and Row is where a row leaves it. A sink that encodes or prints the row
// before it returns needs nothing, nor does one whose reader drops the row
// soon, as an R/3 Open SQL cursor's fetch stack does. One that keeps rows
// copies the slice and gives the strings storage of their own
// (val.Slab.Own), as the materialising sink behind Exec and Query does: a
// kept view pins its whole 8 KiB image, superseded or not.
type RowSink interface {
	Header(cols []string) error
	Row(row []val.Value) error
}

// collect is the materialising RowSink: it copies every row into its Result,
// the values into a chunk list that trims after each cut, so that it holds
// only the chunk being cut, and the CHAR bytes into slab chunks the Result's
// rows share.
type collect struct {
	Result
	vals  val.Chunks[val.Value]
	chars val.Slab
}

func newCollect(cols []string) *collect {
	c := &collect{Result: Result{Cols: cols}}
	c.vals.Max = val.ChunkMax
	return c
}

func (c *collect) Header(cols []string) error {
	c.Cols = cols
	return nil
}

func (c *collect) Row(row []val.Value) error {
	own := c.vals.Cut(len(row))
	c.vals.Trim()
	copy(own, row)
	c.chars.Own(own)
	c.Rows = append(c.Rows, own)
	return nil
}

// materialize runs a streaming execution into a fresh Result.
func materialize(run func(RowSink) (int64, error)) (*Result, error) {
	c := newCollect(nil)
	n, err := run(c)
	if err != nil {
		return nil, err
	}
	c.RowsAffected = n
	return &c.Result, nil
}

// Exec parses, plans and executes one SQL statement. Repeated statement
// texts hit the fingerprint cache (see parsecache.go), skipping the real
// lexer and — when the cached plan is epoch-valid — the optimizer; the
// modelled parse+optimize charge is made either way, so the simulated
// clock cannot tell the difference.
func (s *Session) Exec(sql string, params ...val.Value) (*Result, error) {
	return materialize(func(sink RowSink) (int64, error) { return s.ExecTo(sink, sql, params...) })
}

// ExecTo is Exec with the result streamed to sink instead of materialized;
// it returns the rows affected. Rows that reached the sink before an error
// stay delivered. sink must not run statements against the same DB: rows
// reach it at the block's flush points, which only the pool-invisible
// blocks may choose freely (selectPlan.planUnobserved), so storage work of
// its own would charge differently from one batch capacity to the next.
func (s *Session) ExecTo(sink RowSink, sql string, params ...val.Value) (int64, error) {
	o := s.db.opts.Load()
	plan, stmt, err := s.compile(sql)
	if err != nil {
		return 0, err
	}
	if plan != nil {
		rt := &runtime{sess: s, params: params}
		rt.begin()
		defer rt.done()
		return 0, s.runSelect(rt, plan, sink, o.ArrayFetch)
	}
	s.chargeCall()
	return s.execParsed(sink, stmt, params)
}

// compile is the front half of every SELECT run from its text — ExecTo's,
// ExplainAnalyze's and QueryPartial's: the parse, one interface call with
// its parse+optimize round, and the plan. Any other statement comes back
// parsed, uncharged and unplanned, for ExecTo to run or the others to refuse.
func (s *Session) compile(sql string) (*selectPlan, sqlparse.Statement, error) {
	stmt, entry, err := s.db.parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, stmt, nil
	}
	s.chargeCall()
	plan, err := s.db.planFor(entry, sel)
	return plan, stmt, err
}

// chargeCall charges one interface round trip with its parse+optimize round.
func (s *Session) chargeCall() {
	s.db.ifaceCalls.Add(1)
	s.Meter.Charge(cost.Interface, 1)
	s.Meter.Charge(cost.Optimize, 1)
}

// Query is Exec restricted to SELECT statements.
func (s *Session) Query(sql string, params ...val.Value) (*Result, error) {
	res, err := s.Exec(sql, params...)
	if err != nil {
		return nil, err
	}
	if res.Cols == nil {
		return nil, fmt.Errorf("engine: Query on a non-SELECT statement")
	}
	return res, nil
}

// execParsed runs a parsed statement that is not a SELECT.
func (s *Session) execParsed(sink RowSink, stmt sqlparse.Statement, params []val.Value) (int64, error) {
	var n int64
	var err error
	switch st := stmt.(type) {
	case *sqlparse.CreateTable:
		_, err = s.db.createTable(st)
	case *sqlparse.CreateIndex:
		_, err = s.db.createIndex(st, s.Meter)
	case *sqlparse.DropIndex:
		err = s.db.dropIndex(st.Name)
	case *sqlparse.DropTable:
		err = s.db.dropTable(st.Name)
	case *sqlparse.CreateView:
		err = s.db.createView(st)
	case *sqlparse.DropView:
		err = s.db.dropView(st.Name)
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		var d *dmlPlan
		if d, err = s.db.planDML(s.db.snap(), st); err == nil {
			rt := &runtime{sess: s, params: params}
			rt.begin()
			n, err = s.runDML(rt, d)
			rt.done()
		}
	default:
		err = fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if err != nil {
		return 0, err
	}
	return n, sink.Header(nil)
}

// runSelect executes a compiled plan on rt, streaming the result to sink
// and charging client row shipping: one RowShip per row, or — under the
// array interface (array, from the statement's options snapshot) — one
// RowShipBatch per packet once the row count is known. A profiled rt
// (ExplainAnalyze) is the same run with its operator spans installed.
func (s *Session) runSelect(rt *runtime, plan *selectPlan, sink RowSink, array bool) error {
	s.db.noteSelect(plan)
	if err := sink.Header(plan.outCols); err != nil {
		return err
	}
	if rt.ship == nil {
		rt.ship = rt.shipRow
	}
	rt.out, rt.array, rt.shipped = sink, array, 0
	if err := plan.run(rt, nil, rt.ship); err != nil {
		return err
	}
	rt.shipDone()
	return nil
}

// shipDone books a shipped result with the interface counters and, under
// the array interface, charges its packets: one RowShipBatch per started
// packet of cost.ArrayFetchRows rows.
func (rt *runtime) shipDone() {
	db := rt.sess.db
	db.ifaceRows.Add(rt.shipped)
	if rt.prof != nil {
		rt.prof.ship.AddRows(rt.shipped)
	}
	if rt.array && rt.shipped > 0 {
		packets := (rt.shipped + cost.ArrayFetchRows - 1) / cost.ArrayFetchRows
		rt.chargeShip(cost.RowShipBatch, packets)
		db.ifacePackets.Add(packets)
	}
}

// Stmt is a prepared statement: parsed and optimized once, re-executable
// with fresh parameters. This is the engine-side half of SAP R/3's cursor
// caching — and, because the plan is chosen before the parameter values
// exist, the vehicle for the paper's Section 4.1 access-path experiment.
type Stmt struct {
	sess  *Session
	plan  *selectPlan
	dml   *dmlPlan // INSERT, UPDATE or DELETE: planned at the first execution
	ast   sqlparse.Statement
	sel   *sqlparse.SelectStmt // non-nil for SELECT statements
	entry *parseEntry          // fingerprint-cache entry, nil when uncached

	// catVersion is the catalog version plan or dml was last checked against.
	catVersion int64
	// rt is the statement's own runtime: a Stmt belongs to one goroutine at
	// a time, so the run state of its plan's blocks, or its DML's, is kept
	// from execution to execution (see vec.go) and dropped with the plan.
	rt *runtime

	// Adaptive-replanning state: observed cardinalities by relation
	// alias, and how many replans this statement has spent.
	feedback map[string]float64
	replans  int
}

// feedbackFactor is the estimate-vs-actual mismatch ratio (either
// direction) that invalidates a cached plan; replanCap bounds replans per
// statement. Together they make adaptation deterministic: a replanned
// plan's estimate equals the observed count, so the trigger cannot fire
// again for the same cardinality, and the cap ends any residual churn
// after at most replanCap re-optimizations.
const (
	feedbackFactor = 10.0
	replanCap      = 2
)

// Prepare parses and (for SELECT) optimizes a statement. With bind
// peeking enabled, SELECT optimization is deferred to the first Query,
// when the actual parameter values are available.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	o := s.db.opts.Load()
	ast, entry, err := s.db.parse(sql)
	if err != nil {
		return nil, err
	}
	s.db.ifaceCalls.Add(1)
	s.Meter.Charge(cost.Interface, 1)
	st := &Stmt{sess: s, ast: ast, entry: entry}
	if sel, ok := ast.(*sqlparse.SelectStmt); ok {
		st.sel = sel
		if o.PeekBinds {
			return st, nil // the optimize charge moves to the first Query
		}
	}
	s.Meter.Charge(cost.Optimize, 1)
	if st.sel != nil {
		if st.plan, err = s.db.planFor(entry, st.sel); err != nil {
			return nil, err
		}
		st.catVersion = st.plan.catVersion
	}
	return st, nil
}

// Query re-executes the prepared statement (a cursor REOPEN): one
// interface round trip and normally no re-optimization. A deferred
// (peeking) or invalidated (adaptive) statement replans first, and so does
// one whose tables or views DDL has changed since it was planned; it fails
// if it can no longer be planned. A DML statement plans at its first
// execution and after DDL on its tables, uncharged: Prepare charged it.
func (st *Stmt) Query(params ...val.Value) (*Result, error) {
	return materialize(func(sink RowSink) (int64, error) { return st.QueryTo(sink, params...) })
}

// QueryTo is Query with the result streamed to sink instead of
// materialized; it returns the rows affected. As for Session.ExecTo, sink
// must not run statements against the same DB.
func (st *Stmt) QueryTo(sink RowSink, params ...val.Value) (int64, error) {
	s := st.sess
	o := s.db.opts.Load()
	s.db.ifaceCalls.Add(1)
	s.Meter.Charge(cost.Interface, 1)
	if _, _, dml := dmlTarget(st.ast); st.sel == nil && !dml {
		return s.execParsed(sink, st.ast, params)
	}
	// DDL since the plan was made: keep it only if every table and view it
	// resolved is still the one it resolved.
	cat := s.db.snap()
	if cat.version != st.catVersion {
		if st.plan != nil && !st.plan.deps.current(cat) || st.dml != nil && !st.dml.deps.current(cat) {
			st.plan, st.dml, st.rt = nil, nil, nil
		}
		st.catVersion = cat.version
	}
	var err error
	if st.sel == nil && st.dml == nil {
		st.dml, err = s.db.planDML(cat, st.ast)
	} else if st.sel != nil && st.plan == nil {
		err = st.replan(params, o.PeekBinds)
	}
	if err != nil {
		return 0, err
	}
	// The statement owns its runtime, and with it the run state of every
	// block of the plan; an execution started from inside this one's row
	// sink finds it busy and runs on one of its own.
	rt := st.rt
	if rt == nil || rt.busy {
		rt = &runtime{sess: s}
		if st.rt == nil {
			st.rt = rt
		}
	}
	rt.busy, rt.params = true, params
	rt.begin()
	defer rt.done()
	if st.dml != nil {
		n, err := s.runDML(rt, st.dml)
		if err != nil {
			return 0, err
		}
		return n, sink.Header(nil)
	}
	if !o.Adaptive || st.replans >= replanCap {
		return 0, s.runSelect(rt, st.plan, sink, o.ArrayFetch)
	}
	fb := &execFeedback{counts: make([]int64, len(st.plan.steps))}
	rt.fb, rt.fbPlan = fb, st.plan
	if err := s.runSelect(rt, st.plan, sink, o.ArrayFetch); err != nil {
		return 0, err
	}
	st.noteFeedback(fb)
	return 0, nil
}

// replan (re)optimizes the statement with what is known now: the current
// bind values when peeking is on, and any cardinalities observed by
// earlier executions.
func (st *Stmt) replan(params []val.Value, peek bool) error {
	s := st.sess
	s.Meter.Charge(cost.Optimize, 1)
	opts := &planOpts{feedback: st.feedback}
	if peek {
		opts.peek = params
	}
	plan, err := s.db.planSelect(st.sel, nil, opts)
	if err != nil {
		return err
	}
	if opts.peek != nil {
		s.db.opt.peeks.Add(1)
	}
	st.plan, st.catVersion, st.rt = plan, plan.catVersion, nil
	return nil
}

// noteFeedback compares the leading scan's actual output against its
// estimate; a >= feedbackFactor mismatch invalidates the plan so the next
// execution replans with the observed cardinality.
func (st *Stmt) noteFeedback(fb *execFeedback) {
	lead, ok := st.plan.steps[0].(*scanStep)
	if !ok || lead.rel.table == nil || lead.estOut <= 0 {
		return
	}
	est := lead.estOut
	actual := math.Max(1, float64(fb.counts[0]))
	if est/actual < feedbackFactor && actual/est < feedbackFactor {
		return
	}
	if st.feedback == nil {
		st.feedback = make(map[string]float64)
	}
	st.feedback[lead.rel.alias] = actual
	st.plan, st.rt = nil, nil
	// The shared fingerprint entry cached the same blind plan this
	// statement just measured as badly estimated — drop it too, so other
	// sessions stop inheriting it.
	st.entry.invalidatePlan()
	st.replans++
	st.sess.db.opt.replans.Add(1)
}

// Explain renders the statement's current plan — a SELECT's, or the match
// scan of an UPDATE or DELETE —, or a placeholder while a peeking SELECT has
// not yet seen its first bind values or a DML statement has not yet run.
func (st *Stmt) Explain() string {
	_, _, dml := dmlTarget(st.ast)
	switch {
	case st.plan != nil:
		return st.plan.explainString()
	case st.dml != nil && st.dml.match != nil:
		return st.dml.match.explainString()
	case st.sel != nil || dml && st.dml == nil:
		return "(not yet planned: optimization deferred to the first execution)\n"
	}
	return "(not a SELECT, UPDATE or DELETE)\n"
}

// Explain returns a one-line-per-step description of the plan chosen for
// a SELECT — the observability hook the Table 6 experiment uses to show
// *why* the parameterized query misbehaves.
func (s *Session) Explain(sql string, params ...val.Value) (string, error) {
	ast, entry, err := s.db.parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := ast.(*sqlparse.SelectStmt)
	if !ok {
		return "", fmt.Errorf("engine: EXPLAIN supports only SELECT")
	}
	plan, err := s.db.planFor(entry, sel)
	if err != nil {
		return "", err
	}
	return plan.explainString(), nil
}

// explainString renders the plan one line per step.
func (p *selectPlan) explainString() string {
	var b strings.Builder
	if p.parallel >= 2 {
		fmt.Fprintf(&b, "0: parallel degree %d (leading scan partitioned)\n", p.parallel)
	}
	for i, step := range p.steps {
		fmt.Fprintf(&b, "%d: %s\n", i+1, describeStep(step))
	}
	if p.agg != nil {
		fmt.Fprintf(&b, "%d: sort-group (%d keys, %d aggregates)\n",
			len(p.steps)+1, len(p.agg.groupFns), len(p.agg.specs))
	}
	return b.String()
}

// stepEstRows returns a step's estimated output cardinality, or 0 when
// the step kind carries none.
func stepEstRows(st stepper) float64 {
	switch st := st.(type) {
	case *scanStep:
		return st.estOut
	case *hashStep:
		return st.estOut
	case *inlStep:
		return st.estOut
	default:
		return 0
	}
}

func describeStep(st stepper) string {
	switch st := st.(type) {
	case *scanStep:
		if st.rel.derived != nil {
			return fmt.Sprintf("derived scan %s", st.rel.alias)
		}
		if st.access.index != nil {
			return fmt.Sprintf("index scan %s via %s", st.rel.alias, st.access.index.Name)
		}
		return fmt.Sprintf("seq scan %s", st.rel.alias)
	case *inlStep:
		return fmt.Sprintf("index nested-loop join %s via %s", st.rel.alias, st.index.Name)
	case *hashStep:
		return fmt.Sprintf("hash join %s (%d key(s))", st.rel.alias, len(st.buildKeyFns))
	case *outerStep:
		return fmt.Sprintf("left outer join %s", st.rel.alias)
	case *filterStep:
		return fmt.Sprintf("filter (%d predicate(s))", len(st.filters))
	default:
		return fmt.Sprintf("%T", st)
	}
}

// --- DML ---

// dmlPlan is an INSERT, UPDATE or DELETE compiled once. Exec plans and runs
// it; a prepared Stmt plans it at its first execution and keeps it while
// every name it resolved (deps) is still the one it resolved, as it keeps a
// SELECT's plan.
type dmlPlan struct {
	table *Table
	// INSERT: the table column each VALUES position fills, and one function
	// per VALUES expression.
	cols   []int
	values [][]exprFn
	// UPDATE and DELETE: the single-table scan of the rows WHERE matches,
	// and UPDATE's SET functions over a matched row (nil for DELETE).
	match *selectPlan
	sets  []setFn
	deps  planDeps
}

type setFn struct {
	col int
	fn  exprFn
}

// dmlTarget returns a DML statement's table and WHERE clause; ok is false
// for any other statement.
func dmlTarget(stmt sqlparse.Statement) (table string, where sqlparse.Expr, ok bool) {
	switch st := stmt.(type) {
	case *sqlparse.InsertStmt:
		return st.Table, nil, true
	case *sqlparse.UpdateStmt:
		return st.Table, st.Where, true
	case *sqlparse.DeleteStmt:
		return st.Table, st.Where, true
	}
	return "", nil, false
}

// planDML compiles a DML statement against the catalog snapshot cat. It
// charges nothing: the statement's optimize charge is Exec's or Prepare's.
func (db *DB) planDML(cat *catalog, stmt sqlparse.Statement) (*dmlPlan, error) {
	name, where, _ := dmlTarget(stmt)
	up := strings.ToUpper(name)
	t := cat.tables[up]
	if t == nil {
		return nil, errNoTable(name)
	}
	opts := &planOpts{cat: cat, parallel: db.opts.Load().Parallel, deps: planDeps{{name: up, table: t}}}
	d := &dmlPlan{table: t}
	switch st := stmt.(type) {
	case *sqlparse.InsertStmt:
		if len(st.Cols) == 0 {
			for i := range t.Cols {
				d.cols = append(d.cols, i)
			}
		}
		for _, cn := range st.Cols {
			ci := t.ColIndex(cn)
			if ci < 0 {
				return nil, fmt.Errorf("engine: no column %s in %s", cn, t.Name)
			}
			d.cols = append(d.cols, ci)
		}
		cc := &compiler{db: db, sc: &scope{}, opts: opts}
		for _, exprRow := range st.Rows {
			if len(exprRow) != len(d.cols) {
				return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(exprRow), len(d.cols))
			}
			fns := make([]exprFn, len(exprRow))
			for i, e := range exprRow {
				var err error
				if fns[i], err = cc.compile(e); err != nil {
					return nil, err
				}
			}
			d.values = append(d.values, fns)
		}
		d.deps = opts.deps
		return d, nil
	case *sqlparse.UpdateStmt:
		entries := make([]scopeEntry, len(t.Cols))
		for i, c := range t.Cols {
			entries[i] = scopeEntry{table: t.Name, column: c.Name}
		}
		cc := &compiler{db: db, sc: fullRowScope(entries), opts: opts}
		for _, a := range st.Set {
			ci := t.ColIndex(a.Column)
			if ci < 0 {
				return nil, fmt.Errorf("engine: no column %s in %s", a.Column, t.Name)
			}
			fn, err := cc.compile(a.Value)
			if err != nil {
				return nil, err
			}
			d.sets = append(d.sets, setFn{col: ci, fn: fn})
		}
	}
	sel := &sqlparse.SelectStmt{
		Select: []sqlparse.SelectItem{{Star: true}},
		From:   []sqlparse.TableRef{&sqlparse.BaseTable{Name: t.Name, Alias: t.Name}},
		Where:  where,
		Limit:  -1,
	}
	var err error
	if d.match, err = db.planSelect(sel, nil, opts); err != nil {
		return nil, err
	}
	d.match.parallel = 0 // runDML runs the match scan serially
	d.deps = opts.deps
	return d, nil
}

// dmlRows are the RIDs and rows a DML statement matched or inserts, row i
// at vals[i*width:]. A prepared Stmt's runtime keeps them, cleared, up to
// batchSize values, so no page-image view outlives the statement.
type dmlRows struct {
	rids []storage.RID
	vals []val.Value
}

// runDML executes a compiled DML statement on rt and returns the rows it
// affected. The match scan runs on the block's run state in rt (blockRun) at
// batch capacity 1, so that each match reaches the sink while be.curRID
// still names it.
func (s *Session) runDML(rt *runtime, d *dmlPlan) (int64, error) {
	if rt.dml == nil {
		rt.dml = &dmlRows{}
	}
	r := rt.dml
	r.rids, r.vals = r.rids[:0], r.vals[:0]
	if d.match == nil {
		return s.runInsert(rt, r, d)
	}
	br := rt.acquire(d.match, nil, nil)
	defer br.release()
	br.v.reset(1)
	br.v.sinkFrame = func() error {
		r.rids = append(r.rids, br.be.curRID)
		r.vals = append(r.vals, br.be.row...)
		return nil
	}
	if err := br.v.drive(); err != nil {
		return 0, err
	}
	t, w := d.table, len(d.table.Cols)
	for i, rid := range r.rids {
		var err error
		if d.sets == nil {
			err = s.deleteRow(t, rid, r.vals[i*w:(i+1)*w])
		} else {
			err = s.updateRow(rt, d, rid, r.vals[i*w:(i+1)*w])
		}
		if err != nil {
			return 0, err
		}
	}
	s.autocommit(t)
	return int64(len(r.rids)), nil
}

// runInsert evaluates every VALUES row before it stores the first, so a
// failing expression inserts nothing, and when a later row fails a
// constraint it undoes the rows it stored before, as insertRowTx undoes
// its own index entries.
func (s *Session) runInsert(rt *runtime, r *dmlRows, d *dmlPlan) (int64, error) {
	t, w, n := d.table, len(d.table.Cols), len(d.values)
	r.vals = slices.Grow(r.vals, n*w)[:n*w]
	for j, fns := range d.values {
		for i, fn := range fns {
			v, err := fn(rt, nil)
			if err != nil {
				return 0, err
			}
			r.vals[j*w+d.cols[i]] = v
		}
	}
	for j := 0; j < n; j++ {
		rid, err := s.db.insertRowTx(s.writeTx(t.Heap), t, r.vals[j*w:(j+1)*w], s.Meter)
		if err != nil {
			for j--; j >= 0; j-- {
				_ = s.deleteRow(t, r.rids[j], r.vals[j*w:(j+1)*w])
			}
			return 0, err
		}
		r.rids = append(r.rids, rid)
	}
	s.autocommit(t)
	return int64(n), nil
}

// autocommit ends the statement's implicit transaction: under WAL the
// session transaction commits (a log force only); without WAL the
// historical behavior — flush the table's dirty pages and charge one
// commit — is unchanged.
func (s *Session) autocommit(t *Table) {
	if s.db.WAL() != nil {
		s.Commit()
		return
	}
	t.Heap.Flush(s.Meter)
	s.Meter.Charge(cost.Commit, 1)
	s.endTx(nil)
}

// insertRowTx validates, coerces, stores and indexes one row on behalf of
// transaction tx (0: the system transaction) and returns where it went.
func (db *DB) insertRowTx(tx int64, t *Table, row []val.Value, m *cost.Meter) (storage.RID, error) {
	if len(row) != len(t.Cols) {
		return storage.RID{}, fmt.Errorf("engine: row width %d != %d for %s", len(row), len(t.Cols), t.Name)
	}
	for i, c := range t.Cols {
		row[i] = coerceToType(row[i], c.Type)
		if c.NotNull && row[i].IsNull() {
			return storage.RID{}, fmt.Errorf("engine: NULL in NOT NULL column %s.%s", t.Name, c.Name)
		}
	}
	rid, err := t.Heap.InsertTx(tx, row, m)
	if err != nil {
		return rid, err
	}
	var kb keyScratch
	for i, ix := range t.Indexes {
		if err := ix.Tree.Insert(ix.appendKey(kb[:0], row), rid, m); err != nil {
			// Roll back: remove from heap and already-updated indexes.
			for j := 0; j < i; j++ {
				_ = t.Indexes[j].Tree.Delete(t.Indexes[j].appendKey(kb[:0], row), rid, m)
			}
			_ = t.Heap.DeleteTx(0, rid, m)
			return rid, fmt.Errorf("engine: %s: %w", t.Name, err)
		}
	}
	db.noteWrite(t.Name, nil, row)
	return rid, nil
}

// deleteRow deletes the row at rid, whose values are row, from the heap and
// from every index, in the session's transaction.
func (s *Session) deleteRow(t *Table, rid storage.RID, row []val.Value) error {
	if err := t.Heap.DeleteTx(s.writeTx(t.Heap), rid, s.Meter); err != nil {
		return err
	}
	var kb keyScratch
	for _, ix := range t.Indexes {
		if err := ix.Tree.Delete(ix.appendKey(kb[:0], row), rid, s.Meter); err != nil {
			return err
		}
	}
	s.db.noteWrite(t.Name, row, nil)
	return nil
}

// updateRow applies the SET functions to the row at rid, whose values are
// oldRow, in the session's transaction.
func (s *Session) updateRow(rt *runtime, d *dmlPlan, rid storage.RID, oldRow []val.Value) error {
	t := d.table
	newRow := append([]val.Value(nil), oldRow...)
	for _, sf := range d.sets {
		v, err := sf.fn(rt, rowStack{oldRow})
		if err != nil {
			return err
		}
		newRow[sf.col] = coerceToType(v, t.Cols[sf.col].Type)
		if t.Cols[sf.col].NotNull && newRow[sf.col].IsNull() {
			return fmt.Errorf("engine: NULL in NOT NULL column %s.%s", t.Name, t.Cols[sf.col].Name)
		}
	}
	if err := t.Heap.UpdateTx(s.writeTx(t.Heap), rid, newRow, s.Meter); err != nil {
		return err
	}
	var oldKb, newKb keyScratch
	for _, ix := range t.Indexes {
		oldKey, newKey := ix.appendKey(oldKb[:0], oldRow), ix.appendKey(newKb[:0], newRow)
		if string(oldKey) != string(newKey) {
			if err := ix.Tree.Delete(oldKey, rid, s.Meter); err != nil {
				return err
			}
			if err := ix.Tree.Insert(newKey, rid, s.Meter); err != nil {
				return err
			}
		}
	}
	s.db.noteWrite(t.Name, oldRow, newRow)
	return nil
}

// InsertRow inserts one row in the session's open transaction without
// committing; Session.Commit (or the next autocommitted statement) ends
// the transaction. This is the R/3 layer's write path: its SAP LUWs map
// to engine transactions.
func (s *Session) InsertRow(tableName string, row []val.Value) error {
	t := s.db.Table(tableName)
	if t == nil {
		return errNoTable(tableName)
	}
	_, err := s.db.insertRowTx(s.writeTx(t.Heap), t, row, s.Meter)
	return err
}

// BulkLoad appends rows through the bulk-loading interface: validation and
// index maintenance happen, but there is one commit for the whole batch —
// the facility the paper notes SAP R/3's batch input does NOT use.
func (db *DB) BulkLoad(tableName string, rows [][]val.Value, m *cost.Meter) error {
	t := db.Table(tableName)
	if t == nil {
		return errNoTable(tableName)
	}
	var tx int64
	w := db.wal.Load()
	if w != nil {
		tx = w.Begin()
	}
	for _, row := range rows {
		if _, err := db.insertRowTx(tx, t, row, m); err != nil {
			return err
		}
	}
	if w != nil {
		w.Commit(tx, m)
		t.Heap.Committed(tx)
		return nil
	}
	t.Heap.Flush(m)
	if m != nil {
		m.Charge(cost.Commit, 1)
	}
	return nil
}
