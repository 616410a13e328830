package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/sqlparse"
	"r3bench/internal/val"
)

// selectPlan is a fully compiled and optimized SELECT block.
type selectPlan struct {
	steps   []stepper // left-deep join pipeline in execution order
	nSlots  int       // width of a frame that every step has extended
	outCols []string
	layout  []scopeEntry // logical: every column of every relation, FROM order

	// Output phase.
	projections []exprFn
	agg         *aggPlan
	havingFn    exprFn
	distinct    bool
	orderKeys   []exprFn
	orderDesc   []bool
	limit       int

	// correlated is true when the block references enclosing-query
	// columns; correlated plans cannot cache their materialized results.
	correlated bool
	// outerDepth is how far up the scope chain the block reaches (0 =
	// self-contained, 1 = parent, ...).
	outerDepth int
	nParams    int

	// parallel is the degree of intra-query parallelism chosen at plan
	// time (0 or 1 = serial): the leading sequential scan's page range is
	// split across this many workers.
	parallel int

	// unobservedCap is the batch capacity of a block whose flushes the
	// buffer pool cannot see (selectPlan.planUnobserved): rowFirst, or
	// vecBatchInitial when step 1 is a hash join; 0 for any other block.
	unobservedCap int

	// catVersion is the catalog version a top-level plan was made against
	// and deps every name it — or a view or sub-block below it — resolved
	// there: what a prepared Stmt checks before it runs the plan again.
	catVersion int64
	deps       planDeps
}

// planDep is one catalog name as a plan resolved it: a table or a view,
// and for a table the page count and row estimate the planner read.
type planDep struct {
	name  string
	table *Table
	view  *sqlparse.SelectStmt
	pages int
	rows  int64
}

// planDeps are the names a SELECT or DML plan resolved.
type planDeps []planDep

// current reports whether every name the plan resolved still means in cat
// what it meant when the plan was made. DDL publishes a fresh *Table for
// the table it touches (index list included), so identity is enough.
func (ds planDeps) current(cat *catalog) bool {
	for _, d := range ds {
		if cat.tables[d.name] != d.table || cat.views[d.name] != d.view {
			return false
		}
	}
	return true
}

// sized reports whether every table the plan read still has the page count
// and row estimate it was planned with.
func (ds planDeps) sized() bool {
	for _, d := range ds {
		if d.table != nil && (d.table.Heap.Pages() != d.pages || d.table.RowEstimate() != d.rows) {
			return false
		}
	}
	return true
}

// aggPlan describes grouping and aggregation for one block.
type aggPlan struct {
	groupFns []exprFn  // evaluated on the join row
	specs    []aggSpec // accumulators
}

// aggSpec is one aggregate call site.
type aggSpec struct {
	fn       string        // SUM, AVG, COUNT, MIN, MAX
	arg      exprFn        // nil for COUNT(*)
	argAST   sqlparse.Expr // for call-site deduplication
	distinct bool
}

// relInfo is one FROM-list relation during planning.
type relInfo struct {
	alias   string
	table   *Table      // base relation, or nil
	derived *selectPlan // derived (view with aggregation etc.)
	// stream marks a derived relation its block reads exactly once: its
	// plan runs into the lead batch instead of a materialized copy
	// (selectPlan.planStream).
	stream bool
	// A relation has two positions. Logical: pos is its first position in
	// the block scope and slots its stretch of the scope's slot table, one
	// entry per column (catalog width) — what name resolution, SELECT *,
	// conjunct classification and sarg matching work with. Physical, known
	// once planSelect returns (assignSlots): the columns some expression
	// reads occupy slots [offset, offset+width) of a frame, output columns
	// first — [output-only | output and scan | scan-only], column order
	// within each run — and the first out of them are the output columns, read
	// after the relation's own step. The next relation's stretch starts at
	// offset+out, over this one's scan-only tail, which nothing reads once
	// the step is done. cols is the stretch as a scan of the base table
	// decodes it, with the same split points. A column nothing reads is in
	// no frame.
	pos    int
	slots  []int32
	offset int
	width  int
	out    int
	cols   *val.ColSet

	pushed []conjunct // single-relation conjuncts, applied at the scan
	access accessPath // chosen access path
	// estimates: pages and baseRows as buildRelInfo read them (planDep)
	pages    int
	baseRows float64
	estRows  float64 // after pushed conjuncts
	rowBytes float64
	outer    bool // LEFT OUTER JOIN right side (fixed-order planning)
	onConjs  []conjunct
	// soleRelation marks the only relation of a single-table block, where
	// the rule-based blind-index fallback applies (Section 4.1).
	soleRelation bool
	// fbRows, when > 0, is the observed output cardinality of this
	// relation from a previous execution of the same statement (adaptive
	// replanning); it overrides the estimate.
	fbRows float64
}

// end is the slot after the relation's stretch: what a frame holds while
// the relation's own step reads it.
func (ri *relInfo) end() int { return ri.offset + ri.width }

// outEnd is the slot after the relation's output columns: what a frame holds
// of the steps up to the one binding the relation once that step is done.
func (ri *relInfo) outEnd() int { return ri.offset + ri.out }

// planOpts carries optional optimizer inputs for one planning round.
type planOpts struct {
	// peek, when non-nil, supplies the actual bind values of the
	// execution being planned: parameter sargs plan as if they were
	// literals (bind peeking). nil reproduces the paper's blind planning.
	peek []val.Value
	// feedback maps relation aliases to observed output cardinalities
	// from earlier executions of the same statement.
	feedback map[string]float64
	// cat is the catalog snapshot pinned for this planning pass: every
	// name in the statement — across view expansion and subqueries —
	// resolves against one consistent schema version even while
	// concurrent DDL publishes new ones.
	cat *catalog
	// deps collects the names resolved against cat during the pass.
	deps planDeps
	// parallel is Options.Parallel, pinned with cat: every block of the
	// statement plans against one degree.
	parallel int
}

// peekVal resolves a sarg value expression to a plan-time constant: a
// literal always, a parameter only when bind peeking supplied values.
func (cc *compiler) peekVal(e sqlparse.Expr) (val.Value, bool) {
	if x, ok := e.(*sqlparse.Literal); ok {
		return x.Val, true
	}
	if x, ok := e.(*sqlparse.Param); ok && cc.opts != nil && x.Index >= 0 && x.Index < len(cc.opts.peek) {
		return cc.opts.peek[x.Index], true
	}
	return val.Null, false
}

// conjunct is one AND-factor of the WHERE/ON clauses.
type conjunct struct {
	expr sqlparse.Expr
	fn   exprFn
	mask uint64 // bitmask of block relations referenced
	sel  float64
	// equi-join shape (colA = colB across two relations)
	isJoin     bool
	relA, relB int
	colA, colB int // column index within the relation
	// sargable single-relation shape (col op constantish)
	sargRel   int
	sargCol   int
	sargOp    string // "=", "<", "<=", ">", ">=", "between"
	sargFn    exprFn
	sargKnown bool // value known at plan time (literal)
	sargLit   val.Value
	// between extras
	betweenHi    exprFn
	betweenHiLit val.Value
}

// accessPath is the chosen way to read one relation.
type accessPath struct {
	index   *Index
	eqFns   []exprFn // equality bounds on the leading index columns
	loFn    exprFn   // optional range low on the next column
	hiFn    exprFn
	loInc   bool
	hiInc   bool
	filters []exprFn // remaining pushed conjuncts
	// blindBound marks a bound whose value is unknown at plan time (a
	// parameter or outer reference) — no statistics could be applied.
	blindBound bool
	estCost    float64
	estRows    float64
}

// planConsts converts the cost model into float64 milliseconds for
// estimation.
type planConsts struct {
	seq, rand, cpu float64
}

func (db *DB) planConsts() planConsts {
	m := db.model
	return planConsts{
		seq:  float64(m.PerEvent[cost.SeqRead]) / float64(time.Millisecond),
		rand: float64(m.PerEvent[cost.RandRead]) / float64(time.Millisecond),
		cpu:  float64(m.PerEvent[cost.TupleCPU]) / float64(time.Millisecond),
	}
}

// planSelect compiles and optimizes one SELECT block. outerScope is the
// scope chain of enclosing queries (nil at the top level); opts carries
// peeked bind values and execution feedback (nil for blind planning).
func (db *DB) planSelect(s *sqlparse.SelectStmt, outerScope *scope, opts *planOpts) (*selectPlan, error) {
	top := opts == nil || opts.cat == nil
	if top {
		// Pin the catalog once at the top of the planning pass; nested
		// planSelect calls (views, subqueries) inherit the pin via opts.
		o := planOpts{}
		if opts != nil {
			o = *opts
		}
		o.cat, o.parallel = db.snap(), db.opts.Load().Parallel
		opts = &o
	}
	p := &selectPlan{limit: s.Limit}

	// 1. Flatten FROM into relations; inner-join ON conjuncts merge into
	// the WHERE pool, outer joins pin fixed order.
	var rels []*relInfo
	var conjPool []sqlparse.Expr
	hasOuter := false
	var flatten func(ref sqlparse.TableRef, outerRight bool, on []sqlparse.Expr) error
	flatten = func(ref sqlparse.TableRef, outerRight bool, on []sqlparse.Expr) error {
		switch r := ref.(type) {
		case *sqlparse.BaseTable:
			ri, err := db.buildRelInfo(r, outerScope, opts)
			if err != nil {
				return err
			}
			ri.outer = outerRight
			if outerRight {
				// ON conjuncts stay attached to the outer-joined relation.
				for _, e := range on {
					ri.onConjs = append(ri.onConjs, conjunct{expr: e})
				}
			}
			rels = append(rels, ri)
			return nil
		case *sqlparse.Join:
			if err := flatten(r.Left, false, nil); err != nil {
				return err
			}
			onList := splitConjuncts(r.On)
			if r.Kind == sqlparse.LeftOuterJoin {
				hasOuter = true
				return flatten(r.Right, true, onList)
			}
			if err := flatten(r.Right, false, nil); err != nil {
				return err
			}
			conjPool = append(conjPool, onList...)
			return nil
		default:
			return fmt.Errorf("engine: unsupported FROM item %T", ref)
		}
	}
	for _, ref := range s.From {
		if err := flatten(ref, false, nil); err != nil {
			return nil, err
		}
	}
	if len(rels) > 63 {
		return nil, fmt.Errorf("engine: too many relations (%d)", len(rels))
	}

	// 2. Build the block scope: every column of every relation, FROM order.
	var entries []scopeEntry
	for _, ri := range rels {
		ri.pos = len(entries)
		entries = append(entries, db.relScopeEntries(ri)...)
	}
	sc := newScope(outerScope, entries)
	for i, end := len(rels)-1, len(entries); i >= 0; i-- {
		ri := rels[i]
		ri.slots, end = sc.slots[ri.pos:end:end], ri.pos
	}
	p.layout = entries
	cc := &compiler{db: db, sc: sc, opts: opts}

	// 3. Split WHERE into conjuncts and classify.
	if s.Where != nil {
		conjPool = append(conjPool, splitConjuncts(s.Where)...)
	}
	var conjs []conjunct
	for _, e := range conjPool {
		cj, err := p.classifyConjunct(cc, rels, e, -1)
		if err != nil {
			return nil, err
		}
		conjs = append(conjs, cj)
	}
	// Outer-join ON conjuncts get compiled but stay with their relation.
	for home, ri := range rels {
		for i := range ri.onConjs {
			cj, err := p.classifyConjunct(cc, rels, ri.onConjs[i].expr, home)
			if err != nil {
				return nil, err
			}
			ri.onConjs[i] = cj
		}
	}

	// 4. Distribute single-relation conjuncts and pick access paths.
	var joinConjs []conjunct
	for _, cj := range conjs {
		if !cj.isJoin && cj.mask != 0 && bits.OnesCount64(cj.mask) == 1 {
			ri := rels[bits.TrailingZeros64(cj.mask)]
			ri.pushed = append(ri.pushed, cj)
		} else {
			joinConjs = append(joinConjs, cj)
		}
	}
	pc := db.planConsts()
	for i, ri := range rels {
		ri.soleRelation = len(rels) == 1
		if opts != nil {
			if obs, ok := opts.feedback[ri.alias]; ok && obs > 0 {
				ri.fbRows = obs
			}
		}
		db.chooseAccessPath(pc, ri, i)
	}

	// 5. Join ordering.
	var err error
	if hasOuter {
		p.steps, err = p.fixedOrderSteps(pc, rels, joinConjs)
	} else {
		p.steps, err = p.optimizeJoinOrder(pc, rels, joinConjs)
	}
	if err != nil {
		return nil, err
	}
	p.markEdges(rels, joinConjs)

	// 6. Output phase: aggregation detection, projection, ordering.
	if err := p.planOutput(cc, s); err != nil {
		return nil, err
	}
	p.correlated = cc.maxDepth > 0
	p.outerDepth = cc.maxDepth
	if cc.maxParam > p.nParams {
		p.nParams = cc.maxParam
	}
	p.assignSlots()
	p.planParallel(opts.parallel)
	p.planStream(cc.subqueries)
	p.planUnobserved(cc.subqueries)
	if top {
		p.catVersion, p.deps = opts.cat.version, opts.deps
	}
	if planned != nil {
		planned(p)
	}
	return p, nil
}

// planned is nil outside the test binary: TestSlotLayout sets it to see
// every block as planSelect leaves it, sub-blocks and views included, and
// TestPreparedDMLSeesDDL to count the blocks a statement plans.
var planned func(*selectPlan)

// assignSlots lays out the block's frames. Every expression of the block and
// of the sub-blocks below it is bound by now and the join order is chosen,
// so the marks are final: each relation gets one consecutive stretch holding
// only the columns read, output columns first, the stretches in step order,
// each starting where the previous relation's output columns end. A frame
// that steps 0..i have extended therefore holds the output columns of the
// relations bound so far up to step i's outEnd, and step i's own stretch
// while it runs. A base relation whose every column is an output column —
// SELECT *, a DML match scan — keeps its catalog layout and is decoded
// whole at its scan: the codec's own column set serves every such plan, so
// a cached plan holds no set of its own.
func (p *selectPlan) assignSlots() {
	var buf [64]int
	next := 0
	p.nSlots = 0
	for _, st := range p.steps {
		rel := st.bound()
		if rel == nil {
			continue
		}
		whole := rel.table != nil
		for _, mark := range rel.slots {
			whole = whole && mark >= 0 && (mark == 0 || mark&roleOut != 0)
		}
		cols, outOnly := buf[:0], 0
		for _, role := range [...]int32{roleOut, roleOut | roleScan, roleScan} {
			for c, mark := range rel.slots {
				if mark == 0 || whole {
					mark = roleOut | roleScan // no role known, or read whole: both are safe
				}
				if mark == role {
					cols = append(cols, c)
				}
			}
			switch role {
			case roleOut:
				outOnly = len(cols)
			case roleOut | roleScan:
				rel.out = len(cols)
			}
		}
		rel.offset, rel.width = next, len(cols)
		for k, c := range cols {
			rel.slots[c] = int32(next + k)
		}
		if rel.table != nil {
			rel.cols = rel.table.Heap.Codec().Cols(cols, outOnly)
		}
		p.nSlots = max(p.nSlots, rel.end())
		next = rel.outEnd()
	}
}

// markEdges gives the two columns of every equi-join conjunct their roles
// now that the steps are in order. The relation bound first reads its column
// after its own step — as a probe key, an index probe's bound or in a later
// step's filter — and the one bound second at its own step, as its build key
// or in its scan's filters. An outer-joined relation reads an ON column at
// its own step too, but a WHERE conjunct on it waits for a later step. An ON
// equi-join between two relations bound before it reads both columns after
// their own steps.
func (p *selectPlan) markEdges(rels []*relInfo, where []conjunct) {
	stepOf := func(ri *relInfo) int {
		for i, st := range p.steps {
			if st.bound() == ri {
				return i
			}
		}
		return -1
	}
	for i := range where {
		cj := &where[i]
		if !cj.isJoin {
			continue
		}
		at := cj.relA
		if stepOf(rels[cj.relB]) > stepOf(rels[at]) {
			at = cj.relB
		}
		role := roleScan
		if rels[at].outer {
			role = roleOut
		}
		markEdge(rels, cj, at, role)
	}
	for home, ri := range rels {
		for i := range ri.onConjs {
			switch cj := &ri.onConjs[i]; {
			case !cj.isJoin:
			case cj.relA == home || cj.relB == home:
				markEdge(rels, cj, home, roleScan)
			default:
				markEdge(rels, cj, cj.relA, roleOut)
			}
		}
	}
}

// markEdge marks equi-join cj's column of relation at in role and its other
// column as an output column.
func markEdge(rels []*relInfo, cj *conjunct, at int, role int32) {
	a, b := &rels[cj.relA].slots[cj.colA], &rels[cj.relB].slots[cj.colB]
	if cj.relA != at {
		a, b = b, a
	}
	markRead(a, role)
	markRead(b, roleOut)
}

// conjRole is the role a conjunct's shape gives its reads of the block. A
// single-relation conjunct runs at its relation's scan: pushed there, or as
// an ON filter of the outer-joined relation itself (home; -1 for WHERE). An
// equi-join's two columns wait for the join order (markEdges). Any other
// conjunct runs at the step that binds the last of its relations — at that
// relation's scan, or after it as a hash join's residual filter — so its
// reads take both roles.
func conjRole(cj *conjunct, home int) int32 {
	switch {
	case cj.isJoin:
		return 0
	case bits.OnesCount64(cj.mask) == 1 && (home < 0 || cj.mask == 1<<uint(home)):
		return roleScan
	}
	return roleScan | roleOut
}

// minPagesPerWorker gates parallelism: a partition below this many pages
// pays more in random-read partition starts than it saves by overlapping.
const minPagesPerWorker = 8

// planParallel decides the block's degree of parallelism, at most the
// requested n. A block qualifies when its leading step is a bare sequential scan of a base
// table wide enough to split (the page range partitions across workers and
// every later pipeline step runs unchanged inside each worker), or when a
// hash join builds from such a scan (the build partitions across workers
// while the probe pipeline stays serial). Correlated blocks (re-run per
// outer row) and LIMIT-without-ORDER-BY blocks (early exit beats overlap)
// stay serial.
func (p *selectPlan) planParallel(n int) {
	if n < 2 || p.outerDepth != 0 {
		return
	}
	if p.limit >= 0 && len(p.orderKeys) == 0 {
		return
	}
	if len(p.steps) == 0 {
		return
	}
	maxPages := 0
	if lead, ok := p.steps[0].(*scanStep); ok && lead.rel.table != nil && lead.access.index == nil {
		maxPages = lead.rel.pages
	}
	for _, st := range p.steps[1:] {
		if hs, ok := st.(*hashStep); ok && hs.rel.table != nil && hs.access.index == nil {
			maxPages = max(maxPages, hs.rel.pages)
		}
	}
	if k := maxPages / minPagesPerWorker; k < n {
		n = k
	}
	if n < 2 {
		return
	}
	p.parallel = n
}

// planStream lets the block's derived relation stream (relInfo.stream) when
// the block reads it exactly once and does no storage work while it runs, so
// that the pool sees the same accesses, and the meter the same charges, as
// when it is materialized first: the relation is the block's only one, the
// derived plan is uncorrelated, the block cannot stop early and none of its
// expressions runs a subquery. Every other derived relation materializes
// through the statement's cache.
func (p *selectPlan) planStream(subqueries int) {
	if len(p.steps) != 1 || subqueries > 0 || p.stopsEarly() {
		return
	}
	if rel := p.steps[0].bound(); rel.derived != nil && !rel.derived.correlated {
		rel.stream = true
	}
}

// planUnobserved sets unobservedCap for a block whose only storage work after
// its lead scan is at most one hash build, at step 1: none of its expressions
// runs a subquery and every later step is a filter. Such a block reaches the
// pool in the same order whatever its capacity, as long as the build fires
// where the growing batch fires it — at the lead's first flush, after 64
// rows or at the end: so a single-table block runs rowFirst, and a block
// with the hash join stays at 64. An index nested-loop, re-scanning or
// outer join reads storage per row it is handed, and a second hash join
// builds when the first one's output first flushes, which capacity moves.
func (p *selectPlan) planUnobserved(subqueries int) {
	if subqueries > 0 {
		return
	}
	capacity := rowFirst
	for i, st := range p.steps[1:] {
		switch st.(type) {
		case *filterStep:
		case *hashStep:
			if i > 0 {
				return
			}
			capacity = vecBatchInitial
		default:
			return
		}
	}
	p.unobservedCap = capacity
}

// buildRelInfo resolves one FROM table: base table, view (streamed or
// materialized), or error.
func (db *DB) buildRelInfo(bt *sqlparse.BaseTable, outerScope *scope, opts *planOpts) (*relInfo, error) {
	name := strings.ToUpper(bt.Name)
	alias := strings.ToUpper(bt.Alias)
	var cat *catalog
	if opts != nil {
		cat = opts.cat
	}
	if cat == nil {
		cat = db.snap()
	}
	// A table's size is read once, here: the plan is costed with what its
	// dep records, so a racing write leaves the plan stale, never wrongly
	// fresh.
	d := planDep{name: name, table: cat.tables[name], view: cat.views[name]}
	if t := d.table; t != nil {
		d.pages, d.rows = t.Heap.Pages(), t.RowEstimate()
	}
	if opts != nil {
		opts.deps = append(opts.deps, d)
	}
	if t := d.table; t != nil {
		ri := &relInfo{alias: alias, table: t, pages: d.pages}
		ri.baseRows = max(1, float64(d.rows))
		ri.rowBytes = float64(t.Heap.Codec().RowBytes())
		return ri, nil
	}
	if vq := d.view; vq != nil {
		sub, err := db.planSelect(vq, outerScope, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: expanding view %s: %w", name, err)
		}
		ri := &relInfo{alias: alias, derived: sub}
		ri.baseRows = 1000 // no stats for derived relations
		ri.rowBytes = float64(len(sub.outCols) * 24)
		return ri, nil
	}
	return nil, errNoTable(name)
}

// relScopeEntries lists the scope entries contributed by one relation.
func (db *DB) relScopeEntries(ri *relInfo) []scopeEntry {
	if ri.table != nil {
		out := make([]scopeEntry, 0, len(ri.table.Cols))
		for _, c := range ri.table.Cols {
			out = append(out, scopeEntry{table: ri.alias, column: c.Name})
		}
		return out
	}
	out := make([]scopeEntry, 0, len(ri.derived.outCols))
	for _, c := range ri.derived.outCols {
		out = append(out, scopeEntry{table: ri.alias, column: strings.ToUpper(c)})
	}
	return out
}

// splitConjuncts flattens nested ANDs.
func splitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparse.Expr{e}
}

// relMask computes which block relations an expression references
// (depth-0 column refs only). Expressions containing subqueries get the
// full mask: a correlated subquery may reference any of our relations
// through the scope chain, so it is only safe to evaluate once every
// relation is bound.
func (p *selectPlan) relMask(rels []*relInfo, e sqlparse.Expr, cc *compiler) uint64 {
	var mask uint64
	hasSub := false
	sqlparse.Inspect(e, func(n sqlparse.Node) bool {
		if _, ok := n.(*sqlparse.SelectStmt); ok {
			hasSub = true
		} else if cr, ok := n.(*sqlparse.ColumnRef); ok {
			if i, _ := p.findRelCol(rels, cc, cr); i >= 0 {
				mask |= 1 << uint(i)
			}
		}
		return !hasSub
	})
	if hasSub {
		return uint64(1)<<uint(len(rels)) - 1
	}
	return mask
}

// classifyConjunct compiles a conjunct and detects join-edge and sargable
// shapes. home is the outer-joined relation whose ON clause holds it, -1 for
// a WHERE conjunct; with the shape it decides the role of the conjunct's
// reads (conjRole).
func (p *selectPlan) classifyConjunct(cc *compiler, rels []*relInfo, e sqlparse.Expr, home int) (conjunct, error) {
	cj := conjunct{expr: e, sel: 0.25, sargRel: -1, relA: -1}
	// Subquery predicates must run after all referenced relations are
	// bound; relMask already covers depth-0 refs in the X side. Predicates
	// containing subqueries also need every relation referenced *inside*
	// the subquery's correlation, which resolve through the scope chain;
	// those are depth-0 for the subquery's compiler, not ours, so the
	// mask is correct.
	cj.mask = p.relMask(rels, e, cc)
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == "=" {
		lc, lok := b.L.(*sqlparse.ColumnRef)
		rc, rok := b.R.(*sqlparse.ColumnRef)
		if lok && rok {
			la, li := p.findRelCol(rels, cc, lc)
			ra, rix := p.findRelCol(rels, cc, rc)
			if la >= 0 && ra >= 0 && la != ra {
				cj.isJoin = true
				cj.relA, cj.colA = la, li
				cj.relB, cj.colB = ra, rix
			}
		}
	}
	prev := cc.sc.role
	cc.sc.role = conjRole(&cj, home)
	fn, err := cc.compile(e)
	cc.sc.role = prev
	if err != nil {
		return cj, err
	}
	cj.fn = fn
	if cj.isJoin {
		cj.sel = p.joinSel(rels, cj)
		return cj, nil
	}
	switch ex := e.(type) {
	case *sqlparse.Binary:
		// col op value (value free of this block's relations)
		if cr, vx, op, ok := sargShape(rels, cc, p, ex); ok {
			rel, col := p.findRelCol(rels, cc, cr)
			if rel >= 0 {
				cj.sargRel, cj.sargCol, cj.sargOp = rel, col, op
				if sf, err := cc.compile(vx); err == nil {
					cj.sargFn = sf
				}
				if lv, ok := cc.peekVal(vx); ok {
					cj.sargKnown = true
					cj.sargLit = lv
				}
				cj.sel = p.sargSel(rels[rel], cj)
				return cj, nil
			}
		}
		cj.sel = 0.25
	case *sqlparse.Between:
		if cr, ok := ex.X.(*sqlparse.ColumnRef); ok && !ex.Not {
			if exprConst(rels, cc, p, ex.Lo) && exprConst(rels, cc, p, ex.Hi) {
				rel, col := p.findRelCol(rels, cc, cr)
				if rel >= 0 {
					// Treated as a range sarg on [lo, hi].
					cj.sargRel, cj.sargCol, cj.sargOp = rel, col, "between"
					loFn, err1 := cc.compile(ex.Lo)
					hiFn, err2 := cc.compile(ex.Hi)
					if err1 == nil && err2 == nil {
						cj.sargFn = loFn
						cj.betweenHi = hiFn
					}
					loLit, ok1 := cc.peekVal(ex.Lo)
					hiLit, ok2 := cc.peekVal(ex.Hi)
					if ok1 && ok2 {
						cj.sargKnown = true
						cj.sargLit = loLit
						cj.betweenHiLit = hiLit
					}
					cj.sel = p.sargSel(rels[rel], cj)
					return cj, nil
				}
			}
		}
		cj.sel = 0.2
	case *sqlparse.Like:
		cj.sel = defaultLikeSel
		if cr, ok := ex.X.(*sqlparse.ColumnRef); ok && !ex.Not {
			if pv, ok2 := cc.peekVal(ex.Pattern); ok2 && pv.K == val.KStr {
				if rel, col := p.findRelCol(rels, cc, cr); rel >= 0 && rels[rel].table != nil {
					cj.sel = rels[rel].table.stats.selLike(col, pv.AsStr())
				}
			}
		}
	case *sqlparse.InList:
		cj.sel = defaultInSel
		if cr, ok := ex.X.(*sqlparse.ColumnRef); ok && !ex.Not {
			vals := make([]val.Value, 0, len(ex.List))
			for _, le := range ex.List {
				v, ok2 := cc.peekVal(le)
				if !ok2 {
					vals = nil
					break
				}
				vals = append(vals, v)
			}
			if len(vals) == len(ex.List) {
				if rel, col := p.findRelCol(rels, cc, cr); rel >= 0 && rels[rel].table != nil {
					cj.sel = rels[rel].table.stats.selInList(col, vals)
				}
			}
		}
	case *sqlparse.InSubquery, *sqlparse.Exists:
		cj.sel = 0.5
	case *sqlparse.IsNull:
		cj.sel = 0.05
	}
	return cj, nil
}

// findRelCol resolves a column ref to (relation index, column-in-rel), or
// (-1, -1). It marks nothing: what reads the column marks it.
func (p *selectPlan) findRelCol(rels []*relInfo, cc *compiler, cr *sqlparse.ColumnRef) (int, int) {
	_, d, idx, err := cc.sc.find(cr.Table, cr.Column)
	if err != nil || d != 0 {
		return -1, -1
	}
	for i, ri := range rels {
		if idx >= ri.pos && idx < ri.pos+len(ri.slots) {
			return i, idx - ri.pos
		}
	}
	return -1, -1
}

// sargShape matches `col op v` or `v op col` where v references none of
// the block's relations.
func sargShape(rels []*relInfo, cc *compiler, p *selectPlan, b *sqlparse.Binary) (*sqlparse.ColumnRef, sqlparse.Expr, string, bool) {
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
	op := b.Op
	if _, ok := flip[op]; !ok {
		return nil, nil, "", false
	}
	if cr, ok := b.L.(*sqlparse.ColumnRef); ok && exprConst(rels, cc, p, b.R) {
		return cr, b.R, op, true
	}
	if cr, ok := b.R.(*sqlparse.ColumnRef); ok && exprConst(rels, cc, p, b.L) {
		return cr, b.L, flip[op], true
	}
	return nil, nil, "", false
}

// exprConst reports whether e references none of this block's relations
// (it may reference parameters or outer queries — both constant during a
// scan of this block). An expression with a subquery never is: relMask
// gives it every relation, because bounding index scans with a subquery
// would force evaluation order, so it stays a filter.
func exprConst(rels []*relInfo, cc *compiler, p *selectPlan, e sqlparse.Expr) bool {
	return p.relMask(rels, e, cc) == 0
}

// sargSel estimates a sargable conjunct's selectivity.
func (p *selectPlan) sargSel(ri *relInfo, cj conjunct) float64 {
	if ri.table == nil {
		return defaultRangeSel
	}
	st := ri.table.stats
	switch cj.sargOp {
	case "=":
		if cj.sargKnown {
			return st.selEquals(cj.sargCol, cj.sargLit)
		}
		// Unknown operand: still use the distinct count — the column's
		// cardinality is known even when the value is not.
		return st.selEquals(cj.sargCol, val.Int(0))
	case "between":
		if cj.sargKnown {
			lo := st.selRange(cj.sargCol, ">=", cj.sargLit, true)
			hi := st.selRange(cj.sargCol, "<=", cj.betweenHiLit, true)
			s := lo + hi - 1
			return clampSel(s)
		}
		return defaultRangeSel
	default:
		return st.selRange(cj.sargCol, cj.sargOp, cj.sargLit, cj.sargKnown)
	}
}

// joinSel estimates an equi-join edge's selectivity.
func (p *selectPlan) joinSel(rels []*relInfo, cj conjunct) float64 {
	d := 10.0
	if t := rels[cj.relA].table; t != nil && t.stats.Analyzed() {
		t.stats.mu.RLock()
		if cj.colA < len(t.stats.Columns) && t.stats.Columns[cj.colA].Distinct > 0 {
			d = math.Max(d, float64(t.stats.Columns[cj.colA].Distinct))
		}
		t.stats.mu.RUnlock()
	}
	if t := rels[cj.relB].table; t != nil && t.stats.Analyzed() {
		t.stats.mu.RLock()
		if cj.colB < len(t.stats.Columns) && t.stats.Columns[cj.colB].Distinct > 0 {
			d = math.Max(d, float64(t.stats.Columns[cj.colB].Distinct))
		}
		t.stats.mu.RUnlock()
	}
	return 1 / d
}
