package engine

import (
	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// The batch executor: every SELECT block — serial, a lane of a parallel
// scan, a shard's partial, a correlated sub-block, the match scan of an
// UPDATE or DELETE — runs on vecRun. The leading scan collects rows into a
// slab-backed batch; each later step transforms an input batch into an
// output batch (filters compact in place, hash joins probe a whole batch
// per charge posting, the inherently row-at-a-time joins run per frame and
// batch what they emit); the sink projects or aggregates with slab-reused
// buffers. Per-tuple event kinds are charged as Charge(kind, n) per batch,
// which the meter defines as exactly n single-event charges, so the
// simulated clock cannot tell a batch from n rows.
//
// One run is shaped by six things, all derived, none settable:
//   - batch capacity (selectPlan.batchCap): 1 for a block that can stop
//     early, so it never reads past the row that stops it; for a block
//     the buffer pool cannot tell apart at any capacity (planUnobserved),
//     a row at a time for the first 1024 rows and the growing batch after
//     (rowFirst), or a fixed 64 when a hash join follows its lead; the
//     growing 64→1024 batch otherwise; a lane of a parallel scan stays at 64,
//   - lead source: the leading step's access path — heap, index or derived
//     relation — narrowed to a page range for a parallel lane,
//   - sink: projection into the block's outputSink, projection into a
//     lane's retained rows, or grouped aggregation into an aggAccum,
//   - columns read (relInfo.cols): a scan decodes only the columns some
//     expression was bound to — marked by scope.resolve at any depth and by
//     relInfo.slotFn, final once planSelect returns — straight into the
//     relation's stretch of the current frame,
//   - column roles: a column read at its relation's own step — by a pushed
//     conjunct, an ON filter, its build key — is a scan column; one read
//     after it — by a later probe key, a hash join's residual filter, a
//     later filter, a correlated sub-block, the sink — an output column;
//     some are both. A heap scan decodes the scan columns, runs its filters
//     and decodes the output-only columns for the rows that pass; a hash
//     build row keeps the output columns only, packed 9 bytes a value with
//     its chain link in the chunk (packedRows), and a probe rebuilds them
//     in its output frame,
//   - frame width (vecStage.hi): a frame has slots for the columns read and
//     for nothing else. selectPlan.assignSlots numbers them last, relation
//     by relation in step order, output columns first, each relation's
//     stretch starting where the previous one's output columns end: what
//     steps 0..i keep is the frame prefix ending with step i's output
//     columns, and stage i's frames are that wide (the lead's, its whole
//     stretch) — a block reading 7 of LINEITEM's 16 columns moves at most
//     7 values per row per stage, and a relation nobody reads a column of
//     after its own step (COUNT(*), a build side read only as its key)
//     moves none.
//
// Batch capacity is logical: it is when a stage flushes, which fixes the
// order in which the stages reach the buffer pool and with it every
// simulated charge. Where no stage after the lead reaches the pool but one
// hash build, which fires at the lead's first flush — at 64 rows or at the
// end, on the growing batch as on a fixed 64 — the order is the lead's own
// whatever the capacity, so such a block takes the capacity that backs the
// fewest frames: a single-table block rewrites one frame per row until a
// long scan has handed on enough rows that a full batch costs less than the
// flush per row. Frames are physical: a batch backs only the frames rows
// have reached, so what an execution cuts from the scratch follows the rows
// it returns — a one-row result of a growing batch holds two frames, not
// sixty-four.
//
// The run state of a block (blockRun: its blockExec, vecRun and outputSink)
// belongs to the statement's runtime and is reset, not rebuilt, when the
// block runs again — per outer row for a correlated sub-block, per
// execution for a prepared Stmt, which keeps its runtime. A correlated
// sub-block keeps everything its executions size until the statement ends —
// hash tables and their build scans, the accumulator, the group slabs, the
// materialized rows — so that an outer row costs no allocation. What a
// statement sizes by its rows is its session's and goes back at its end: the
// batch frames, their header arrays, the projection slabs, the ORDER BY
// buffer and its sort keys are cut from the session's scratch and the hash
// tables and grouping accumulators taken from it, and when the statement
// ends (runtime.done) all of it goes back, cleared, for the next statement
// to reuse; the run state a Stmt keeps holds none of it, nor do the
// DISTINCT sets and cached sub-block results it drops. Between statements
// the session holds the scratch weakly, so a collection takes it (the
// cursor caches hold hundreds of Stmts: keeping each one's 64-frame batches
// took the R/3 report run's live heap from 45 to 180 MiB). A lane of a
// parallel run cuts its frames and slabs from its
// lane's scratch (scratch.lane), which goes back with the statement's; a
// run with no scratch — a partial result that outlives its statement —
// makes its frames and tables on the heap.
//
// Under ExplainAnalyze each stage installs its operator's span around its
// own work and counts the rows it hands on per batch.

// batchSize is the capacity a growing batch grows toward.
const batchSize = 1024

// vecBatchInitial is the starting capacity of a growing batch.
const vecBatchInitial = 64

// rowFirst is the batch capacity (selectPlan.batchCap) of a block the pool
// cannot tell apart at any capacity and that has no hash join: its batches
// hand on their first batchSize rows one at a time — a short result
// rewrites one frame — and then grow 64 → 1024 like any batch, so that a
// long scan does not pay a flush per row.
const rowFirst = -1

// vecBatch is a batch of pipeline frames. Every frame is one row as wide as
// its stage (vecStage.hi), backed by a slab allocation; a batch owns its
// frames exclusively — steps copy rows between batches rather than sharing
// pointers, so recycling a batch after a downstream flush can never corrupt
// rows still in flight.
type vecBatch struct {
	max    int32 // capacity bound: the run's batch capacity
	ones   int32 // one-row flushes left before a rowFirst batch grows
	cap    int   // current capacity: the batch flushes when n reaches it
	frames [][]val.Value
	n      int
}

// framePoison is nil outside the test binary. TestSlotLayout sets it to
// overwrite every frame as it is handed out, so that reading a slot no step
// has written since finds a sentinel, not NULL or the row of a batch ago.
// It is not val.Poison, which sees memory released, not handed out.
var framePoison func(frame []val.Value)

// frame returns frame i of the stage's batch for a new row, backing it first
// if no row has come this far: the frames quadruple from two up to the
// capacity, one slab per step, slabs and header arrays cut from sc.
func (s *vecStage) frame(i int, sc *scratch) []val.Value {
	b := &s.out
	if i == len(b.frames) {
		k := min(max(3*len(b.frames), 2), b.cap-len(b.frames))
		frames := append(sc.frames(len(b.frames) + k)[:0], b.frames...)
		slab := sc.values(k * s.hi)
		for j := 0; j < k; j++ {
			frames = append(frames, slab[j*s.hi:(j+1)*s.hi:(j+1)*s.hi])
		}
		b.frames = frames
	}
	if framePoison != nil {
		framePoison(b.frames[i])
	}
	return b.frames[i]
}

// grow quadruples the batch capacity toward its bound after a flush; a
// rowFirst batch stays at one row until it has handed on batchSize of them.
func (b *vecBatch) grow() {
	if b.ones > 0 {
		if b.ones--; b.ones == 0 {
			b.cap = vecBatchInitial
		}
		return
	}
	b.cap = min(b.cap*4, int(b.max))
}

// vecStage is the per-run state of one pipeline step.
type vecStage struct {
	// out is the step's reusable output batch; it has no frames for steps
	// that bind no relation (filters pass their compacted input through).
	out vecBatch
	// hi is the width of out's frames: the prefix holding the output columns
	// of every relation bound once the step has run (the lead's whole
	// stretch, which its scan decodes in place) — or, when the next step to
	// bind a relation works a frame at a time and so extends its input where
	// it is, the prefix that step fills.
	hi int
	// emit is the function a row-at-a-time step's run hands each match to,
	// bound at the step's first batch of an execution (vecRun.pushRowStep)
	// and kept while the block runs again within its statement.
	emit func() error
}

// vecRun drives one block's step pipeline batch-at-a-time.
type vecRun struct {
	be     *blockExec
	p      *selectPlan
	stages []vecStage
	// pages, when set, narrows the leading heap scan to one lane's
	// partition.
	pages  *[2]int
	keyBuf []byte
	// sinkFrame consumes one post-pipeline frame (projSink or aggSink, bound
	// once); the frame is be's current row.
	sinkFrame func() error
	// acc is the grouped aggregation's accumulator, kept across the block's
	// executions until the statement ends.
	acc *aggAccum
	// trace, when set, sees every flush: the stage and the frames it hands
	// on (the flush-schedule test).
	trace func(stage, n int)

	// Projection sink state: output rows, projections then ORDER BY keys,
	// cut from slabs. When add neither sorts nor retains rows, one one-row
	// slab serves every row (recycle); otherwise the slabs quadruple from
	// four rows to batchSize whatever the batch capacity (retained rows are
	// not a batch). slabs are the ones cut in this statement, in order, so
	// that a block run again refills them. Not a val.Chunks: a slab is cut
	// from the scratch's values, which own and release it, and the list is
	// walked again from its first slab each time the block runs, where a
	// Chunks cuts only forward from its mark.
	add     func(outRow) error
	slabs   [][]val.Value
	slabAt  int // slabs[slabAt-1] is being filled
	slab    []val.Value
	projPos int
	projCap int
	recycle bool
}

// projSlabInitial is the row capacity of the first projection slab of a
// run whose rows are retained.
const projSlabInitial = 4

// newVecRun prepares a run of p's pipeline at the given batch capacity.
func newVecRun(p *selectPlan, be *blockExec, capacity int) *vecRun {
	v := &vecRun{be: be, p: p, stages: make([]vecStage, len(p.steps))}
	v.sinkFrame = v.projSink
	if p.agg != nil {
		v.sinkFrame = v.aggSink
	}
	hi := 0
	for i, st := range p.steps {
		if rel := st.bound(); rel != nil {
			hi = rel.outEnd()
			if i == 0 { // the lead scan decodes its whole stretch in place
				hi = rel.end()
			}
		}
		v.stages[i].hi = hi
	}
	in := 0 // the frame prefix the step after i writes into its input
	for i := len(p.steps) - 1; i >= 0; i-- {
		v.stages[i].hi = max(v.stages[i].hi, in)
		switch st := p.steps[i].(type) {
		case *filterStep: // hands its input on as it is
		case *hashStep:
			in = 0 // copies its input into its own batch
		default:
			in = st.bound().end()
		}
	}
	v.reset(capacity)
	return v
}

// reset readies v for another run at the given batch capacity: every batch
// is empty and back at its starting capacity.
func (v *vecRun) reset(capacity int) {
	for i := range v.stages {
		out := &v.stages[i].out
		out.n, out.max, out.cap, out.ones = 0, int32(capacity), min(vecBatchInitial, capacity), 0
		if capacity == rowFirst {
			out.max, out.cap, out.ones = batchSize, 1, batchSize
		}
	}
	v.projPos, v.projCap, v.slabAt = 0, 0, 0 // the next projected row starts the first slab
}

// drop lets go of everything the runs so far sized: the frames and
// projection slabs, which are the statement's scratch's, the accumulator,
// and the row steps' emit functions, which a prepared Stmt would otherwise
// keep for as long as a cursor cache keeps it.
func (v *vecRun) drop() {
	for i := range v.stages {
		v.stages[i].out.frames = nil
		v.stages[i].emit = nil
	}
	v.acc = nil
	v.slabs, v.slab = nil, nil
	v.add = nil // it closes over the sink's caller
}

// aggregate drains the pipeline into the run's accumulator, emptied first,
// and returns it ready to merge or finalize.
func (v *vecRun) aggregate() (*aggAccum, error) {
	if v.acc == nil {
		v.acc = v.be.rt.sc.accum(v.p)
	} else {
		v.acc.reset()
	}
	return v.acc, v.drive()
}

// aggSink folds the current frame into the accumulator.
func (v *vecRun) aggSink() error { return v.acc.addRow(v.be.rt, v.be.stack) }

// project drains the pipeline through projection into add. recycle says
// add does not retain the rows it is handed, so one slab serves them all.
func (v *vecRun) project(add func(outRow) error, recycle bool) error {
	v.add, v.recycle = add, recycle
	return v.drive()
}

// drive streams the leading scan into batches, pushes them through the
// pipeline, and flushes every partial batch in step order at the end.
func (v *vecRun) drive() error {
	if err := v.leadScan(v.p.steps[0].(*scanStep)); err != nil {
		return err
	}
	for i := range v.stages {
		if err := v.flush(i); err != nil {
			return err
		}
	}
	return nil
}

// flush pushes step i's pending output downstream. A batch that filled up
// grows for the next round.
func (v *vecRun) flush(i int) error {
	out := &v.stages[i].out
	n := out.n
	if n == 0 {
		return nil
	}
	out.n = 0
	if v.trace != nil {
		v.trace(i, n)
	}
	err := v.push(i+1, out, n)
	if n == out.cap {
		out.grow()
	}
	return err
}

// leadScan runs step 0's access path straight into the lead batch: the
// current row is always the batch's next free frame, so a row that passes
// the scan's filters is kept by advancing to the next frame. The storage
// layer charges page I/O and per-tuple CPU per row it reads, whatever the
// hand-off granularity. A streamed derived relation (relInfo.stream) runs
// its plan with the lead batch as its output instead of materializing it.
func (v *vecRun) leadScan(lead *scanStep) error {
	be := v.be
	if be.prof != nil {
		m := be.rt.meter()
		defer m.SetSpan(m.SetSpan(be.prof.steps[0]))
	}
	be.setRow(v.stages[0].frame(0, be.rt.sc))
	if lead.rel.stream {
		return v.streamLead(lead)
	}
	return runAccess(be, lead.rel, lead.access, lead.extraFilters, v.pages, v.keepLead)
}

// keepLead keeps the current row in the lead batch, flushing a full batch,
// and makes the next free frame the current row.
func (v *vecRun) keepLead() error {
	st := &v.stages[0]
	out := &st.out
	out.n++
	if out.n == out.cap {
		if err := v.flush(0); err != nil {
			return err
		}
	}
	v.be.setRow(st.frame(out.n, v.be.rt.sc))
	return nil
}

// streamLead runs the lead's derived plan, each row it emits going through
// the scan's filters into the lead batch. It is kept apart from leadScan: a
// closure handed to the sub-plan escapes, and only a streaming run pays for
// it.
func (v *vecRun) streamLead(lead *scanStep) error {
	be := v.be
	return lead.rel.derived.run(be.rt, outerOf(be), func(r []val.Value) error {
		ok, err := derivedRow(be, lead.rel, lead.access, lead.extraFilters, r)
		if err != nil || !ok {
			return err
		}
		return v.keepLead()
	})
}

// push processes n frames of batch in through steps i..end; entering step
// i means step i-1 produced them. in's frames may be reordered (filter
// compaction) but their bound slots are never modified; every
// relation-binding step copies surviving frames into its own batch before
// extending them.
func (v *vecRun) push(i int, in *vecBatch, n int) error {
	if n == 0 {
		return nil
	}
	be := v.be
	if be.fb != nil {
		be.fb.counts[i-1] += int64(n)
	}
	if be.prof != nil {
		be.prof.steps[i-1].AddRows(int64(n))
		sp := be.prof.output
		if i < len(v.p.steps) {
			sp = be.prof.steps[i]
		}
		m := be.rt.meter()
		defer m.SetSpan(m.SetSpan(sp))
	}
	if i == len(v.p.steps) {
		for j := 0; j < n; j++ {
			be.setRow(in.frames[j])
			if err := v.sinkFrame(); err != nil {
				return err
			}
		}
		return nil
	}
	switch st := v.p.steps[i].(type) {
	case *filterStep:
		// Selection over the batch: evaluate the conjunction per frame,
		// compacting survivors to the front by swaps (stable for the
		// survivors, so downstream order is scan order).
		kept := 0
		for j := 0; j < n; j++ {
			be.setRow(in.frames[j])
			ok, err := evalFilters(be, st.filters)
			if err != nil {
				return err
			}
			if ok {
				in.frames[kept], in.frames[j] = in.frames[j], in.frames[kept]
				kept++
			}
		}
		return v.push(i+1, in, kept)
	case *hashStep:
		return v.pushHash(i, st, in, n)
	default:
		return v.pushRowStep(i, st.(rowStepper), in, n)
	}
}

// pushHash probes the hash table with a whole batch: probe keys reuse one
// key buffer, matches are rebuilt from their packed build rows straight
// into the step's output batch, and the per-match TupleCPU events post as
// one Charge per posting point instead of one meter round trip per row.
// Events are counted match by match, so a run stopped inside a probe has
// charged only the matches it reached.
func (v *vecRun) pushHash(i int, s *hashStep, in *vecBatch, n int) error {
	be := v.be
	var ht *hashTable
	if be.hashes != nil {
		ht = be.hashes[i]
	} else {
		if be.builds == nil {
			be.builds = make([]*hashBuild, len(v.p.steps))
		}
		b := be.builds[i]
		if b == nil {
			b = newHashBuild(s, be.rt, s.rel.estRows)
			be.builds[i] = b
		}
		if !b.built {
			if err := b.build(outerOf(be)); err != nil {
				return err
			}
			b.built = true
		}
		ht = b.ht
	}
	st, sc := &v.stages[i], be.rt.sc
	m := be.rt.meter()
	out := &st.out
	lo, hi := s.rel.offset, s.rel.outEnd()
	var pending int64 // probe-match TupleCPU events not yet posted
	defer func() { m.Charge(cost.TupleCPU, pending) }()
	for j := 0; j < n; j++ {
		frame := in.frames[j]
		be.setRow(frame)
		key, ok, err := joinKey(v.keyBuf[:0], s.probeFns, be.rt, be.stack)
		v.keyBuf = key
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		for r := ht.first(key); r >= 0; {
			pending++
			dst := st.frame(out.n, sc)
			copy(dst[:lo], frame[:lo])
			r = ht.rows.load(r, dst[lo:hi])
			be.setRow(dst)
			ok, err := evalFilters(be, s.filters)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			out.n++
			if out.n == out.cap {
				m.Charge(cost.TupleCPU, pending)
				pending = 0
				if err := v.flush(i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pushRowStep drives an inherently row-at-a-time step (index nested-loop
// join, re-scanning nested loop, left outer join) over a batch of outer
// frames: the step's own run method executes per frame, charging per row
// it touches, and its emissions collect into the step's output batch.
func (v *vecRun) pushRowStep(i int, st rowStepper, in *vecBatch, n int) error {
	be := v.be
	stage := &v.stages[i]
	if stage.emit == nil {
		stage.emit = v.rowEmitter(i, st.bound().outEnd())
	}
	for j := 0; j < n; j++ {
		be.setRow(in.frames[j])
		if err := st.run(be, stage.emit); err != nil {
			return err
		}
	}
	return nil
}

// rowEmitter returns the function row-at-a-time step i hands each match to:
// it copies what later steps read of the frame — the first hi slots — into
// the step's output batch. The frame is the current row: the step fills its
// relation's slots in the input frame it was handed (rowStepper), and every
// later step that installs a frame of its own does so inside the flush,
// after which the input frame goes back.
func (v *vecRun) rowEmitter(i, hi int) func() error {
	stage := &v.stages[i]
	out := &stage.out
	return func() error {
		frame := v.be.row
		copy(stage.frame(out.n, v.be.rt.sc), frame[:hi])
		out.n++
		if out.n < out.cap {
			return nil
		}
		err := v.flush(i)
		v.be.setRow(frame)
		return err
	}
}

// projSink projects the current frame into slab-backed row storage and
// hands it to add.
func (v *vecRun) projSink() error {
	p := v.p
	nProj, w := len(p.projections), len(p.projections)+len(p.orderKeys)
	if v.projPos == v.projCap {
		if !v.recycle || v.projCap == 0 { // a recycling projection rewrites its one row
			v.projCap = min(max(v.projCap*4, projSlabInitial), batchSize)
			if v.recycle {
				v.projCap = 1
			}
			v.slab = v.nextSlab(v.projCap * w)
		}
		v.projPos = 0
	}
	row := v.slab[v.projPos*w : (v.projPos+1)*w : (v.projPos+1)*w]
	v.projPos++
	r := outRow{proj: row[:nProj:nProj]}
	if w > nProj {
		r.keys = row[nProj:]
	}
	if err := p.projectInto(v.be.rt, v.be.stack, r); err != nil {
		return err
	}
	return v.add(r)
}

// nextSlab returns the next projection slab, n values long: the one cut at
// the same place when the block last ran in this statement, or one cut from
// the scratch now. Its list of slabs is cut from the scratch too. (Why the
// list is not a val.Chunks: vecRun.slabs.)
func (v *vecRun) nextSlab(n int) []val.Value {
	sc := v.be.rt.sc
	if v.slabAt == len(v.slabs) {
		if len(v.slabs) == cap(v.slabs) {
			v.slabs = append(sc.frames(max(2*cap(v.slabs), 4))[:0], v.slabs...)
		}
		v.slabs = append(v.slabs, nil)
	}
	if len(v.slabs[v.slabAt]) != n {
		v.slabs[v.slabAt] = sc.values(n)
	}
	v.slabAt++
	return v.slabs[v.slabAt-1]
}

// floatExp is a Shewchuk error-free expansion: at most expCap
// nonoverlapping float64 components, in increasing magnitude, whose
// mathematical sum equals, with no rounding at all, the exact sum of every
// value added so far. It is the exact SUM/AVG accumulator (exactSum): lane
// merges add the other lane's components, and finalize rounds the
// components to float64 directly (round), so a sum never touches big.Float
// unless its expansion outgrows expCap or meets a value past expGuard.
type floatExp struct {
	comp [expCap]float64
	n    int
}

// expCap bounds the expansion. Arbitrary float64 sums need up to ~40
// components (full exponent span / 53), but values of similar magnitude —
// every real aggregate — collapse to two or three; a value that would
// overflow the bound goes to exactSum's big.Float instead, which is always
// correct.
const expCap = 12

// expGuard rejects operands big enough that an intermediate two-sum
// could overflow to ±Inf (big.Float would carry the exact value through;
// IEEE arithmetic would wedge at infinity). Such values take exactSum's
// big.Float path instead.
const expGuard = 4.4e307

// twoSum is the branch-free error-free transformation: s is the IEEE
// rounded sum and err the exact rounding error, so a+b == s+err exactly
// (Knuth / Shewchuk).
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bv := s - a
	av := s - bv
	err = (a - av) + (b - bv)
	return s, err
}

// add grows the expansion by x, keeping components nonoverlapping in
// increasing magnitude order and dropping zeros. It reports false —
// leaving the expansion untouched — when x is not safely representable
// (NaN, Inf, or near overflow) or when the components would exceed
// expCap; the caller then adds x the big.Float way.
func (e *floatExp) add(x float64) bool {
	if !(x > -expGuard && x < expGuard) { // catches NaN and huge values
		return false
	}
	if e.n > 0 && !(e.comp[e.n-1] > -expGuard && e.comp[e.n-1] < expGuard) {
		return false
	}
	q := x
	var out [expCap]float64
	k := 0
	for i := 0; i < e.n; i++ {
		s, err := twoSum(q, e.comp[i])
		q = s
		if err != 0 {
			out[k] = err
			k++
		}
	}
	if q != 0 {
		if k == expCap {
			return false
		}
		out[k] = q
		k++
	}
	e.comp = out
	e.n = k
	return true
}

// round returns the expansion's exact sum correctly rounded to float64,
// ties to even — the bits big.Float.Float64 gives — by the rule of
// Python's math.fsum: add the components from the top down and stop at the
// first step that rounds; its result is the rounded sum unless it lies
// exactly half-way between two floats, and then the sign of the next
// component down says which way the exact sum leans. The components never
// overlap and stay below 2×expGuard, so no step overflows.
func (e *floatExp) round() float64 {
	n := e.n
	if n == 0 {
		return 0
	}
	n--
	hi, lo := e.comp[n], 0.0
	for n > 0 {
		x, y := hi, e.comp[n-1]
		n--
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && e.comp[n-1] < 0 || lo > 0 && e.comp[n-1] > 0) {
		y := 2 * lo
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}
