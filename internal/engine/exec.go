package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// errStopIteration stops a pipeline early (LIMIT, EXISTS) without error.
var errStopIteration = errors.New("engine: stop iteration")

// blockExec is the per-execution state of one query block: the row stack
// (outer frames + the block's current frame) and the hash tables built so
// far.
type blockExec struct {
	rt    *runtime
	stack rowStack
	row   []val.Value // the current frame: stack's last element
	// hashes holds, by step, the hash tables a parallel build made before
	// the block's pipeline runs — the lanes share them, read-only; nil when
	// the block builds its own, on first probe, into builds.
	hashes []*hashTable
	// builds is the block's own hash builds, by step: kept, with their
	// tables, until the block is done, so that a block run again — a
	// correlated sub-block per outer row — refills them instead of making
	// new ones.
	builds []*hashBuild
	curRID storage.RID   // last RID emitted by a scan (single-relation DML)
	prof   *planProf     // operator spans under ExplainAnalyze; nil otherwise
	fb     *execFeedback // per-step row counting for adaptive replanning; nil otherwise

	// idxKeys is the key scratch of the index scans in flight, one entry
	// per nesting level: an index nested-loop join probes while the scan
	// that feeds it is still walking its own range.
	idxKeys  []idxKeys
	idxDepth int
}

// newBlockExec starts a block execution under the given outer frames. The
// current frame is unset until setRow installs one.
func newBlockExec(rt *runtime, outer rowStack) *blockExec {
	be := &blockExec{rt: rt}
	be.reset(outer)
	return be
}

// reset starts another execution under the given outer frames, keeping the
// stack's backing array, the index-key scratch and the hash builds, which
// are built again on first probe.
func (be *blockExec) reset(outer rowStack) {
	if cap(be.stack) <= len(outer) {
		be.stack = make(rowStack, len(outer)+1)
	}
	be.stack = be.stack[:len(outer)+1]
	copy(be.stack, outer)
	be.row, be.stack[len(outer)] = nil, nil
	for _, b := range be.builds {
		if b != nil {
			b.built = false
		}
	}
}

// drop lets go of the frames of the executions so far and hands their hash
// tables back to the statement's scratch: the ones it built and the ones a
// parallel build made for it.
func (be *blockExec) drop() {
	clear(be.stack)
	for _, b := range be.builds {
		if b != nil {
			be.rt.sc.putTable(b.ht)
		}
	}
	be.rt.sc.putTables(be.hashes)
	be.row, be.hashes, be.builds, be.prof, be.fb = nil, nil, nil, nil, nil
}

// setRow installs f as the block's current frame.
func (be *blockExec) setRow(f []val.Value) {
	be.row = f
	be.stack[len(be.stack)-1] = f
}

// execFeedback accumulates the number of rows each plan step produced
// during one execution — the execution-side half of adaptive replanning.
type execFeedback struct {
	counts []int64
}

// stepper is one stage of the left-deep join pipeline, driven
// batch-at-a-time by vecRun.push.
type stepper interface {
	// bound returns the relation whose slots the step fills in the frame,
	// nil for a pure filter.
	bound() *relInfo
}

// rowStepper is a stepper that works one input frame at a time (index
// nested-loop join, re-scanning nested loop, left outer join): run fills
// its relation's slots in be.row and calls next for every match.
type rowStepper interface {
	stepper
	run(be *blockExec, next func() error) error
}

// evalFilters evaluates a conjunction; unknown (NULL) is not true.
func evalFilters(be *blockExec, fns []exprFn) (bool, error) {
	for _, f := range fns {
		v, err := f(be.rt, be.stack)
		if err != nil {
			return false, err
		}
		if v.IsNull() || !v.IsTrue() {
			return false, nil
		}
	}
	return true, nil
}

// --- scan step (sequential, index, or derived) ---

// scanStep reads one relation through its access path; as a non-leading
// step it degenerates to a (re-)scanning nested-loop join.
type scanStep struct {
	rel          *relInfo
	access       accessPath
	extraFilters []exprFn
	estOut       float64 // optimizer's estimated output rows
}

func (s *scanStep) bound() *relInfo { return s.rel }

func (s *scanStep) run(be *blockExec, next func() error) error {
	return runAccess(be, s.rel, s.access, s.extraFilters, nil, next)
}

// inlStep probes an index of its relation with equality values taken from
// already-bound relations: an index nested-loop join.
type inlStep struct {
	rel     *relInfo
	index   *Index
	eqFns   []exprFn
	filters []exprFn
	estOut  float64 // optimizer's estimated output rows
}

func (s *inlStep) bound() *relInfo { return s.rel }

func (s *inlStep) run(be *blockExec, next func() error) error {
	ap := accessPath{index: s.index, eqFns: s.eqFns}
	return runAccess(be, s.rel, ap, s.filters, nil, next)
}

// filterStep applies residual predicates without binding a relation.
type filterStep struct {
	filters []exprFn
}

func (s *filterStep) bound() *relInfo { return nil }

// runAccess streams the relation's rows into be.row under the access path
// plus extra filters: the heap decodes the columns the block reads
// (rel.cols) straight into the relation's stretch of the current frame. A
// filter reads scan columns only, so a heap scan decodes those first and the
// output-only columns only for the rows the filters pass. pages, when set,
// narrows a heap scan to that page range — one lane's partition of a
// parallel scan.
func runAccess(be *blockExec, rel *relInfo, ap accessPath, extra []exprFn, pages *[2]int, next func() error) error {
	if rel.derived != nil {
		return runDerived(be, rel, ap, extra, next)
	}
	pass := func() (bool, error) {
		ok, err := evalFilters(be, ap.filters)
		if err != nil || !ok {
			return false, err
		}
		return evalFilters(be, extra)
	}
	emit := func(rid storage.RID) error {
		be.curRID = rid
		return next()
	}
	if ap.index != nil {
		return runIndexScan(be, rel, ap, pass, emit)
	}
	heap := rel.table.Heap
	loPage, hiPage := 0, heap.Pages()
	if pages != nil {
		loPage, hiPage = pages[0], pages[1]
	}
	lo, hi := rel.offset, rel.end()
	// next may install a new current frame, so the destination is looked
	// up per row.
	dst := func() []val.Value { return be.row[lo:hi] }
	return heap.ScanRange(loPage, hiPage, be.rt.meter(), rel.cols, dst, pass, emit)
}

// boundVal normalises an index-scan bound: stored CHAR values are
// right-trimmed, so bounds must be too.
func boundVal(v val.Value) val.Value {
	if v.K == val.KStr {
		return val.Str(strings.TrimRight(v.S, " "))
	}
	return v
}

// idxKeys holds one index scan's range bounds: seek at lo, stop past hi
// (at hi when hiStrict). The byte slices are reused from scan to scan.
type idxKeys struct {
	lo, hi   []byte
	hiStrict bool
}

// bounds evaluates the access path's bound expressions into k. It reports
// false when a bound is NULL: a comparison with NULL is true for no key —
// not even a stored NULL — so the range is empty.
func (ap *accessPath) bounds(be *blockExec, k *idxKeys) (bool, error) {
	k.lo, k.hi, k.hiStrict = k.lo[:0], k.hi[:0], false
	for _, f := range ap.eqFns {
		v, err := f(be.rt, be.stack)
		if err != nil || v.IsNull() {
			return false, err
		}
		k.lo = val.AppendKey(k.lo, boundVal(v))
	}
	k.hi = append(k.hi, k.lo...) // both bounds extend the equality prefix
	if ap.loFn != nil {
		v, err := ap.loFn(be.rt, be.stack)
		if err != nil || v.IsNull() {
			return false, err
		}
		k.lo = val.AppendKey(k.lo, boundVal(v))
		if !ap.loInc {
			k.lo = append(k.lo, 0xFF)
		}
	}
	if ap.hiFn != nil {
		v, err := ap.hiFn(be.rt, be.stack)
		if err != nil || v.IsNull() {
			return false, err
		}
		k.hi = val.AppendKey(k.hi, boundVal(v))
		if ap.hiInc {
			k.hi = append(k.hi, 0xFF)
		} else {
			k.hiStrict = true
		}
	} else {
		k.hi = append(k.hi, 0xFF)
	}
	return true, nil
}

// runIndexScan walks the access path's index range, fetches the heap rows
// into the current frame — every column read: a probe fetches few — and
// emits the ones pass keeps.
func runIndexScan(be *blockExec, rel *relInfo, ap accessPath, pass func() (bool, error), emit func(storage.RID) error) error {
	d := be.idxDepth
	if d == len(be.idxKeys) {
		buf := make([]byte, 64)
		be.idxKeys = append(be.idxKeys, idxKeys{lo: buf[:0:32], hi: buf[32:32]})
	}
	k := be.idxKeys[d]
	ok, err := ap.bounds(be, &k)
	// The buffers go back before a row is emitted: a scan nested under this
	// one may move be.idxKeys, but never touches this level's bounds.
	be.idxKeys[d] = k
	if err != nil || !ok {
		return err
	}
	be.idxDepth++
	defer func() { be.idxDepth-- }()

	m := be.rt.meter()
	lo, hi := rel.offset, rel.end()
	it := ap.index.Tree.Seek(k.lo, m)
	for it.Next() {
		cmp := bytes.Compare(it.Key, k.hi)
		if cmp > 0 || (k.hiStrict && cmp >= 0) {
			break
		}
		if err := rel.table.Heap.FetchCols(it.RID, m, rel.cols, be.row[lo:hi]); err != nil {
			if errors.Is(err, storage.ErrDeadRID) {
				// The row was deleted between the index probe and the heap
				// fetch by a concurrent writer: the scan skips it.
				continue
			}
			return err
		}
		ok, err := pass()
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := emit(it.RID); err != nil {
			return err
		}
	}
	return nil
}

// runDerived materializes the derived relation (a view with aggregation
// or a subquery) and scans the result, copying the output columns the block
// reads into the frame. Uncorrelated derived relations are cached for the
// whole statement; correlated ones re-run per execution. A derived relation
// its block reads exactly once never comes here — the block's only relation,
// both uncorrelated, no LIMIT without ORDER BY, no subquery in the block
// (selectPlan.planStream): it streams into the lead batch (vecRun.leadScan).
func runDerived(be *blockExec, rel *relInfo, ap accessPath, extra []exprFn, next func() error) error {
	rows, err := materializeSub(be.rt, rel.derived, outerOf(be))
	if err != nil {
		return err
	}
	for _, r := range rows {
		ok, err := derivedRow(be, rel, ap, extra, r)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := next(); err != nil {
			return err
		}
	}
	return nil
}

// derivedRow copies the columns the block reads of derived row r into the
// current frame and reports whether the frame passes the scan's filters.
func derivedRow(be *blockExec, rel *relInfo, ap accessPath, extra []exprFn, r []val.Value) (bool, error) {
	for c, slot := range rel.slots {
		if slot >= 0 {
			be.row[slot] = r[c]
		}
	}
	ok, err := evalFilters(be, ap.filters)
	if err != nil || !ok {
		return false, err
	}
	return evalFilters(be, extra)
}

// outerOf returns the outer frames of a block execution (everything above
// the block's own row).
func outerOf(be *blockExec) rowStack {
	return be.stack[:len(be.stack)-1]
}

// materializeSub runs a subplan to completion. A correlated one runs per
// outer row into the rows its run state keeps (selectPlan.materialize); an
// uncorrelated one's rows are cached for the statement. When parallel
// workers share the statement's cache, rt.subMu guards it; materialization
// itself runs outside the lock (subplans can nest), so two workers may race
// to fill the same entry — both produce identical rows, and the second
// store is a no-op overwrite.
func materializeSub(rt *runtime, sub *selectPlan, outer rowStack) ([][]val.Value, error) {
	if sub.correlated {
		return sub.materialize(rt, outer)
	}
	if rt.subMu != nil {
		rt.subMu.Lock()
	}
	rows, ok := rt.subCache[sub]
	if rt.subMu != nil {
		rt.subMu.Unlock()
	}
	if ok {
		return rows, nil
	}
	kept := newSubRows()
	if err := sub.run(rt, outer, kept.add); err != nil {
		return nil, err
	}
	if rt.subMu != nil {
		rt.subMu.Lock()
	}
	rt.subs()[sub] = kept.rows
	if rt.subMu != nil {
		rt.subMu.Unlock()
	}
	return kept.rows, nil
}

// subRows collects a materialized sub-block's rows, cut from a chunk list:
// reset releases them and keeps the chunks, so a correlated block that
// returns as many rows for the next outer row allocates nothing.
type subRows struct {
	rows   [][]val.Value
	chunks val.Chunks[val.Value]
	keep   func([]val.Value) error
}

func newSubRows() *subRows {
	c := &subRows{}
	c.chunks.Max = val.ChunkMax
	c.keep = c.add
	return c
}

// reset empties the rows and keeps the chunks.
func (c *subRows) reset() {
	c.rows = c.rows[:0]
	c.chunks.Reset()
}

// add appends a copy of r.
func (c *subRows) add(r []val.Value) error {
	row := c.chunks.Cut(len(r))
	copy(row, r)
	c.rows = append(c.rows, row)
	return nil
}

// --- hash join step ---

// hashStep builds a hash table over its relation once per block execution
// and probes it with key values from earlier relations.
type hashStep struct {
	rel         *relInfo
	access      accessPath
	buildKeyFns []exprFn // evaluated on the build scratch row
	probeFns    []exprFn // evaluated on the probe (current) row
	filters     []exprFn
	estOut      float64 // optimizer's estimated output rows
}

func (s *hashStep) bound() *relInfo { return s.rel }

// rowSlab holds rows of width values each in chunks, named by index: row i
// is row i%slabChunkRows of chunk i/slabChunkRows. The first chunk starts at
// slabChunkMin rows and doubles up to slabChunkRows, so a small table stays
// small; the later ones are made full size and never move. A reset keeps
// the chunks for rows of any width. Not a val.Chunks: rows are named by
// index, and the first chunk grows by copying, which a cut never may.
type rowSlab[T any] struct {
	width  int
	chunks [][]T
}

const (
	slabChunkRows = 256
	slabChunkMin  = 4
)

// add appends row i — the caller counts — and returns it, zeroed.
func (s *rowSlab[T]) add(i int) []T {
	c, r := i/slabChunkRows, i%slabChunkRows
	at := r * s.width
	if c == len(s.chunks) {
		if c < cap(s.chunks) {
			s.chunks = s.chunks[:c+1] // a chunk kept by reset, emptied
		} else {
			s.chunks = append(s.chunks, nil)
		}
	}
	if at+s.width > cap(s.chunks[c]) {
		// A new chunk, the first one full at its current size, or one kept
		// from rows of another width that is too short for these.
		rows := slabChunkRows
		if c == 0 {
			rows = max(2*r, slabChunkMin)
		}
		s.chunks[c] = append(make([]T, 0, rows*s.width), s.chunks[c]...)
	}
	s.chunks[c] = s.chunks[c][:at+s.width]
	row := s.chunks[c][at:]
	clear(row) // a kept chunk may have been poisoned (val.Poison)
	return row
}

// reset empties the slab and keeps its chunks, cleared, for the rows that
// follow.
func (s *rowSlab[T]) reset() {
	for i, ch := range s.chunks {
		clear(ch)
		s.chunks[i] = ch[:0]
	}
	s.chunks = s.chunks[:0]
}

// row returns row i.
func (s *rowSlab[T]) row(i int) []T {
	at := i % slabChunkRows * s.width
	return s.chunks[i/slabChunkRows][at : at+s.width]
}

// packedRows holds a hash table's build rows, width values each, in chunks
// named by index and grown as a rowSlab's are. A chunk is one []byte holding
// per row an 8-byte payload per value — I for INT and DATE, the bits of F for
// DECIMAL, nothing for NULL and CHAR — then a kind byte per value, then the
// row's 4-byte chain link: 9×width+4 bytes, against 40 a value as
// val.Values. A CHAR value's string header goes into the chunk's strs, made
// when the chunk first holds one; it stays what the scan decoded, a view of
// the page image. Not a val.Chunks: a byte layout.
type packedRows struct {
	width  int
	stride int   // bytes per row: 9*width+4
	n      int32 // the index the next row gets
	chunks []packedChunk
}

// packedChunk is one chunk of a packedRows.
type packedChunk struct {
	b    []byte   // the rows, stride bytes each
	strs []string // by value index: the CHAR values; nil until the chunk holds one
}

func newPackedRows(width int) packedRows {
	return packedRows{width: width, stride: 9*width + 4}
}

// add appends row, its link ending its chain, and returns its index.
func (s *packedRows) add(row []val.Value) int32 {
	i := s.n
	s.n++
	c, r := int(i/slabChunkRows), int(i%slabChunkRows)
	at := r * s.stride
	if c == len(s.chunks) {
		if c < cap(s.chunks) {
			s.chunks = s.chunks[:c+1] // a chunk kept by reset, emptied
		} else {
			s.chunks = append(s.chunks, packedChunk{})
		}
	}
	ch := &s.chunks[c]
	if at+s.stride > cap(ch.b) {
		// A new chunk, the first one full at its current size, or one kept
		// from rows of another width that is too short for these.
		rows := slabChunkRows
		if c == 0 {
			rows = max(2*r, slabChunkMin)
		}
		ch.b = append(make([]byte, 0, rows*s.stride), ch.b...)
	}
	ch.b = ch.b[:at+s.stride]
	rec := ch.b[at:]
	kinds := rec[8*s.width : 9*s.width]
	for j, v := range row {
		var p uint64
		switch v.K {
		case val.KInt, val.KDate:
			p = uint64(v.I)
		case val.KFloat:
			p = math.Float64bits(v.F)
		case val.KStr:
			ch.chars(r*s.width, s.stride, s.width)[j] = v.S
		}
		binary.LittleEndian.PutUint64(rec[8*j:], p)
		kinds[j] = byte(v.K)
	}
	s.setLink(i, -1)
	return i
}

// size is the bytes the chunks hold, those reset emptied included.
func (s *packedRows) size() (n int) {
	for _, ch := range s.chunks[:cap(s.chunks)] {
		n += cap(ch.b)
	}
	return n
}

// reset empties the rows and keeps their chunks for the rows that follow.
// A chunk's CHAR slots keep what they held until a row overwrites them: no
// row reads a slot its own value did not write.
func (s *packedRows) reset() {
	for i := range s.chunks {
		s.chunks[i].b = s.chunks[i].b[:0]
	}
	s.chunks, s.n = s.chunks[:0], 0
}

// chars returns the CHAR slots of the row whose values start at value
// index at, making the chunk's the first time — or again, when the first
// chunk has doubled since.
func (ch *packedChunk) chars(at, stride, width int) []string {
	if at+width > len(ch.strs) {
		grown := make([]string, min(cap(ch.b)/stride, slabChunkRows)*width)
		copy(grown, ch.strs)
		ch.strs = grown
	}
	return ch.strs[at : at+width]
}

// load writes row i into dst, width values, and returns the row that
// follows it in its chain, -1 at the end.
func (s *packedRows) load(i int32, dst []val.Value) int32 {
	ch := &s.chunks[i/slabChunkRows]
	at := int(i % slabChunkRows)
	rec := ch.b[at*s.stride : (at+1)*s.stride]
	kinds := rec[8*s.width : 9*s.width]
	dst = dst[:len(kinds)]
	for j, k := range kinds {
		p := binary.LittleEndian.Uint64(rec[8*j:])
		switch k := val.Kind(k); k {
		case val.KFloat:
			dst[j] = val.Value{K: k, F: math.Float64frombits(p)}
		case val.KStr:
			dst[j] = val.Value{K: k, S: ch.strs[at*s.width+j]}
		default: // INT, DATE; NULL's payload is zero
			dst[j] = val.Value{K: k, I: int64(p)}
		}
	}
	return int32(binary.LittleEndian.Uint32(rec[9*s.width:]))
}

// setLink makes next follow row i in its chain.
func (s *packedRows) setLink(i, next int32) {
	at := int(i%slabChunkRows)*s.stride + 9*s.width
	binary.LittleEndian.PutUint32(s.chunks[i/slabChunkRows].b[at:], uint32(next))
}

// adopt takes over o's chunks behind s's last one and returns the index
// o's row 0 now has: o's links are rewritten in place to the new indexes.
// The chunks a reset emptied, kept past s's last one, move behind o's.
func (s *packedRows) adopt(o *packedRows) int32 {
	base := int32(len(s.chunks) * slabChunkRows)
	for _, ch := range o.chunks {
		for at := 9 * s.width; at < len(ch.b); at += s.stride {
			if n := int32(binary.LittleEndian.Uint32(ch.b[at:])); n >= 0 {
				binary.LittleEndian.PutUint32(ch.b[at:], uint32(n+base))
			}
		}
	}
	n, m, kept := len(s.chunks), len(o.chunks), len(s.chunks)
	for all := s.chunks[:cap(s.chunks)]; kept < len(all) && all[kept].b != nil; kept++ {
	}
	all := append(s.chunks[:kept], make([]packedChunk, m)...)
	copy(all[n+m:], all[n:kept])
	copy(all[n:], o.chunks)
	s.chunks = all[:n+m]
	s.n = base + o.n
	return base
}

// disown lets go of the last m chunks, which adopt took over, and moves the
// emptied chunks kept behind them back in their place.
func (s *packedRows) disown(m int) {
	n := len(s.chunks) - m
	all := s.chunks[:cap(s.chunks)]
	copy(all[n:], all[n+m:])
	clear(all[len(all)-m:])
	s.chunks = all[:n]
}

// hashTable is the built side of a hash join. A build row holds the output
// columns of the build relation (relInfo.out, possibly none): its key and
// filter columns were read by the build scan and nothing reads them again.
// The rows are named by index, and the rows of one key form a chain through
// the links packedRows keeps beside them, in the order they were added, so
// a probe meets its matches in build-scan order.
type hashTable struct {
	rows packedRows
	keys val.KeyTable // the distinct join keys
	ends [][2]int32   // per key: the first and the last row of its chain
	// lent is the tables of a parallel build's lanes 1, 2, … whose chunks
	// the table took over (absorb): they are the lanes' until it is handed
	// back (scratch.putTable).
	lent []*hashTable
}

func newHashTable(width int) *hashTable {
	return &hashTable{rows: newPackedRows(width)}
}

// reset empties the table for another build, keeping its storage.
func (t *hashTable) reset() {
	if val.Poison != nil {
		val.Poison(t)
	}
	t.rows.reset()
	t.keys.Reset()
	t.ends = t.ends[:0]
}

// add appends one build row under key.
func (t *hashTable) add(key []byte, row []val.Value) {
	i := t.rows.add(row)
	t.chain(key, i, i)
}

// chain puts the chain of rows head … tail behind the rows key already has.
func (t *hashTable) chain(key []byte, head, tail int32) {
	e, isNew := t.keys.Insert(key)
	if isNew {
		t.ends = append(t.ends, [2]int32{head, tail})
		return
	}
	t.rows.setLink(t.ends[e][1], head)
	t.ends[e][1] = tail
}

// first returns the first row stored under key, -1 when there is none;
// rows.load walks on from it.
func (t *hashTable) first(key []byte) int32 {
	if e := t.keys.Find(key); e >= 0 {
		return t.ends[e][0]
	}
	return -1
}

// absorb moves the next lane's table o in behind t's rows: o's chunks are
// taken over as they are, its row indexes shift past t's last chunk, and
// each of its chains — in the order o first saw their keys — continues t's
// chain for the same key. t holds o until it gives o its chunks back.
func (t *hashTable) absorb(o *hashTable) {
	base := t.rows.adopt(&o.rows)
	for e, ends := range o.ends {
		t.chain(o.keys.Key(int32(e)), ends[0]+base, ends[1]+base)
	}
	t.lent = append(t.lent, o)
}

// build scans the relation through its access path into an emptied hash
// table, one of rt's scratch when it has one, and charges the build.
func (s *hashStep) build(rt *runtime, outer rowStack) (*hashTable, error) {
	b := newHashBuild(s, rt, s.rel.estRows)
	return b.ht, b.build(outer)
}

// hashBuild is the build of one hash join's table: the table, and the frame
// and key of the scan that fills it. The probing block keeps it
// (blockExec.builds); table and frame come from the scratch of the
// statement, or of the parallel build's lane.
type hashBuild struct {
	s     *hashStep
	ht    *hashTable
	be    *blockExec
	row   []val.Value // the scan's frame: it ends with the build relation's stretch
	key   []byte
	n     int64        // rows scanned
	add   func() error // addRow, bound once
	built bool         // in the probing block's current execution
}

// newHashBuild readies a build of about est rows.
func newHashBuild(s *hashStep, rt *runtime, est float64) *hashBuild {
	b := &hashBuild{s: s, ht: rt.sc.table(s.rel.out, est), be: newBlockExec(rt, nil), row: rt.sc.values(s.rel.end())}
	b.add = b.addRow
	return b
}

// build scans the relation into the table through its access path and
// charges the build.
func (b *hashBuild) build(outer rowStack) error {
	nRows, err := b.scan(outer, nil)
	if err != nil {
		return err
	}
	b.s.chargeBuild(b.be.rt.meter(), nRows)
	return nil
}

// scan empties the table and scans the build relation into it — through
// its whole access path, or over one page range of its heap for a lane of a
// parallel build — and returns the number of rows scanned. A row with a
// NULL key column equals no probe key and stays out of the table, but
// counts as built.
// Scan charges land on the build's runtime's meter; the build itself is
// charged once, by chargeBuild. The scan runs in a scratch frame that ends
// with the build relation's stretch: its key expressions and pushed filters
// read no other, and the table keeps the stretch's output columns.
func (b *hashBuild) scan(outer rowStack, pages *[2]int) (int64, error) {
	b.ht.reset()
	b.be.reset(outer)
	b.be.setRow(b.row)
	if framePoison != nil {
		framePoison(b.row)
	}
	b.n = 0
	err := runAccess(b.be, b.s.rel, b.s.access, nil, pages, b.add)
	return b.n, err
}

// addRow adds the scan's current row to the table.
func (b *hashBuild) addRow() error {
	b.n++
	k, ok, err := joinKey(b.key[:0], b.s.buildKeyFns, b.be.rt, b.be.stack)
	b.key = k
	if err != nil || !ok {
		return err
	}
	b.ht.add(k, b.row[b.s.rel.offset:b.s.rel.outEnd()])
	return nil
}

// joinKey appends the encoded values of a hash join's key expressions to
// dst. It reports false when one of them is NULL: the row joins nothing.
func joinKey(dst []byte, fns []exprFn, rt *runtime, stack rowStack) ([]byte, bool, error) {
	for _, f := range fns {
		v, err := f(rt, stack)
		if err != nil || v.IsNull() {
			return dst, false, err
		}
		dst = val.AppendKey(dst, v)
	}
	return dst, true, nil
}

// chargeBuild charges a finished build of nRows rows: per-row CPU, plus
// spill I/O when the build side exceeds working memory. rowBytes is the full
// row's: the simulated engine builds full rows, whatever the process keeps
// of them (the output columns).
func (s *hashStep) chargeBuild(m *cost.Meter, nRows int64) {
	m.Charge(cost.TupleCPU, nRows)
	buildBytes := float64(nRows) * s.rel.rowBytes
	if buildBytes > workMemBytes {
		// Grace-style partitioning: write and re-read the overflow.
		pages := int64((buildBytes - workMemBytes) / storage.PageSize)
		m.Charge(cost.PageWrite, pages)
		m.Charge(cost.SeqRead, pages)
	}
}

// --- left outer join step ---

// outerStep scans its relation per outer row under the ON condition and
// emits one NULL-extended row when nothing matches.
type outerStep struct {
	rel       *relInfo
	access    accessPath
	onFilters []exprFn
}

func (s *outerStep) bound() *relInfo { return s.rel }

func (s *outerStep) run(be *blockExec, next func() error) error {
	matched := false
	err := runAccess(be, s.rel, s.access, s.onFilters, nil, func() error {
		matched = true
		return next()
	})
	if err != nil {
		return err
	}
	if !matched {
		clear(be.row[s.rel.offset:s.rel.end()]) // the zero Value is NULL
		return next()
	}
	return nil
}

// --- block execution: joins → aggregation → projection → order/limit ---

// exactSumPrec is the mantissa precision of an exactSum's big.Float: wide
// enough (53-bit mantissa + full double exponent span + summand count
// headroom) that adding float64 values never rounds, so the final Float64
// conversion is the correctly-rounded sum regardless of addition order.
const exactSumPrec = 2200

// exactSum accumulates float64 values exactly, with IEEE semantics for the
// values that are not finite. Order-independence is what makes parallel
// partial aggregates byte-identical to the serial result: serial and
// merged-per-partition summation round to the same float64. The finite
// values go into the expansion, which finalize rounds directly; only a
// value the expansion cannot take — it would outgrow expCap, or it lies
// past expGuard — pours the components and itself into a big.Float, made
// the first time. NaN and the infinities are flags, so that the sum does
// not depend on where they came in: any NaN, or +Inf together with −Inf,
// makes the sum NaN; one infinity makes it that infinity.
type exactSum struct {
	exp    floatExp
	big    *big.Float // nil until the expansion overflows
	nan    bool
	posInf bool
	negInf bool
}

// expOverflowHook is nil outside the test binary, which sets it to count
// the sums that leave the expansion for a big.Float.
var expOverflowHook func()

// add folds x into the sum.
func (s *exactSum) add(x float64) {
	switch {
	case math.IsNaN(x):
		s.nan = true
	case math.IsInf(x, 1):
		s.posInf = true
	case math.IsInf(x, -1):
		s.negInf = true
	case !s.exp.add(x):
		b := s.spill()
		b.Add(b, new(big.Float).SetFloat64(x))
	}
}

// spill pours the expansion's components into the big.Float, making it the
// first time, and returns it.
func (s *exactSum) spill() *big.Float {
	if s.big == nil {
		s.big = new(big.Float).SetPrec(exactSumPrec)
		if expOverflowHook != nil {
			expOverflowHook()
		}
	}
	for _, c := range s.exp.comp[:s.exp.n] {
		s.big.Add(s.big, new(big.Float).SetFloat64(c))
	}
	s.exp.n = 0
	return s.big
}

// merge folds another lane's sum into s: its flags, its big.Float and its
// expansion's components.
func (s *exactSum) merge(o *exactSum) {
	s.nan, s.posInf, s.negInf = s.nan || o.nan, s.posInf || o.posInf, s.negInf || o.negInf
	if o.big != nil {
		b := s.spill()
		b.Add(b, o.big)
	}
	for _, c := range o.exp.comp[:o.exp.n] {
		s.add(c)
	}
}

// value returns the sum correctly rounded to float64.
func (s *exactSum) value() float64 {
	switch {
	case s.nan || s.posInf && s.negInf:
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	case s.big == nil:
		return s.exp.round()
	}
	acc := new(big.Float).Copy(s.big)
	for _, c := range s.exp.comp[:s.exp.n] {
		acc.Add(acc, new(big.Float).SetFloat64(c))
	}
	f, _ := acc.Float64()
	return f
}

// aggState accumulates one aggregate of one group. The zero aggState is
// an empty one.
type aggState struct {
	count   int64
	sum     exactSum
	sumInt  int64
	notInt  bool // a SUM/AVG input was not an INTEGER
	nonNull bool
	min     val.Value
	max     val.Value
	// seen threads the values a DISTINCT aggregate has folded in through
	// its accumulator's seen slab, in the order it first saw them: the
	// first and the last as entry+1, 0 while there is none.
	seen [2]int32
}

// seenVal is one value a DISTINCT aggregate has folded in, and the entry+1
// of the next value of the same aggregate and group (0 for none).
type seenVal struct {
	v    val.Value
	next int32
}

// fold adds one non-NULL input value to the aggregate.
func (st *aggState) fold(fn string, v val.Value) {
	st.count++
	st.nonNull = true
	switch fn {
	case "SUM", "AVG":
		if v.K == val.KInt {
			st.sumInt += v.I
		} else {
			st.notInt = true
		}
		st.sum.add(v.AsFloat())
	case "MIN":
		if st.min.IsNull() || val.Compare(v, st.min) < 0 {
			st.min = v
		}
	case "MAX":
		if st.max.IsNull() || val.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

// merge folds another lane's state for the same group of a non-DISTINCT
// aggregate into st. Every combining operation here is order-independent
// (exact sums, min/max, counts), so merging partitions in any order matches
// serial accumulation.
func (st *aggState) merge(o *aggState) {
	st.count += o.count
	st.nonNull = st.nonNull || o.nonNull
	st.sumInt += o.sumInt
	st.notInt = st.notInt || o.notInt
	st.sum.merge(&o.sum)
	if !o.min.IsNull() && (st.min.IsNull() || val.Compare(o.min, st.min) < 0) {
		st.min = o.min
	}
	if !o.max.IsNull() && (st.max.IsNull() || val.Compare(o.max, st.max) > 0) {
		st.max = o.max
	}
}

func (st *aggState) result(spec aggSpec) val.Value {
	switch spec.fn {
	case "COUNT":
		return val.Int(st.count)
	case "SUM":
		if !st.nonNull {
			return val.Null
		}
		if !st.notInt {
			return val.Int(st.sumInt)
		}
		return val.Float(st.sum.value())
	case "AVG":
		if st.count == 0 {
			return val.Null
		}
		return val.Float(st.sum.value() / float64(st.count))
	case "MIN":
		return st.min
	case "MAX":
		return st.max
	}
	return val.Null
}

// outRow is one projected output row plus its ORDER BY keys. sortKey is
// the keys' precomputed order-preserving byte encoding, built once per
// row at finish so the sort comparator is a bytes.Compare instead of a
// per-comparison val.Compare walk over the key columns.
type outRow struct {
	proj    []val.Value
	keys    []val.Value
	sortKey []byte
}

// projectInto evaluates the plan's projections (and ORDER BY keys, when
// the plan sorts) over one output frame into r's pre-sized slices. Lanes
// call this with their own runtime so projection CPU lands on their meter.
func (p *selectPlan) projectInto(rt *runtime, frame rowStack, r outRow) error {
	for i, f := range p.projections {
		v, err := f(rt, frame)
		if err != nil {
			return err
		}
		r.proj[i] = v
	}
	for i, kf := range p.orderKeys {
		v, err := kf(rt, frame)
		if err != nil {
			return err
		}
		r.keys[i] = v
	}
	return nil
}

// outputSink is the output phase of a block — DISTINCT dedup, ORDER BY
// collection, LIMIT, emission — and holds what a drained block leaves at
// the finalization boundary (selectPlan.drain) until finish. In parallel plans
// the workers project rows and the coordinator feeds them through add in
// partition order (merge), so the emitted sequence is identical to a serial
// scan of the concatenated partitions.
type outputSink struct {
	p       *selectPlan
	m       *cost.Meter
	sc      *scratch // what the ORDER BY buffer and sort keys are cut from
	emit    func([]val.Value) error
	acc     *aggAccum     // aggregate plans: the drained groups, un-finalized
	rows    []outRow      // ORDER BY buffer
	dedup   *distinctRows // SELECT DISTINCT only
	emitted int
	// runs > 1 marks the rows as that many pre-sorted partition runs
	// (each worker charged its partial sort): finish charges a k-way
	// merge instead of a full sort.
	runs int
	// groupRows is the free tail of the slab finalizeGroups sizes for every
	// group's output row; addFrame cuts the rows from it. Not a val.Chunks:
	// it is a window on the accumulator's outSlab, which owns the values.
	groupRows []val.Value
	// kept is a materialized correlated block's rows (materialize).
	kept *subRows
}

// distinctRows is the rows SELECT DISTINCT has let through so far, and the
// buffer a row is encoded in to be looked up among them.
type distinctRows struct {
	keys val.KeyTable
	buf  []byte
}

func newOutputSink(p *selectPlan, rt *runtime, emit func([]val.Value) error) *outputSink {
	o := &outputSink{p: p}
	o.reset(rt, emit)
	return o
}

// reset readies the sink for another execution under rt: nothing collected,
// nothing emitted. The ORDER BY buffer's array, the DISTINCT set's table and
// the kept rows' chunks stay — emptied, the kept rows by materialize: only a
// block that runs again before the statement ends — a correlated sub-block —
// still has them (blockRun.drop).
func (o *outputSink) reset(rt *runtime, emit func([]val.Value) error) {
	*o = outputSink{p: o.p, m: rt.meter(), sc: rt.sc, emit: emit, rows: o.rows[:0], dedup: o.dedup, kept: o.kept}
	switch {
	case !o.p.distinct:
	case o.dedup == nil:
		o.dedup = new(distinctRows)
	default:
		o.dedup.keys.Reset()
	}
}

// addFrame projects one finalized group frame into the next output row of
// the group slab and adds it.
func (o *outputSink) addFrame(rt *runtime, frame rowStack) error {
	p := o.p
	nProj, nKeys := len(p.projections), len(p.orderKeys)
	r := outRow{proj: o.groupRows[:nProj:nProj]}
	if nKeys > 0 {
		r.keys = o.groupRows[nProj : nProj+nKeys : nProj+nKeys]
	}
	o.groupRows = o.groupRows[nProj+nKeys:]
	if err := p.projectInto(rt, frame, r); err != nil {
		return err
	}
	return o.add(r)
}

// add routes one projected row through distinct / sort / limit. It returns
// errStopIteration once LIMIT is satisfied on an unsorted plan.
func (o *outputSink) add(r outRow) error {
	p := o.p
	if d := o.dedup; d != nil {
		d.buf = d.buf[:0]
		for _, v := range r.proj {
			d.buf = val.AppendKey(d.buf, v)
		}
		if _, isNew := d.keys.Insert(d.buf); !isNew {
			return nil
		}
		o.m.Charge(cost.TupleCPU, 1)
	}
	if len(p.orderKeys) > 0 {
		o.rows = o.sc.appendRow(o.rows, r)
		return nil
	}
	if p.limit >= 0 && o.emitted >= p.limit {
		return errStopIteration
	}
	o.emitted++
	if err := o.emit(r.proj); err != nil {
		return err
	}
	if p.limit >= 0 && o.emitted >= p.limit {
		return errStopIteration
	}
	return nil
}

// merge folds drained runs into the sink in order: the lanes of a parallel
// block, or the shards' partials of one statement (MergePartials). Group
// accumulators merge into the first run's, charging a k-way merge of n rows —
// the input rows the lanes grouped, or, byGroups, the groups the shards
// shipped; projected rows go through add, so DISTINCT and LIMIT see them in
// run order.
func (o *outputSink) merge(runs []Partial, byGroups bool) error {
	o.runs = len(runs)
	acc := runs[0].acc
	if acc == nil {
		for _, run := range runs {
			for _, r := range run.rows {
				if err := o.add(r); err != nil {
					if err == errStopIteration {
						return nil
					}
					return err
				}
			}
		}
		return nil
	}
	var n int64
	for _, run := range runs {
		if byGroups {
			n += run.ShipRows()
		} else {
			n += run.acc.nInput
		}
	}
	for _, run := range runs[1:] {
		acc.merge(run.acc)
	}
	cost.ChargeComparisons(o.m, n, int64(len(runs))) // a streaming merge: no I/O
	o.acc = acc
	return nil
}

// finish is a block's output phase: a drained aggregate plan's groups go
// through HAVING and projection, and a sorting plan's rows are sorted,
// limited and emitted.
func (o *outputSink) finish(rt *runtime, outer rowStack) error {
	p := o.p
	if o.acc != nil {
		if err := p.finalizeGroups(rt, o.acc, outer, o); err != nil && err != errStopIteration {
			return err
		}
	}
	if len(p.orderKeys) == 0 {
		return nil
	}
	if o.runs > 1 {
		cost.ChargeComparisons(o.m, int64(len(o.rows)), int64(o.runs)) // a streaming merge: no I/O
	} else {
		chargeSort(o.m, int64(len(o.rows)), int64(len(p.projections)+len(p.orderKeys))*24)
	}
	// The sort keys go into buffers cut from the scratch, each sized for
	// the rows left at the longest key so far (16 bytes before the first).
	// A key that outgrows its buffer moves to an array of its own, which
	// holds the same bytes.
	var keys []byte
	width := 16
	for i := range o.rows {
		if cap(keys)-len(keys) < width {
			keys = o.sc.sortKeys(width * (len(o.rows) - i))
		}
		start := len(keys)
		keys = p.sortKeyOf(o.rows[i].keys, keys)
		width = max(width, len(keys)-start)
		o.rows[i].sortKey = keys[start:]
	}
	sort.SliceStable(o.rows, func(i, j int) bool {
		return bytes.Compare(o.rows[i].sortKey, o.rows[j].sortKey) < 0
	})
	n := len(o.rows)
	if p.limit >= 0 && p.limit < n {
		n = p.limit
	}
	for i := 0; i < n; i++ {
		if err := o.emit(o.rows[i].proj); err != nil {
			if err == errStopIteration {
				return nil
			}
			return err
		}
	}
	return nil
}

// sortKeyOf appends the composite sort key for one row's ORDER BY values
// to dst. Each segment is val.AppendKey's order-preserving encoding;
// descending segments are byte-inverted, which reverses exactly that
// segment's order because the encoding is per-segment prefix-free. CHAR
// values right-trim their padding first — val.Compare treats trailing
// spaces as insignificant, and the byte encoding must agree or padded
// equals would order (unstably) by their pad bytes.
func (p *selectPlan) sortKeyOf(keys []val.Value, dst []byte) []byte {
	for k, v := range keys {
		if v.K == val.KStr {
			v = val.Str(strings.TrimRight(v.S, " "))
		}
		start := len(dst)
		dst = val.AppendKey(dst, v)
		if p.orderDesc[k] {
			for i := start; i < len(dst); i++ {
				dst[i] = ^dst[i]
			}
		}
	}
	return dst
}

// run executes the block, calling emit for every output row (a reused
// buffer is not used: emitted rows are safe to retain only if copied; the
// engine's own callers copy): it drains the block, then finishes its output.
func (p *selectPlan) run(rt *runtime, outer rowStack, emit func([]val.Value) error) error {
	var lanes outputSink
	o := &lanes
	br, err := p.drain(rt, outer, emit, o)
	if br != nil {
		defer br.release()
		o = br.sink
	}
	if err != nil {
		return err
	}
	return p.finish(rt, outer, o)
}

// finish is the output phase of a drained block, on its output span.
func (p *selectPlan) finish(rt *runtime, outer rowStack, o *outputSink) error {
	if pp := rt.planProf(p); pp != nil {
		m := rt.meter()
		defer m.SetSpan(m.SetSpan(pp.output))
	}
	return o.finish(rt, outer)
}

// materialize runs a correlated block to completion — serially: it never
// runs on parallel lanes (planParallel) — and returns its rows, which its
// sink keeps (outputSink.kept): they are valid until the block runs again
// or the statement ends.
func (p *selectPlan) materialize(rt *runtime, outer rowStack) ([][]val.Value, error) {
	br := rt.acquire(p, outer, nil)
	defer br.release()
	o := br.sink
	if o.kept == nil {
		o.kept = newSubRows()
	}
	o.kept.reset()
	o.emit = o.kept.keep
	if err := br.drainSerial(rt, nil); err != nil {
		return nil, err
	}
	if err := p.finish(rt, outer, o); err != nil {
		return nil, err
	}
	return o.kept.rows, nil
}

// batchCap is the block's batch capacity, derived from the plan. A block
// that can stop early runs a row at a time, so it charges exactly the work
// it uses. A block whose flushes the buffer pool cannot see (planUnobserved)
// takes what backs the fewest frames: rowFirst, or a fixed 64 when a hash
// join follows its lead. Every other block runs on the growing batch, whose
// flush points fix the order in which its stages reach the pool.
func (p *selectPlan) batchCap() int {
	switch {
	case batchCapHook != nil:
		return batchCapHook(p)
	case p.stopsEarly():
		return 1
	case p.unobservedCap != 0:
		return p.unobservedCap
	}
	return batchSize
}

// stopsEarly reports whether the block can stop before its scan ends: a
// correlated block (EXISTS stops it at its first row) or LIMIT without
// ORDER BY.
func (p *selectPlan) stopsEarly() bool {
	return p.correlated || (p.limit >= 0 && len(p.orderKeys) == 0)
}

// batchCapHook is nil outside the test binary. TestUnobservedCapacityChargesAlike
// sets it to run every block at the capacity the growing batch gives it —
// 1 for a block that can stop early, 64 → 1024 for any other — and holds
// each statement's rows, charges and cache counters to those of the derived
// capacity: the proof that planUnobserved's blocks are what it says.
var batchCapHook func(p *selectPlan) int

// blockRun is the run state of one plan block within one runtime: built when
// the block first runs there, reset when it runs again.
type blockRun struct {
	p    *selectPlan
	busy bool // between acquire and release
	be   *blockExec
	v    *vecRun
	sink *outputSink
	add  func(outRow) error // sink.add, bound once
}

// acquire returns p's run state in rt, readied for an execution under the
// given outer frames. A block that is entered while it is still running
// gets fresh state of its own instead of the busy one.
func (rt *runtime) acquire(p *selectPlan, outer rowStack, emit func([]val.Value) error) *blockRun {
	var br *blockRun
	for _, r := range rt.runs {
		if r.p == p {
			br = r
			break
		}
	}
	if br == nil || br.busy {
		be := newBlockExec(rt, outer)
		fresh := &blockRun{p: p, be: be, v: newVecRun(p, be, p.batchCap()), sink: newOutputSink(p, rt, emit)}
		fresh.add = fresh.sink.add
		if br == nil {
			rt.runs = append(rt.runs, fresh)
		}
		fresh.busy = true
		return fresh
	}
	br.busy = true
	br.be.reset(outer)
	br.v.reset(p.batchCap())
	br.sink.reset(rt, emit)
	return br
}

// release ends an execution. A correlated block runs again for the next
// outer row, so it keeps its frames, hash builds, accumulator and kept rows
// until the statement ends (runtime.done); any other block is done and
// drops what its rows sized at once.
func (br *blockRun) release() {
	br.busy = false
	if !br.p.correlated {
		br.drop()
	}
}

// drop lets go of everything the block's executions sized by their rows,
// and of the caller's frames and emit function.
func (br *blockRun) drop() {
	br.be.drop()
	br.v.drop()
	*br.sink = outputSink{p: br.p}
}

// drain runs the block up to its finalization boundary — as parallel lanes
// merged on the coordinator, or serially — and leaves the output in a sink:
// an aggregate plan's groups in acc, a sorting plan's projected rows,
// unsorted, in rows; any other plan has emitted its rows. QueryPartial stops
// here; run goes on to the sink's finish. A serial drain returns the block's
// run state, whose sink holds the output and which the caller releases once
// that sink is finished. Parallel lanes merge into *lanes and return none:
// the caller keeps that sink on its stack until it is finished, so the split
// costs an execution no allocation.
func (p *selectPlan) drain(rt *runtime, outer rowStack, emit func([]val.Value) error, lanes *outputSink) (*blockRun, error) {
	var hashes []*hashTable
	if p.parallel >= 2 && rt.m == nil {
		merged, shared, err := p.runParallel(rt, outer, lanes, emit)
		if merged || err != nil {
			return nil, err
		}
		hashes = shared
	}
	br := rt.acquire(p, outer, emit)
	return br, br.drainSerial(rt, hashes)
}

// drainSerial is the single-goroutine pipeline. hashes, when non-nil, holds
// hash tables pre-built by a parallel build.
func (br *blockRun) drainSerial(rt *runtime, hashes []*hashTable) error {
	p, be, v := br.p, br.be, br.v
	be.hashes = hashes
	be.prof = rt.planProf(p)
	be.fb = rt.fbFor(p)
	if p.agg == nil {
		// The sink copies what it emits, so the slab is recycled unless
		// ORDER BY retains the rows.
		if err := v.project(br.add, len(p.orderKeys) == 0); err != nil && err != errStopIteration {
			return err
		}
		return nil
	}
	acc, err := v.aggregate()
	if err != nil && err != errStopIteration {
		return err
	}
	// The pipeline is drained; the grouping sort is the output phase's.
	m := rt.meter()
	if be.prof != nil {
		defer m.SetSpan(m.SetSpan(be.prof.output))
	}
	// The engine's grouping is pipelined sort-group (sort, then aggregate
	// while streaming): sort the input once, no intermediate
	// materialization — the paper's point of contrast with SAP R/3's
	// two-phase materialized grouping (Section 4.2).
	chargeSort(m, acc.nInput, 48)
	br.sink.acc = acc
	return nil
}

// aggAccum accumulates grouped aggregate state for one lane of execution.
// Serial runs use a single accumulator; parallel workers each fill their
// own, and the coordinator merges them in partition order so first-seen
// group order matches a serial scan of the concatenated partitions. The
// key table numbers the groups in first-seen order; a group's key values
// and aggregate states are the rows of two slabs under its number. An
// accumulator is its scratch's (scratch.accum) and goes back to it when the
// statement ends, emptied but keeping its tables, slabs and rows for the
// groups of the statement that takes it next.
type aggAccum struct {
	p      *selectPlan
	groups val.KeyTable
	keys   rowSlab[val.Value]
	accs   rowSlab[aggState]
	dist   *distinctVals // DISTINCT aggregates only
	nInput int64
	// Scratch reused across every input row: the encoded key and the values
	// of the row's group.
	keyBuf []byte
	vals   []val.Value
	// What finalizeGroups cuts every group's output row from, the most of
	// it a statement has used, and the row and frame it finalizes each group
	// in. outSlab is not a val.Chunks: it is one slab sized for all the
	// groups at once and filled again from its start each time the block
	// runs, and the accumulator, being its scratch's, keeps it for the next
	// statement.
	outSlab []val.Value
	outN    int
	aggRow  []val.Value
	frame   rowStack
}

// distinctVals is the values the DISTINCT aggregates of an accumulator have
// folded in: one key table of (aggregate, group, value) keys for all of
// them, whose entries number the values in the seen slab.
type distinctVals struct {
	keys val.KeyTable
	seen rowSlab[seenVal]
}

func newAggAccum(p *selectPlan) *aggAccum {
	a := new(aggAccum)
	a.start(p)
	return a
}

// start readies an empty accumulator for p's groups.
func (a *aggAccum) start(p *selectPlan) {
	a.p = p
	a.keys.width, a.accs.width = len(p.agg.groupFns), len(p.agg.specs)
	a.vals = slices.Grow(a.vals[:0], len(p.agg.groupFns))
}

// release empties the accumulator when its statement ends, keeping its key
// tables, slabs and group rows, cleared, for the statement that takes it
// next.
func (a *aggAccum) release() {
	a.reset()
	clear(a.vals[:cap(a.vals)])
	clear(a.outSlab[:a.outN])
	clear(a.aggRow)
	clear(a.frame[:cap(a.frame)])
	a.p, a.outN = nil, 0
	if val.Poison != nil {
		val.Poison(a)
	}
}

// reset empties the accumulator for another execution of its block,
// keeping its tables and slabs.
func (a *aggAccum) reset() {
	a.groups.Reset()
	a.keys.reset()
	a.accs.reset()
	if d := a.dist; d != nil {
		d.keys.Reset()
		d.seen.reset()
	}
	a.nInput = 0
}

// group returns the number and the aggregate states of the group under the
// encoded key. A new key starts a group — isNew — with the key values vals
// and empty states.
func (a *aggAccum) group(key []byte, vals []val.Value) (g int32, accs []aggState, isNew bool) {
	g, isNew = a.groups.Insert(key)
	if !isNew {
		return g, a.accs.row(int(g)), false
	}
	copy(a.keys.add(int(g)), vals)
	return g, a.accs.add(int(g)), true
}

// addRow folds one join-pipeline output row into the accumulator.
func (a *aggAccum) addRow(rt *runtime, stack rowStack) error {
	p := a.p
	a.nInput++
	key := a.keyBuf[:0]
	vals := a.vals[:0]
	for _, gf := range p.agg.groupFns {
		v, err := gf(rt, stack)
		if err != nil {
			return err
		}
		vals = append(vals, v)
		key = val.AppendKey(key, v)
	}
	a.keyBuf = key
	g, accs, _ := a.group(key, vals)
	for i := range p.agg.specs {
		if p.agg.specs[i].arg == nil { // COUNT(*)
			accs[i].count++
			accs[i].nonNull = true
			continue
		}
		v, err := p.agg.specs[i].arg(rt, stack)
		if err != nil {
			return err
		}
		a.add(accs, g, i, v)
	}
	return nil
}

// add folds input value v into aggregate i of group g, whose states are
// accs: a NULL not at all, and a DISTINCT aggregate's value only the first
// time the group meets it — its key is encoded into keyBuf, whose group
// key has been looked up by now.
func (a *aggAccum) add(accs []aggState, g int32, i int, v val.Value) {
	if v.IsNull() {
		return
	}
	spec, st := &a.p.agg.specs[i], &accs[i]
	if spec.distinct {
		d := a.dist
		if d == nil {
			d = &distinctVals{seen: rowSlab[seenVal]{width: 1}}
			a.dist = d
		}
		a.keyBuf = binary.AppendUvarint(a.keyBuf[:0], uint64(g)*uint64(len(a.p.agg.specs))+uint64(i))
		a.keyBuf = val.AppendKey(a.keyBuf, v)
		e, isNew := d.keys.Insert(a.keyBuf)
		if !isNew {
			return
		}
		d.seen.add(int(e))[0].v = v
		if st.seen[1] == 0 {
			st.seen[0] = e + 1
		} else {
			d.seen.row(int(st.seen[1] - 1))[0].next = e + 1
		}
		st.seen[1] = e + 1
	}
	st.fold(spec.fn, v)
}

// merge folds a later partition's groups into a, keeping a's first-seen
// order and appending groups new to a in o's first-seen order.
func (a *aggAccum) merge(o *aggAccum) {
	a.nInput += o.nInput
	for e := 0; e < o.groups.Len(); e++ {
		g, accs, isNew := a.group(o.groups.Key(int32(e)), o.keys.row(e))
		from := o.accs.row(e)
		for i := range a.p.agg.specs {
			switch {
			case a.p.agg.specs[i].distinct:
				// Re-add the other lane's values so that cross-lane
				// duplicates are dropped exactly once.
				for d := from[i].seen[0]; d != 0; {
					sv := o.dist.seen.row(int(d - 1))[0]
					a.add(accs, g, i, sv.v)
					d = sv.next
				}
			case isNew:
				accs[i] = from[i]
			default:
				accs[i].merge(&from[i])
			}
		}
	}
}

// finalizeGroups runs the accumulated groups through HAVING into the sink.
// The drain charged the grouping sort (full sort when serial, partial sorts
// + merge when parallel).
func (p *selectPlan) finalizeGroups(rt *runtime, a *aggAccum, outer rowStack, sink *outputSink) error {
	m := rt.meter()

	// A query with aggregates but no GROUP BY yields exactly one row,
	// even over empty input: the group of the empty key.
	if len(p.agg.groupFns) == 0 {
		a.group(nil, nil)
	}

	// Every group is finalized in the same row and frame: the sink projects
	// a frame into a row of its own, cut from one slab for all the groups.
	// Row, frame and slab stay with the accumulator for the block's next
	// execution and, the accumulator being its scratch's, for the next
	// statement's groups.
	n := a.groups.Len() * (len(p.projections) + len(p.orderKeys))
	if n > len(a.outSlab) {
		a.outSlab = make([]val.Value, n)
	}
	a.outN = max(a.outN, n)
	sink.groupRows = a.outSlab[:n]
	nKeys := len(p.agg.groupFns)
	if w := nKeys + len(p.agg.specs); len(a.aggRow) != w {
		a.aggRow = slices.Grow(a.aggRow[:0], w)[:w]
	}
	aggRow := a.aggRow
	frame := append(append(a.frame[:0], outer...), aggRow)
	a.frame = frame
	for e := 0; e < a.groups.Len(); e++ {
		copy(aggRow, a.keys.row(e))
		accs := a.accs.row(e)
		for i, spec := range p.agg.specs {
			aggRow[nKeys+i] = accs[i].result(spec)
		}
		if p.havingFn != nil {
			hv, err := p.havingFn(rt, frame)
			if err != nil {
				return err
			}
			if hv.IsNull() || !hv.IsTrue() {
				continue
			}
		}
		m.Charge(cost.TupleCPU, 1)
		if err := sink.addFrame(rt, frame); err != nil {
			return err
		}
	}
	return nil
}

// chargeSort charges an n·log n comparison sort plus external-merge I/O
// when the data exceeds working memory.
func chargeSort(m *cost.Meter, n int64, rowBytes int64) {
	cost.ChargeComparisons(m, n, n)
	total := n * rowBytes
	if total > workMemBytes {
		pages := total / storage.PageSize
		m.Charge(cost.PageWrite, pages)
		m.Charge(cost.SeqRead, pages)
	}
}
