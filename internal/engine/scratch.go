package engine

import (
	"math"
	"weak"

	"r3bench/internal/val"
)

// scratch is the memory a session lends its statements: the values every
// batch frame, build scan row and projection slab is cut from, the arrays
// of frame headers, the ORDER BY buffers and sort keys, emptied hash tables
// and grouping accumulators. A statement takes it when it starts
// (Session.takeScratch), and what its blocks size by their rows comes out of
// it and goes back into it when the statement ends (runtime.done): cleared,
// so that no page-image view outlives the statement. Between two statements
// the session holds the scratch only weakly, so the next statement finds it
// again unless a collection has run since, and a session that sits idle
// holds nothing its statements sized.
//
// A scratch belongs to one statement at a time, on one goroutine. A
// parallel run's lanes each take one of their own from it (lane): lane 0
// runs on the statement's goroutine and takes the statement's scratch, lane
// i > 0 its child i, which the scratch keeps and clears with its own. A run
// without one — a partial result that outlives its statement — makes what
// it needs on the heap, as every method does on a nil scratch.
type scratch struct {
	vals    val.Chunks[val.Value]
	headers val.Chunks[[]val.Value]
	rows    val.Chunks[outRow]
	keys    val.Chunks[byte]
	tables  []*hashTable // emptied, for the next build to take
	// accs is every accumulator the scratch has made, each keeping its key
	// table, slabs and group rows; the statement has taken the first nAccs.
	accs  []*aggAccum
	nAccs int
	lanes []*scratch // lanes 1, 2, … of the statement's parallel runs
	ref   *scratchRef
	// firsts is what the collected scratch before this one noted (ref.sizes),
	// which the lanes made later start from.
	firsts []scratchSizes
}

// scratchRef is what a session keeps of its scratch between statements: a
// weak pointer, and the most a statement has cut from the values and frame
// headers of the scratch and of each of its lanes, so that when the scratch
// has been collected the next one starts with chunks that long instead of
// growing to them again. A scratch notes its own statements' only, so the
// chunks follow what the session's statements have cut lately.
type scratchRef struct {
	w     weak.Pointer[scratch]
	sizes []scratchSizes // by lane
}

// scratchSizes is the most a statement has cut from the values and from the
// frame headers of a scratch.
type scratchSizes struct{ vals, headers int }

// takeScratch lends the session's scratch to a statement that starts. The
// swap empties the slot, so a statement that starts while another holds the
// scratch — nested in it, re-entered from its row sink, running beside it —
// makes a scratch of its own, as one does that finds the last scratch
// collected.
func (s *Session) takeScratch() *scratch {
	last := s.scratch.Swap(nil)
	var firsts []scratchSizes
	if last != nil {
		if sc := last.w.Value(); sc != nil {
			return sc
		}
		firsts = last.sizes
	}
	sc := new(scratch)
	laneScratch(sc, firsts, 0)
	sc.ref, sc.firsts = &scratchRef{}, firsts
	sc.ref.w = weak.Make(sc)
	return sc
}

// laneScratch readies sc as the scratch of lane i, its first chunks of
// values and headers as long as the most a statement cut from that lane's
// in the scratch that was collected before (firsts).
func laneScratch(sc *scratch, firsts []scratchSizes, i int) {
	if i < len(firsts) {
		sc.vals.First, sc.headers.First = firsts[i].vals, firsts[i].headers
	}
}

// putScratch takes back a scratch its statement has emptied (release).
func (s *Session) putScratch(sc *scratch) { s.scratch.Store(sc.ref) }

// growLanes readies the scratches of a parallel run's k lanes before they
// start, so that the lanes only read the list. The new ones are made
// together.
func (sc *scratch) growLanes(k int) {
	if sc == nil || len(sc.lanes) >= k-1 {
		return
	}
	have := len(sc.lanes)
	fresh := make([]scratch, k-1-have)
	sc.lanes = append(make([]*scratch, 0, k-1), sc.lanes...)
	for i := range fresh {
		laneScratch(&fresh[i], sc.firsts, have+i+1)
		sc.lanes = append(sc.lanes, &fresh[i])
	}
}

// lane returns the scratch of a parallel run's lane i: the statement's own
// for lane 0, which runs on the statement's goroutine, its child i for any
// other (growLanes).
func (sc *scratch) lane(i int) *scratch {
	if sc == nil || i == 0 {
		return sc
	}
	return sc.lanes[i-1]
}

// values returns n values cut from the scratch.
func (sc *scratch) values(n int) []val.Value {
	if sc == nil {
		return make([]val.Value, n)
	}
	return sc.vals.Cut(n)
}

// frames returns n frame headers cut from the scratch.
func (sc *scratch) frames(n int) [][]val.Value {
	if sc == nil {
		return make([][]val.Value, n)
	}
	return sc.headers.Cut(n)
}

// appendRow appends r to rows, which grow into twice as many cut from the
// scratch when they are full.
func (sc *scratch) appendRow(rows []outRow, r outRow) []outRow {
	if len(rows) == cap(rows) {
		n := max(2*cap(rows), projSlabInitial)
		if sc == nil {
			rows = append(make([]outRow, 0, n), rows...)
		} else {
			rows = append(sc.rows.Cut(n)[:0], rows...)
		}
	}
	return append(rows, r)
}

// sortKeys returns an empty buffer of n bytes cut from the scratch.
func (sc *scratch) sortKeys(n int) []byte {
	if sc == nil {
		return make([]byte, 0, n)
	}
	return sc.keys.Cut(n)[:0]
}

// accum returns an empty grouping accumulator for p: one the scratch made
// for an earlier statement, which keeps its key table, slabs and group rows
// whatever their widths, or a new one.
func (sc *scratch) accum(p *selectPlan) *aggAccum {
	if sc == nil {
		return newAggAccum(p)
	}
	if sc.nAccs == len(sc.accs) {
		sc.accs = append(sc.accs, new(aggAccum))
	}
	a := sc.accs[sc.nAccs]
	sc.nAccs++
	a.start(p)
	return a
}

// table returns an empty hash table for about est build rows, width values
// wide: of the tables handed back, the smallest whose chunks hold that
// many, or else the largest; a new one when none was handed back.
func (sc *scratch) table(width int, est float64) *hashTable {
	if sc == nil || len(sc.tables) == 0 {
		return newHashTable(width)
	}
	want := est * float64(9*width+4)
	pick, best := 0, math.MaxInt
	for i, t := range sc.tables {
		n := t.rows.size()
		if float64(n) < want {
			n = math.MaxInt - n // too short: after every table that holds them, the longest first
		}
		if n < best {
			pick, best = i, n
		}
	}
	t, last := sc.tables[pick], len(sc.tables)-1
	sc.tables[pick], sc.tables[last] = sc.tables[last], nil
	sc.tables = sc.tables[:last]
	t.rows.width, t.rows.stride = width, 9*width+4
	return t
}

// putTable takes back a hash table whose block is done with it, its CHAR
// values cleared; the build that takes it next empties it. A table that
// absorbed other lanes' tables gives them their chunks back, and they go
// back to their lanes.
func (sc *scratch) putTable(t *hashTable) {
	for i := len(t.lent) - 1; i >= 0; i-- { // lent[i] is lane i+1's
		t.rows.disown(len(t.lent[i].rows.chunks))
		sc.lane(i + 1).putTable(t.lent[i])
	}
	clear(t.lent)
	t.lent = t.lent[:0]
	if sc != nil {
		for _, ch := range t.rows.chunks[:cap(t.rows.chunks)] {
			clear(ch.strs)
		}
		sc.tables = append(sc.tables, t)
	}
	if val.Poison != nil {
		val.Poison(t)
	}
}

// putTables takes back the hash tables a parallel build made for a block,
// by step (nil for a step that is no hash join), in step order.
func (sc *scratch) putTables(ts []*hashTable) {
	for _, t := range ts {
		if t != nil {
			sc.putTable(t)
		}
	}
}

// release clears everything the statement cut from the scratch and from its
// lanes' and empties the accumulators it took, ready for the next
// statement.
func (sc *scratch) release() {
	ref := sc.ref
	if n := len(sc.lanes) + 1; len(ref.sizes) < n {
		ref.sizes = append(ref.sizes, make([]scratchSizes, n-len(ref.sizes))...)
	}
	sc.empty(&ref.sizes[0])
	for i, l := range sc.lanes {
		l.empty(&ref.sizes[i+1])
	}
}

// empty clears one scratch's chunk lists, noting in z the most its values
// and headers held, and empties its accumulators.
func (sc *scratch) empty(z *scratchSizes) {
	for _, a := range sc.accs[:sc.nAccs] {
		a.release()
	}
	sc.nAccs = 0
	z.vals = max(z.vals, sc.vals.Reset())
	z.headers = max(z.headers, sc.headers.Reset())
	sc.rows.Reset()
	sc.keys.Reset()
}
