package engine

import (
	"math"
	"weak"

	"r3bench/internal/val"
)

// scratch is the memory a session lends its statements: the values every
// batch frame, build scan row and projection slab is cut from, the arrays
// of frame headers, and emptied hash tables. A statement takes it when it
// starts (Session.takeScratch), and what its blocks size by their rows comes
// out of it and goes back into it when the statement ends (runtime.done):
// cleared, so that no page-image view outlives the statement. Between two
// statements the session holds the scratch only weakly, so the next
// statement finds it again unless a collection has run since, and a session
// that sits idle holds nothing its statements sized.
//
// A scratch belongs to one statement at a time, on one goroutine: a run
// without one — a parallel lane, a partial result that outlives its
// statement — makes what it needs on the heap, as every method does on a
// nil scratch.
type scratch struct {
	vals    arena[val.Value]
	headers arena[[]val.Value]
	tables  []*hashTable // emptied, for the next build to take
	ref     *scratchRef
}

// scratchRef is what a session keeps of its scratch between statements: a
// weak pointer, and the most a statement has cut from each arena, so that
// when the scratch has been collected the next one starts with chunks that
// long instead of growing to them again.
type scratchRef struct {
	w             weak.Pointer[scratch]
	vals, headers int
}

// scratchPoison is nil outside the test binary. A test sets it to overwrite
// everything handed back to a scratch — the values and frame headers a
// statement cut, a hash table a block let go of — so that whatever reads
// them afterwards finds a sentinel.
var scratchPoison func(handed any)

// takeScratch lends the session's scratch to a statement that starts. The
// swap empties the slot, so a statement that starts while another holds the
// scratch — nested in it, re-entered from its row sink, running beside it —
// makes a scratch of its own, as one does that finds the last scratch
// collected.
func (s *Session) takeScratch() *scratch {
	last := s.scratch.Swap(nil)
	if last != nil {
		if sc := last.w.Value(); sc != nil {
			return sc
		}
	}
	sc := new(scratch)
	sc.ref = &scratchRef{w: weak.Make(sc)}
	if last != nil {
		sc.vals.first, sc.headers.first = last.vals, last.headers
	}
	return sc
}

// putScratch takes back a scratch its statement has emptied (release).
func (s *Session) putScratch(sc *scratch) { s.scratch.Store(sc.ref) }

// values returns n values cut from the scratch.
func (sc *scratch) values(n int) []val.Value {
	if sc == nil {
		return make([]val.Value, n)
	}
	return sc.vals.cut(n)
}

// frames returns n frame headers cut from the scratch.
func (sc *scratch) frames(n int) [][]val.Value {
	if sc == nil {
		return make([][]val.Value, n)
	}
	return sc.headers.cut(n)
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
// values cleared; the build that takes it next empties it.
func (sc *scratch) putTable(t *hashTable) {
	if tablePoison != nil {
		tablePoison(t)
	}
	if sc == nil {
		return
	}
	for _, ch := range t.rows.chunks[:cap(t.rows.chunks)] {
		clear(ch.strs)
	}
	if scratchPoison != nil {
		scratchPoison(t)
	}
	sc.tables = append(sc.tables, t)
}

// release clears everything the statement cut from the scratch, ready for
// the next one.
func (sc *scratch) release() {
	sc.ref.vals = max(sc.ref.vals, sc.vals.reset())
	sc.ref.headers = max(sc.ref.headers, sc.headers.reset())
}

// arena is what one kind of a statement's slices is cut from: chunks, cut
// in order and reset together. A chunk is as long as the slice that opens
// it, so a statement run again cuts the chunks its last run made in the
// same order, and the first statement of a session allocates what it would
// without the arena; only the first chunk of a scratch that follows a
// collected one is longer, as long as the most a statement cut from its
// predecessor (first).
type arena[T any] struct {
	chunks [][]T
	c      int // the chunk being cut
	used   int // the elements cut from it
	first  int
}

// cut returns the next n elements, starting a chunk when none from the
// current one on has that many left.
func (a *arena[T]) cut(n int) []T {
	for ; a.c < len(a.chunks); a.c, a.used = a.c+1, 0 {
		if ch := a.chunks[a.c]; a.used+n <= len(ch) {
			a.used += n
			return ch[a.used-n : a.used : a.used]
		}
	}
	size := n
	if len(a.chunks) == 0 {
		size = max(n, a.first)
	}
	a.chunks = append(a.chunks, make([]T, size))
	a.used = n
	return a.chunks[a.c][:n:n]
}

// reset clears what was cut and starts again at the first chunk. It
// returns how many elements the chunks it cut from hold, tails left uncut
// included.
func (a *arena[T]) reset() (n int) {
	for i := 0; i <= a.c && i < len(a.chunks); i++ {
		ch := a.chunks[i]
		if i == a.c {
			ch = ch[:a.used]
		}
		n += len(ch)
		clear(ch)
		if scratchPoison != nil {
			scratchPoison(ch)
		}
	}
	a.c, a.used = 0, 0
	return n
}
