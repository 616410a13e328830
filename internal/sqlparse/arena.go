package sqlparse

// Slab arena backing the AST. Nodes are bump-allocated from per-type
// chunk lists so a Parser can be reused (Reset) without churning the
// garbage collector, or hand its chunks to an escaping AST (detach). The
// package-level Parse detaches only an arena sized to the statement
// (sizeLike), so a kept AST holds no spare elements.
// Chunks deliberately are NOT zeroed on reset: stale elements only pin
// memory the arena would reuse anyway (interned idents, other arena
// nodes), never foreign objects.

// slabChunk is the element count of a freshly grown chunk in a reused
// arena. Sized so a TPC-D-class statement needs one, occasionally two,
// chunks per node type, so a warm Parser allocates nothing. A detached
// AST does not use it: its chunks are exactly as long as the statement
// needs, one allocation per node TYPE rather than per node, which is
// where the ≥10× allocs/op win over the old parser comes from.
const slabChunk = 16

// slab is a bump allocator for values of one type. Not a val.Chunks: it is
// not cleared, and Detach gives an escaping AST exact chunks.
type slab[T any] struct {
	chunks [][]T // chunks[:used] hold live allocations; the rest is spare capacity retained by reset
	used   int
	first  [1][]T // chunks' first backing array: a slab that holds one chunk allocates no list
}

// alloc returns n contiguous zero-or-stale elements. The result must be
// fully overwritten by the caller.
func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if s.used > 0 {
		c := s.chunks[s.used-1]
		if m := len(c); m+n <= cap(c) {
			s.chunks[s.used-1] = c[:m+n]
			return c[m : m+n : m+n]
		}
	}
	if s.used < len(s.chunks) && cap(s.chunks[s.used]) >= n {
		s.chunks[s.used] = s.chunks[s.used][:0]
	} else {
		nc := make([]T, 0, max(slabChunk, n))
		if s.used < len(s.chunks) {
			s.chunks[s.used] = nc
		} else {
			if s.chunks == nil {
				s.chunks = s.first[:0]
			}
			s.chunks = append(s.chunks, nc)
		}
	}
	s.used++
	c := s.chunks[s.used-1][:n]
	s.chunks[s.used-1] = c
	return c[:n:n]
}

// reset reclaims every chunk for reuse. Outstanding pointers into the
// slab become invalid (they will be overwritten by later allocs).
func (s *slab[T]) reset() { s.used = 0 }

// detach hands chunk ownership to whatever still points into them (the
// most recent AST); the slab starts over empty. The chunk-list backing
// array itself holds no node memory and is kept.
func (s *slab[T]) detach() {
	clear(s.chunks)
	s.first[0] = nil
	s.chunks = s.chunks[:0]
	s.used = 0
}

// elems counts the elements the slab has handed out since its last reset.
func (s *slab[T]) elems() int {
	n := 0
	for _, c := range s.chunks[:s.used] {
		n += len(c)
	}
	return n
}

// size empties the slab down to one fresh chunk of capacity n, or none
// for n == 0, listed in first: sizing allocates the chunk alone.
func (s *slab[T]) size(n int) {
	s.chunks, s.used = s.first[:0], 0
	if n > 0 {
		s.chunks = append(s.chunks, make([]T, 0, n))
	}
}

// slabber is what an arena does with each slab, whatever its type.
type slabber interface {
	reset()
	detach()
	elems() int
	size(n int)
}

// one allocates a single element holding v.
func one[T any](s *slab[T], v T) *T {
	p := &s.alloc(1)[0]
	*p = v
	return p
}

// scratch builds variable-length lists during recursive descent. Lists
// nest with strict stack discipline (an inner list is marked after and
// taken before the enclosing list's next push), so one scratch per
// element type serves every nesting level.
type scratch[T any] struct {
	buf []T
}

func (s *scratch[T]) mark() int { return len(s.buf) }

func (s *scratch[T]) push(v T) { s.buf = append(s.buf, v) }

// take moves the elements pushed since mark into a, returning nil for
// an empty list — matching the nil slices the old append-from-zero
// parser produced, which the differential DeepEqual relies on.
func (s *scratch[T]) take(m int, a *slab[T]) []T {
	n := len(s.buf) - m
	if n == 0 {
		return nil
	}
	out := a.alloc(n)
	copy(out, s.buf[m:])
	s.buf = s.buf[:m]
	return out
}

func (s *scratch[T]) reset() { s.buf = s.buf[:0] }

// arena aggregates the slabs for every AST node and slice type the
// parser bump-allocates. DDL/DML statement shells (CreateTable, ...)
// are ordinary heap allocations — one object on a cold path each — but
// their interior expression trees and slices come from here.
type arena struct {
	selects  slab[SelectStmt]
	items    slab[SelectItem]
	orders   slab[OrderItem]
	refs     slab[TableRef]
	exprs    slab[Expr]
	whens    slab[When]
	strs     slab[string]
	assigns  slab[Assign]
	rows     slab[[]Expr]
	coldefs  slab[ColDef]
	base     slab[BaseTable]
	joins    slab[Join]
	colrefs  slab[ColumnRef]
	literals slab[Literal]
	params   slab[Param]
	unaries  slab[Unary]
	binaries slab[Binary]
	betweens slab[Between]
	inlists  slab[InList]
	insubs   slab[InSubquery]
	exists   slab[Exists]
	isnulls  slab[IsNull]
	likes    slab[Like]
	funcs    slab[FuncCall]
	cases    slab[CaseExpr]
	scalars  slab[ScalarSubquery]
	inserts  slab[InsertStmt]
	updates  slab[UpdateStmt]
	deletes  slab[DeleteStmt]
}

// slabs lists every slab of a once; reset, detach and exact sizing walk it.
func (a *arena) slabs() [29]slabber {
	return [...]slabber{&a.selects, &a.items, &a.orders, &a.refs, &a.exprs,
		&a.whens, &a.strs, &a.assigns, &a.rows, &a.coldefs, &a.base, &a.joins,
		&a.colrefs, &a.literals, &a.params, &a.unaries, &a.binaries,
		&a.betweens, &a.inlists, &a.insubs, &a.exists, &a.isnulls, &a.likes,
		&a.funcs, &a.cases, &a.scalars, &a.inserts, &a.updates, &a.deletes}
}

func (a *arena) reset() {
	for _, s := range a.slabs() {
		s.reset()
	}
}

func (a *arena) detach() {
	for _, s := range a.slabs() {
		s.detach()
	}
}

// sizeLike gives each slab of a one empty chunk exactly as long as the
// elements the same slab of b holds, so that parsing b's statement again
// into a fills every chunk to the brim.
func (a *arena) sizeLike(b *arena) {
	bs := b.slabs()
	for i, s := range a.slabs() {
		s.size(bs[i].elems())
	}
}
