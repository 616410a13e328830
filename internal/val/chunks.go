package val

// Chunks is a list of chunks that slices of T are cut from in order: a
// statement's frames, a correlated block's kept rows, a Result's rows, an
// Open SQL session's fetch stack. A cut never moves; its length and capacity
// are n. Pop and Reset release what was cut — cleared, so the list pins no
// page image, and handed to Poison — and keep the chunks for what follows.
// A cut that fits in no chunk from the current one on opens a new one: the
// first holds max(n, First), each later one max(n, min(2 × the last one,
// Max)). Max is ChunkMax for a list of many small cuts and 0 for one whose
// cuts grow by themselves, which doubling would overshoot. The first four
// chunks are listed inline, so a new list allocates no list of its own.
// The zero Chunks is ready to use; it must not be copied after its first
// cut.
type Chunks[T any] struct {
	chunks     [][]T
	c, used    int // the chunk being cut, and the elements cut from it
	First, Max int
	inline     [4][]T
	released   []T // what Poison is handed a pointer to, boxed without an allocation
}

// ChunkMax is the Max of a list of many small cuts.
const ChunkMax = 1024

// Mark is a position in a Chunks, for Pop.
type Mark struct{ c, used int }

// Poison is nil outside the test binaries. A test sets it to overwrite what
// a store releases — a *[]T a Chunks pops, an engine hash table or
// accumulator emptied for reuse — so that a reader that kept it finds a
// sentinel.
var Poison func(released any)

// Cut returns the next n elements.
func (l *Chunks[T]) Cut(n int) []T {
	for ; l.c < len(l.chunks); l.c, l.used = l.c+1, 0 {
		if ch := l.chunks[l.c]; l.used+n <= len(ch) {
			l.used += n
			return ch[l.used-n : l.used : l.used]
		}
	}
	size := max(n, l.First)
	if len(l.chunks) == 0 {
		l.chunks = l.inline[:0]
	} else {
		size = max(n, min(2*len(l.chunks[len(l.chunks)-1]), l.Max))
	}
	l.chunks = append(l.chunks, make([]T, size))
	l.used = n
	return l.chunks[l.c][:n:n]
}

// Mark returns the current position.
func (l *Chunks[T]) Mark() Mark { return Mark{l.c, l.used} }

// Pop releases everything cut since m.
func (l *Chunks[T]) Pop(m Mark) {
	for i := m.c; i <= l.c && i < len(l.chunks); i++ {
		ch := l.chunks[i]
		if i == l.c {
			ch = ch[:l.used]
		}
		if i == m.c {
			ch = ch[m.used:]
		}
		clear(ch)
		if Poison != nil && len(ch) > 0 {
			l.released = ch
			Poison(&l.released)
			l.released = nil
		}
	}
	l.c, l.used = m.c, m.used
}

// Reset releases everything cut and returns how many elements the chunks
// cut from hold, the tails a cut skipped included.
func (l *Chunks[T]) Reset() int {
	n := l.used
	for _, ch := range l.chunks[:l.c] {
		n += len(ch)
	}
	l.Pop(Mark{})
	return n
}

// Trim lets go of every chunk but the one being cut, without clearing: a
// cut from them stays its holder's, and earlier Marks are void. A list
// whose cuts escape trims after each cut; a stack trims when it is empty.
func (l *Chunks[T]) Trim() {
	if len(l.chunks) > 1 {
		l.chunks[0] = l.chunks[l.c]
		clear(l.chunks[1:])
		l.chunks, l.c = l.chunks[:1], 0
	}
}
