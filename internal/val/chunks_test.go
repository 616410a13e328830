package val

import (
	"testing"
	"unsafe"
)

// TestChunksGrowth checks the growth rule through Reset's count: the first
// chunk holds max(n, First), each later one max(n, min(2 × the last one,
// Max)), and the chunks a reset kept are cut again first.
func TestChunksGrowth(t *testing.T) {
	l := Chunks[int64]{Max: ChunkMax}
	l.Cut(3)
	l.Cut(1) // a chunk of 6
	if n := l.Reset(); n != 3+1 {
		t.Fatalf("Reset = %d, want 4", n)
	}
	l.Cut(3)
	l.Cut(6)
	l.Cut(1) // a chunk of 12
	if n := l.Reset(); n != 3+6+1 {
		t.Fatalf("Reset = %d, want 10", n)
	}
	l = Chunks[int64]{First: 100, Max: ChunkMax}
	l.Cut(1000)
	l.Cut(1000) // a chunk of ChunkMax
	l.Cut(30)   // another
	if n := l.Reset(); n != 1000+ChunkMax+30 {
		t.Fatalf("Reset = %d, want %d", n, 1000+ChunkMax+30)
	}
	l = Chunks[int64]{First: 100}
	l.Cut(1)
	if n := l.Reset(); n != 1 {
		t.Fatalf("Reset = %d, want 1", n)
	}
	l.Cut(100)
	l.Cut(1) // the first chunk holds First
	if n := l.Reset(); n != 100+1 {
		t.Fatalf("Reset = %d, want 101", n)
	}
	l = Chunks[int64]{First: 100}
	l.Cut(100)
	l.Cut(2) // with Max 0, a chunk of exactly 2
	l.Cut(3) // and of 3
	if n := l.Reset(); n != 100+2+3 {
		t.Fatalf("Reset = %d, want 105", n)
	}
}

// chunkCut is a cut the fuzz model holds, with what was written into it.
type chunkCut struct {
	s    []int64
	want []int64
}

// FuzzChunks runs a sequence of cuts, marks, pops, resets and trims, read
// from its input, on one list, and cuts followed by a trim on a second one,
// against a model of slices of slices: a live cut keeps what was written
// into it, no two live cuts share an element, a cut is as long and as wide
// as asked, and every element a pop or reset releases is cleared and handed
// to Poison exactly once, no element of a live cut ever. An input holds at
// most 512 operations; cuts past 1<<16 elements in all are skipped.
func FuzzChunks(f *testing.F) {
	f.Add([]byte{0, 0, 3, 2, 0, 5, 1, 9, 3, 0, 0, 250, 4, 5, 5, 0, 1})
	f.Add([]byte{40, 2, 0, 30, 0, 30, 2, 1, 255, 3, 1, 0, 7, 3, 0, 5, 4, 5, 0, 9, 5})
	f.Add([]byte{200, 5, 5, 5, 0, 240, 0, 240, 5, 3, 4, 1, 1, 1, 2, 1, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+2*512 {
			return
		}
		hits := map[*int64]int{}
		Poison = func(released any) {
			s := *released.(*[]int64)
			for i := range s {
				if s[i] != 0 {
					t.Fatalf("released element reads %d, not cleared", s[i])
				}
				hits[&s[i]]++
				s[i] = -1
			}
		}
		defer func() { Poison = nil }()

		l := Chunks[int64]{First: int(data[0]) % 300, Max: int(data[0]) % 7 * 200}
		esc := Chunks[int64]{Max: ChunkMax}
		var live, escaped []chunkCut
		type markAt struct {
			m    Mark
			live int
		}
		var marks []markAt
		next := int64(1)
		cut := func(list *Chunks[int64], n int) chunkCut {
			s := list.Cut(n)
			if len(s) != n || cap(s) != n {
				t.Fatalf("Cut(%d) has len %d, cap %d", n, len(s), cap(s))
			}
			for _, cuts := range [][]chunkCut{live, escaped} {
				for _, c := range cuts {
					if overlap(s, c.s) {
						t.Fatalf("Cut(%d) shares elements with a live cut of %d", n, len(c.s))
					}
				}
			}
			for i := range s {
				s[i] = next
				next++
			}
			return chunkCut{s, append([]int64(nil), s...)}
		}
		check := func(cuts []chunkCut) {
			for _, c := range cuts {
				for i := range c.s {
					if c.s[i] != c.want[i] { // -1 if it was poisoned
						t.Fatalf("a live cut of %d reads %d at %d, was written %d", len(c.s), c.s[i], i, c.want[i])
					}
				}
			}
		}
		// release checks the cuts from the (from)th on, has pop release
		// them, and checks that each element was poisoned once.
		release := func(from int, pop func()) {
			check(live[from:])
			clear(hits)
			pop()
			for _, c := range live[from:] {
				for i := range c.s {
					if hits[&c.s[i]] != 1 {
						t.Fatalf("a released element was poisoned %d times", hits[&c.s[i]])
					}
				}
			}
			live = live[:from]
		}
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			arg := int(data[1])
			switch data[0] % 6 {
			case 0, 1:
				n := arg
				if arg >= 200 {
					n = (arg - 200) * 50
				}
				if next+int64(n) > 1<<16 {
					break
				}
				live = append(live, cut(&l, n))
			case 2:
				marks = append(marks, markAt{l.Mark(), len(live)})
			case 3:
				if len(marks) == 0 {
					continue
				}
				at := marks[arg%len(marks)]
				release(at.live, func() { l.Pop(at.m) })
				marks = marks[:arg%len(marks)+1]
			case 4:
				held := 0
				for _, c := range live {
					held += len(c.s)
				}
				release(0, func() {
					if n := l.Reset(); n < held {
						t.Fatalf("Reset = %d with %d elements cut", n, held)
					}
				})
				marks = marks[:0]
			case 5:
				if len(live) == 0 {
					l.Trim()
					marks = marks[:0]
				}
				if next+int64(arg) > 1<<16 {
					break
				}
				escaped = append(escaped, cut(&esc, arg))
				esc.Trim()
			}
		}
		check(live)
		check(escaped)
	})
}

// overlap reports whether a and b share an element.
func overlap(a, b []int64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	const w = unsafe.Sizeof(int64(0))
	return a0 < b0+uintptr(len(b))*w && b0 < a0+uintptr(len(a))*w
}
