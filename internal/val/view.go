package val

import (
	"strings"
	"unsafe"
)

// view returns b as a string that shares b's storage instead of copying
// it. The caller promises that b is never written again: a string is
// immutable to everyone who holds it, so the bytes under it must be too.
// This is the only place in the module that makes that promise on
// someone's behalf; ColSet.Decode passes it on to its callers.
func view(b []byte) string {
	if len(b) == 0 {
		return "" // pins nothing
	}
	return unsafe.String(&b[0], len(b))
}

// Slab gives values that outlive the bytes they were decoded from storage
// of their own: Own copies a row's string bytes into chunks shared by the
// rows owned before and after it, so keeping n rows costs O(log n + n·row
// bytes/slabChunkMax) allocations instead of one per string. Chunks start
// at the size of the first row and double up to slabChunkMax; a holder of
// one row therefore pins at most that much of its neighbours. Not a Chunks:
// strings are cut from bytes. The zero Slab is ready to use; it must not be
// copied after first use.
type Slab struct {
	chunk strings.Builder // never grown past its capacity: strings cut from it stay put
}

// slabChunkMax bounds a chunk, except for a single row that is larger.
const slabChunkMax = 4096

// Own repoints every string value of row at a copy the slab holds.
func (s *Slab) Own(row []Value) {
	n := 0
	for i := range row {
		if row[i].K == KStr {
			n += len(row[i].S)
		}
	}
	if n == 0 {
		return
	}
	s.reserve(n)
	for i := range row {
		if v := &row[i]; v.K == KStr && len(v.S) > 0 {
			v.S = s.put(v.S)
		}
	}
}

// Copy returns a copy of str the slab holds.
func (s *Slab) Copy(str string) string {
	if len(str) == 0 {
		return ""
	}
	s.reserve(len(str))
	return s.put(str)
}

// reserve makes sure the current chunk has room for n more bytes.
func (s *Slab) reserve(n int) {
	if s.chunk.Cap()-s.chunk.Len() >= n {
		return
	}
	size := max(n, min(2*s.chunk.Cap(), slabChunkMax))
	s.chunk.Reset() // lets go of the full chunk; the strings cut from it keep it
	s.chunk.Grow(size)
}

// put appends str to the current chunk, which has room, and returns the
// appended bytes as a string.
func (s *Slab) put(str string) string {
	at := s.chunk.Len()
	s.chunk.WriteString(str)
	return s.chunk.String()[at:]
}
