package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"

	"r3bench/internal/val"
)

// CheckLayouts is checkLayouts for the tests of this package that must live
// outside it (TestSlotLayoutTPCD imports internal/tpcd, which imports this
// package).
func CheckLayouts(t *testing.T, s *Session, stmts []string) { checkLayouts(t, s, stmts) }

// GrowEveryBatch, while on, runs every block at the capacity the growing
// batch gives it: 1 for a block that can stop early, 64 → 1024 for any
// other.
func GrowEveryBatch(on bool) {
	batchCapHook = nil
	if on {
		batchCapHook = func(p *selectPlan) int {
			if p.stopsEarly() {
				return 1
			}
			return batchSize
		}
	}
}

// PlanEveryTime, while on, plans every SELECT afresh, as if no cached plan
// were ever current.
func PlanEveryTime(on bool) { planEveryTime = on }

// WatchCapacities calls fn, until stop is called, with the rule batchCap
// takes the capacity of every block planned from: "stops early",
// "unobserved", "unobserved hash join" or "growing".
func WatchCapacities(fn func(rule string)) (stop func()) {
	planned = func(p *selectPlan) {
		switch {
		case p.stopsEarly():
			fn("stops early")
		case p.unobservedCap == rowFirst:
			fn("unobserved")
		case p.unobservedCap != 0:
			fn("unobserved hash join")
		default:
			fn("growing")
		}
	}
	return func() { planned = nil }
}

// WatchExpOverflows counts, until stop is called, the exact sums that leave
// their expansion for a big.Float.
func WatchExpOverflows() (count func() int64, stop func()) {
	var n atomic.Int64
	expOverflowHook = func() { n.Add(1) }
	return n.Load, func() { expOverflowHook = nil }
}

// PoisonScratch, while on, has val.Poison overwrite everything released:
// values with a Kind no value has, frame headers with a frame of them, an
// accumulator's group keys, states and rows, ORDER BY rows and sort keys
// with sentinels, a hash table's rows, CHARs and chain ends likewise.
func PoisonScratch(on bool) {
	val.Poison = nil
	if on {
		val.Poison = poisonReleased
	}
}

// poisonedFrame is the frame a released frame header is pointed at.
var poisonedFrame = func() []val.Value {
	f := make([]val.Value, 64)
	for i := range f {
		f[i] = val.Value{K: poisonKind}
	}
	return f
}()

// poisonReleased is PoisonScratch's val.Poison. It panics if a chunk list
// hands it elements it has not cleared.
func poisonReleased(released any) {
	poisoned := poisonedFrame
	switch h := released.(type) {
	case *[]val.Value:
		mustBeCleared(*h)
		for i := range *h {
			(*h)[i] = val.Value{K: poisonKind}
		}
	case *[][]val.Value:
		mustBeCleared(*h)
		for i := range *h {
			(*h)[i] = poisoned
		}
	case *aggAccum:
		vals := [][]val.Value{h.vals[:cap(h.vals)], h.outSlab, h.aggRow}
		for _, ch := range h.keys.chunks[:cap(h.keys.chunks)] {
			vals = append(vals, ch[:cap(ch)])
		}
		for _, vs := range vals {
			for i := range vs {
				vs[i] = poisoned[0]
			}
		}
		for _, ch := range h.accs.chunks[:cap(h.accs.chunks)] {
			ch = ch[:cap(ch)]
			for i := range ch {
				ch[i] = aggState{count: -7, sumInt: -7, notInt: true, nonNull: true, min: poisoned[0], max: poisoned[0], seen: [2]int32{-7, -7}}
			}
		}
	case *[]outRow:
		mustBeCleared(*h)
		for i := range *h {
			(*h)[i] = outRow{proj: poisoned, keys: poisoned, sortKey: []byte("POISONED")}
		}
	case *[]byte:
		mustBeCleared(*h)
		for i := range *h {
			(*h)[i] = 0xA5
		}
	case *hashTable:
		poisonTable(h)
		ends := h.ends[:cap(h.ends)]
		for i := range ends {
			ends[i] = [2]int32{-7, -7}
		}
	}
}

// mustBeCleared panics unless every byte of s is zero, as clear leaves it.
func mustBeCleared[T any](s []T) {
	if len(s) == 0 {
		return
	}
	for _, b := range unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))) {
		if b != 0 {
			panic(fmt.Sprintf("a chunk list released %d %T elements without clearing them", len(s), s[0]))
		}
	}
}

// poisonTable overwrites the bytes and the CHARs of every chunk of t's rows,
// those reset emptied included.
func poisonTable(t *hashTable) {
	for _, ch := range t.rows.chunks[:cap(t.rows.chunks)] {
		b := ch.b[:cap(ch.b)]
		for i := range b {
			b[i] = 0xA5
		}
		for i := range ch.strs {
			ch.strs[i] = "POISONED"
		}
	}
}

// ScratchHeld returns what a statement has cut from the session's scratch
// and its lanes' and not handed back — values, frame headers, ORDER BY
// rows, sort-key bytes and accumulators — and the hash tables on their free
// lists that still hold another lane's: all 0 between statements.
func ScratchHeld(s *Session) int {
	ref := s.scratch.Load()
	if ref == nil {
		return 0
	}
	sc := ref.w.Value()
	if sc == nil {
		return 0
	}
	held := 0
	for _, l := range append([]*scratch{sc}, sc.lanes...) {
		for _, m := range []val.Mark{l.vals.Mark(), l.headers.Mark(), l.rows.Mark(), l.keys.Mark()} {
			if m != (val.Mark{}) {
				held++
			}
		}
		held += l.nAccs
		for _, t := range l.tables {
			held += len(t.lent)
		}
	}
	return held
}

// HeapGrowth is heapGrowth for the tests of this package that live outside
// it.
func HeapGrowth(fn func()) int64 { return heapGrowth(fn) }

// AnalyzeReference is Analyze through analyzeTableReference.
func AnalyzeReference(db *DB, tableName string) error {
	t := db.Table(tableName)
	if t == nil {
		return errNoTable(tableName)
	}
	return analyzeTableReference(t)
}

// StatsDump renders a table's statistics, its row count first and then one
// line per column, every value with %#v: a -0 reads "-0", a string quoted.
func StatsDump(db *DB, tableName string) []string {
	st := db.Table(tableName).stats
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := []string{fmt.Sprintf("rows %d analyzed %v", st.RowCount, st.analyzed)}
	for _, cs := range st.Columns {
		out = append(out, fmt.Sprintf("%#v", cs))
	}
	return out
}
