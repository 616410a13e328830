package engine

import (
	"sync/atomic"
	"testing"

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

// PoisonScratch, while on, overwrites everything handed back to a session's
// scratch: values with a Kind no value has, frame headers with a frame of
// them, a hash table's rows, CHARs and chain ends with sentinels.
func PoisonScratch(on bool) {
	scratchPoison = nil
	if !on {
		return
	}
	poisoned := make([]val.Value, 64)
	for i := range poisoned {
		poisoned[i] = val.Value{K: poisonKind}
	}
	scratchPoison = func(handed any) {
		switch h := handed.(type) {
		case []val.Value:
			for i := range h {
				h[i] = val.Value{K: poisonKind}
			}
		case [][]val.Value:
			for i := range h {
				h[i] = poisoned
			}
		case *hashTable:
			poisonTable(h)
			ends := h.ends[:cap(h.ends)]
			for i := range ends {
				ends[i] = [2]int32{-7, -7}
			}
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

// HeapGrowth is heapGrowth for the tests of this package that live outside
// it.
func HeapGrowth(fn func()) int64 { return heapGrowth(fn) }
