package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"r3bench/internal/val"
)

// poisonKind is a Kind no value has: what TestSlotLayout fills frames with.
const poisonKind = val.Kind(-1)

// checkSlotLayout asserts the layout rule on one planned block. Each
// relation's read columns form one stretch [offset, end) of distinct slots,
// its output columns first ([offset, outEnd)); the stretches follow step
// order, each starting where the previous relation's output columns end, so
// the slots live at a step — the output columns of the relations bound
// before it and the stretch of the relation it binds — are distinct. A
// scan's column set is as wide as the stretch and splits where it does; a
// relation whose every column is an output column has the codec's own column
// set, and one read through that set keeps its catalog layout. Every
// stage's frames hold what the steps so far keep — the lead's whole stretch
// — and what the next step writes into them when it works a frame at a time.
func checkSlotLayout(t *testing.T, p *selectPlan) {
	t.Helper()
	plan := strings.ReplaceAll(strings.TrimSpace(p.explainString()), "\n", "; ")
	next, wide, rels := 0, 0, 0
	for i, st := range p.steps {
		rel := st.bound()
		if rel == nil {
			continue
		}
		rels++
		if rel.offset != next {
			t.Errorf("plan [%s]: step %d binds %s at slot %d, the output columns before it end at %d", plan, i, rel.alias, rel.offset, next)
		}
		if rel.out < 0 || rel.out > rel.width {
			t.Errorf("plan [%s]: %s has %d output columns of %d", plan, rel.alias, rel.out, rel.width)
		}
		seen := make(map[int32]bool)
		for c, slot := range rel.slots {
			switch {
			case slot < 0: // never read: in no frame
			case int(slot) < rel.offset || int(slot) >= rel.end() || seen[slot]:
				t.Errorf("plan [%s]: %s column %d has slot %d, outside its stretch [%d, %d) or taken", plan, rel.alias, c, slot, rel.offset, rel.end())
			default:
				seen[slot] = true
			}
		}
		if len(seen) != rel.width {
			t.Errorf("plan [%s]: %s is %d wide for %d columns read", plan, rel.alias, rel.width, len(seen))
		}
		if rel.table != nil {
			cols := rel.cols
			if cols.Len() != rel.width || cols.OutOnly() > rel.out {
				t.Errorf("plan [%s]: a scan of %s decodes %d columns, %d output-only, into %d slots with %d output columns",
					plan, rel.alias, cols.Len(), cols.OutOnly(), rel.width, rel.out)
			}
			all := cols == rel.table.Heap.Codec().AllCols()
			if full := rel.width == len(rel.slots) && rel.out == rel.width; full && !all {
				t.Errorf("plan [%s]: every column of %s is an output column, yet it is not read through the codec's own column set", plan, rel.alias)
			}
			for c, slot := range rel.slots {
				if all && int(slot) != rel.offset+c {
					t.Errorf("plan [%s]: %s keeps its catalog layout, yet column %d is slot %d", plan, rel.alias, c, slot)
				}
			}
		}
		next, wide = rel.outEnd(), max(wide, rel.end())
	}
	aliases := make(map[string]bool)
	for _, e := range p.layout {
		aliases[e.table] = true
	}
	if rels != len(aliases) || wide != p.nSlots {
		t.Errorf("plan [%s]: steps bind %d relations over %d slots, the block has %d over %d", plan, rels, wide, len(aliases), p.nSlots)
	}
	// An ON clause runs at its outer-joined relation's step, which pins the
	// steps to FROM order: a column it reads of a relation bound before is
	// an output column of that relation.
	var bound []*relInfo
	for _, st := range p.steps {
		if rel := st.bound(); rel != nil {
			bound = append(bound, rel)
		}
	}
	for home, rel := range bound {
		for _, cj := range rel.onConjs {
			if !cj.isJoin {
				continue
			}
			for _, rc := range [...][2]int{{cj.relA, cj.colA}, {cj.relB, cj.colB}} {
				if r := bound[rc[0]]; rc[0] != home && int(r.slots[rc[1]]) >= r.outEnd() {
					t.Errorf("plan [%s]: the ON clause of %s reads %s column %d, not an output column", plan, rel.alias, r.alias, rc[1])
				}
			}
		}
	}

	v := newVecRun(p, nil, 1)
	kept := 0
	for i, st := range p.steps {
		if rel := st.bound(); rel != nil {
			kept = rel.outEnd()
			if i == 0 {
				kept = rel.end()
			}
		}
		want := kept
		for _, after := range p.steps[i+1:] {
			if rel := after.bound(); rel != nil {
				if _, frameAtATime := after.(rowStepper); frameAtATime {
					want = max(want, rel.end())
				}
				break
			}
		}
		if got := v.stages[i].hi; got != want {
			t.Errorf("plan [%s]: stage %d frames are %d wide, want %d", plan, i, got, want)
		}
	}
}

// layoutWatch installs the two test hooks for TestSlotLayout: every block
// planned while it is installed is checked (checkSlotLayout) and has every
// reader of its frames wrapped (live); with poison switched on, every frame
// is filled with the poison value as it is handed out, and a wrapped reader
// runs with the slots not live at its step poisoned.
type layoutWatch struct {
	t      *testing.T
	blocks int
	leaks  atomic.Int64 // lanes evaluate wrapped readers too
}

// slotSpans are the slots live for a reader, as half-open ranges.
type slotSpans [][2]int

func (sp slotSpans) has(slot int) bool {
	for _, r := range sp {
		if slot >= r[0] && slot < r[1] {
			return true
		}
	}
	return false
}

func watchLayout(t *testing.T) *layoutWatch {
	w := &layoutWatch{t: t}
	planned = func(p *selectPlan) {
		w.blocks++
		checkSlotLayout(t, p)
		w.wrapReaders(p)
	}
	t.Cleanup(func() { planned, framePoison = nil, nil })
	return w
}

// wrapReaders wraps every expression of p that reads its frames with the
// slots it may read there. A reader at the step binding relation R may read
// the output columns of the relations bound before (the frame's prefix up to
// R's offset) and — when it runs at R's scan: a pushed or ON filter, a
// nested-loop join's filter, a build key — R's scan columns. A probe key or
// index probe bound reads the prefix alone; a hash join's residual filter
// reads R's output columns too; a later filter and the sink read the output
// columns of every relation bound. An aggregate block's projections, HAVING
// and sort keys read the group row, not a frame: they are only checked for
// the poison value.
func (w *layoutWatch) wrapReaders(p *selectPlan) {
	upTo := 0 // the output columns of the relations bound so far end here
	for i, st := range p.steps {
		rel := st.bound()
		var prefix, scan, residual slotSpans
		if rel != nil {
			outOnly := 0
			if rel.cols != nil {
				outOnly = rel.cols.OutOnly()
			}
			prefix = slotSpans{{0, rel.offset}}
			scan = slotSpans{{0, rel.offset}, {rel.offset + outOnly, rel.end()}}
			residual = slotSpans{{0, rel.outEnd()}}
		}
		at := fmt.Sprintf("step %d", i+1)
		switch st := st.(type) {
		case *scanStep:
			w.wrapAll("scan filter at "+at, st.access.filters, scan)
			w.wrapAll("join filter at "+at, st.extraFilters, scan)
		case *inlStep:
			w.wrapAll("index probe bound at "+at, st.eqFns, prefix)
			w.wrapAll("join filter at "+at, st.filters, scan)
		case *hashStep:
			w.wrapAll("build filter at "+at, st.access.filters, scan)
			w.wrapAll("build key at "+at, st.buildKeyFns, scan)
			w.wrapAll("probe key at "+at, st.probeFns, prefix)
			w.wrapAll("residual filter at "+at, st.filters, residual)
		case *outerStep:
			w.wrapAll("scan filter at "+at, st.access.filters, scan)
			w.wrapAll("ON filter at "+at, st.onFilters, scan)
		case *filterStep:
			w.wrapAll("filter at "+at, st.filters, slotSpans{{0, upTo}})
		}
		if rel != nil {
			upTo = rel.outEnd()
		}
	}
	sink := slotSpans{{0, upTo}}
	if p.agg == nil {
		w.wrapAll("projection", p.projections, sink)
		w.wrapAll("sort key", p.orderKeys, sink)
		return
	}
	w.wrapAll("group key", p.agg.groupFns, sink)
	for i := range p.agg.specs {
		if arg := &p.agg.specs[i].arg; *arg != nil {
			*arg = w.wrap("aggregate argument", *arg, sink)
		}
	}
	w.wrapAll("projection", p.projections, nil)
	w.wrapAll("sort key", p.orderKeys, nil)
}

// poison switches the filling of handed-out frames on or off.
func (w *layoutWatch) poison(on bool) {
	framePoison = nil
	if on {
		framePoison = func(frame []val.Value) {
			for i := range frame {
				frame[i] = val.Value{K: poisonKind}
			}
		}
	}
}

func (w *layoutWatch) wrapAll(what string, fns []exprFn, live slotSpans) {
	for i, fn := range fns {
		fns[i] = w.wrap(what, fn, live)
	}
}

// wrap returns fn checked against the slots live where it runs (nil: no
// frame of the block). Under poison it runs twice: first with every other
// slot of the current frame poisoned, then on the frame as it was. A reader
// that returns the poison value, or whose value depends on a slot it may not
// read, is reported.
func (w *layoutWatch) wrap(what string, fn exprFn, live slotSpans) exprFn {
	report := func(format string, args ...any) {
		if w.leaks.Add(1) <= 5 {
			w.t.Errorf(format, args...)
		}
	}
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		if framePoison == nil {
			return fn(rt, rows)
		}
		var saved []val.Value
		f := rows[len(rows)-1]
		if live != nil {
			saved = slices.Clone(f)
			for i := range f {
				if !live.has(i) {
					f[i] = val.Value{K: poisonKind}
				}
			}
		}
		v, err := fn(rt, rows)
		if live == nil || err != nil {
			if v.K == poisonKind {
				report("a %s read a slot nothing had written", what)
			}
			return v, err
		}
		copy(f, saved)
		if v.K == poisonKind {
			report("a %s read a slot nothing had written or not live there (live %v)", what, live)
		} else if u, err := fn(rt, rows); err != nil || val.Compare(u, v) != 0 || u.K != v.K {
			report("a %s depends on a slot not live there (live %v): %v, %v without the poison", what, live, v, u)
		}
		return v, err
	}
}

// checkLayouts runs the statements on s under a layoutWatch: each SELECT
// once with poisoned frames and once without, at parallel degrees 1 and 2.
// The two results must be the same rows and free of the poison value — a
// frame narrower than a slot some step or filter reads panics instead, the
// frames being cut to their width — and no guarded expression may have seen
// it. Statements other than SELECT just run.
func checkLayouts(t *testing.T, s *Session, stmts []string) {
	t.Helper()
	w := watchLayout(t)
	for _, degree := range []int{1, 2} {
		s.db.SetOptions(Options{Parallel: degree})
		for _, q := range stmts {
			if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(q)), "SELECT") {
				mustExec(t, s, q)
				continue
			}
			w.poison(true)
			poisoned := mustExec(t, s, q).Rows
			w.poison(false)
			for _, r := range poisoned {
				for _, v := range r {
					if v.K == poisonKind {
						t.Fatalf("degree %d, %q: a result row carries the poison value: %v", degree, q, r)
					}
				}
			}
			if encodeRows(poisoned) != encodeRows(mustExec(t, s, q).Rows) {
				t.Errorf("degree %d, %q: poisoned frames changed the result", degree, q)
			}
		}
	}
	t.Logf("%d statements, %d blocks planned and checked", len(stmts), w.blocks)
	if w.blocks < len(stmts) {
		t.Errorf("%d blocks planned for %d statements: the plan hook is not reached", w.blocks, len(stmts))
	}
}

// TestSlotLayout checks the layout rule (checkSlotLayout) on every block of
// the golden file's statements and of the column-pruning cases — sub-blocks
// and views included — and runs them on poisoned frames (checkLayouts). The
// TPC-D half of the test is TestSlotLayoutTPCD.
func TestSlotLayout(t *testing.T) {
	s := vecDB(t, 1500, 0)
	mustExec(t, s, `CREATE VIEW tt_by_grp AS SELECT grp AS g, SUM(v) AS total, COUNT(*) AS n, MAX(id) AS hi FROM tt GROUP BY grp`)
	stmts := append([]string(nil), vecQueries...)
	for _, c := range neededColumnsCases {
		stmts = append(stmts, c.narrow, c.star)
	}
	stmts = append(stmts, `UPDATE tt SET v = v + grp WHERE id < 10`, `DELETE FROM tt WHERE id = 3`)
	checkLayouts(t, s, stmts)
}
