package engine

import (
	"strings"
	"sync/atomic"
	"testing"

	"r3bench/internal/val"
)

// poisonKind is a Kind no value has: what TestSlotLayout fills frames with.
const poisonKind = val.Kind(-1)

// checkSlotLayout asserts the layout rule on one planned block: the slot
// table is a bijection between the (relation, column) pairs read and
// [0, nSlots), each relation's read columns form one stretch in column
// order, the stretches follow step order, a relation read in full keeps its
// catalog layout, and every stage's frames hold what the steps so far have
// bound — and what the next step writes into them, when it works a frame at
// a time.
func checkSlotLayout(t *testing.T, p *selectPlan) {
	t.Helper()
	plan := strings.ReplaceAll(strings.TrimSpace(p.explainString()), "\n", "; ")
	next, rels := 0, 0
	for i, st := range p.steps {
		rel := st.bound()
		if rel == nil {
			continue
		}
		rels++
		if rel.offset != next {
			t.Errorf("plan [%s]: step %d binds %s at slot %d, the steps before it end at %d", plan, i, rel.alias, rel.offset, next)
		}
		for c, slot := range rel.slots {
			switch {
			case slot < 0: // never read: in no frame
			case int(slot) != next:
				t.Errorf("plan [%s]: %s column %d has slot %d, want %d", plan, rel.alias, c, slot, next)
			default:
				next++
			}
		}
		if rel.width != next-rel.offset {
			t.Errorf("plan [%s]: %s is %d wide for %d columns read", plan, rel.alias, rel.width, next-rel.offset)
		}
		if rel.width > 0 && rel.width == len(rel.slots) && int(rel.slots[0]) != rel.offset {
			t.Errorf("plan [%s]: %s is read in full but starts at slot %d of its stretch at %d", plan, rel.alias, rel.slots[0], rel.offset)
		}
		if rel.table != nil && rel.cols.Len() != rel.width {
			t.Errorf("plan [%s]: a scan of %s decodes %d columns into %d slots", plan, rel.alias, rel.cols.Len(), rel.width)
		}
		if rel.table != nil && rel.width == len(rel.slots) && rel.cols != rel.table.Heap.Codec().AllCols() {
			t.Errorf("plan [%s]: %s is read in full but not through the codec's own column set", plan, rel.alias)
		}
	}
	if rels != p.nRels || next != p.nSlots {
		t.Errorf("plan [%s]: steps bind %d relations over %d slots, plan says %d over %d", plan, rels, next, p.nRels, p.nSlots)
	}
	if p.nRels == 1 && p.nSlots == len(p.layout) {
		for i, slot := range p.steps[0].bound().slots {
			if int(slot) != i {
				t.Errorf("plan [%s]: reads every column, yet position %d is slot %d", plan, i, slot)
			}
		}
	}

	v := newVecRun(p, nil, 1)
	bound := 0
	for i, st := range p.steps {
		if rel := st.bound(); rel != nil {
			bound = rel.end()
		}
		want := bound
		for _, after := range p.steps[i+1:] {
			if rel := after.bound(); rel != nil {
				if _, frameAtATime := after.(rowStepper); frameAtATime {
					want = rel.end()
				}
				break
			}
		}
		if got := v.stages[i].hi; got != want {
			t.Errorf("plan [%s]: stage %d frames are %d wide, want %d", plan, i, got, want)
		}
	}
	if n := len(p.steps); v.stages[n-1].hi != p.nSlots {
		t.Errorf("plan [%s]: the last stage's frames are %d wide, the plan %d", plan, v.stages[n-1].hi, p.nSlots)
	}
}

// layoutWatch installs the two test hooks for TestSlotLayout: every block
// planned while it is installed is checked (checkSlotLayout) and has its
// join keys, group keys, aggregate arguments, projections and sort keys
// guarded against the poison value; with poison switched on, every frame is
// filled with that value as it is handed out.
type layoutWatch struct {
	t      *testing.T
	blocks int
	leaks  atomic.Int64 // lanes evaluate guarded expressions too
}

func watchLayout(t *testing.T) *layoutWatch {
	w := &layoutWatch{t: t}
	planned = func(p *selectPlan) {
		w.blocks++
		checkSlotLayout(t, p)
		w.guardAll("projection", p.projections)
		w.guardAll("sort key", p.orderKeys)
		if p.agg != nil {
			w.guardAll("group key", p.agg.groupFns)
			for i := range p.agg.specs {
				if arg := &p.agg.specs[i].arg; *arg != nil {
					*arg = w.guard("aggregate argument", *arg)
				}
			}
		}
		for _, st := range p.steps {
			switch st := st.(type) {
			case *hashStep:
				w.guardAll("build key", st.buildKeyFns)
				w.guardAll("probe key", st.probeFns)
			case *inlStep:
				w.guardAll("index probe key", st.eqFns)
			}
		}
	}
	t.Cleanup(func() { planned, framePoison = nil, nil })
	return w
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

func (w *layoutWatch) guardAll(what string, fns []exprFn) {
	for i, fn := range fns {
		fns[i] = w.guard(what, fn)
	}
}

func (w *layoutWatch) guard(what string, fn exprFn) exprFn {
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		v, err := fn(rt, rows)
		if v.K == poisonKind && w.leaks.Add(1) <= 5 {
			w.t.Errorf("a %s read a slot nothing had written", what)
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
