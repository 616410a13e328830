package engine

import (
	"fmt"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// execProfile is the per-operator cost-attribution state of one profiled
// statement execution (Session.ExplainAnalyze). Each plan that runs —
// the statement's own block plus any subqueries and derived tables —
// gets a set of operator spans; charges land on whichever operator is
// executing, and the root span reconciles with the session meter.
type execProfile struct {
	root *cost.Span
	ship *cost.Span // the statement's row-ship span; nil in a parallel lane's profile
	mu   sync.Mutex
	// plans memoises span sets per compiled plan. Subqueries share the
	// statement's runtime, so keying by plan keeps their operators
	// separate from the outer block's.
	plans map[*selectPlan]*planProf
}

// planProf holds one plan's operator spans: one per pipeline step, one
// for the output phase (grouping / sort / limit), and — when partitioned
// workers engage — one for the parallel region.
type planProf struct {
	parent *cost.Span
	steps  []*cost.Span
	output *cost.Span
	par    *cost.Span
}

func newExecProfile(root *cost.Span) *execProfile {
	return &execProfile{root: root, plans: make(map[*selectPlan]*planProf)}
}

// planFor returns (creating on first use) the operator spans for p. The
// first plan profiled hangs its operators directly under the profile
// root; later plans (subqueries, derived relations) get a wrapper span.
func (ep *execProfile) planFor(p *selectPlan) *planProf {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if pp, ok := ep.plans[p]; ok {
		return pp
	}
	parent := ep.root
	if len(ep.plans) > 0 {
		parent = ep.root.Child("subquery")
	}
	pp := &planProf{parent: parent}
	for _, st := range p.steps {
		name := describeStep(st)
		if est := stepEstRows(st); est > 0 {
			name = fmt.Sprintf("%s (est %.0f rows)", name, est)
		}
		pp.steps = append(pp.steps, parent.Child(name))
	}
	if p.agg != nil {
		pp.output = parent.Child(fmt.Sprintf("sort-group (%d keys, %d aggregates)",
			len(p.agg.groupFns), len(p.agg.specs)))
	} else {
		pp.output = parent.Child("output (project/order/limit)")
	}
	ep.plans[p] = pp
	return pp
}

// parallelSpan returns (creating on first use) the span covering p's
// partitioned parallel region. Per-lane detail hangs below it as lane
// children; the span's own elapsed is the max-combined lane time that
// AddParallel credits.
func (ep *execProfile) parallelSpan(p *selectPlan, degree int) *cost.Span {
	pp := ep.planFor(p)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if pp.par == nil {
		pp.par = pp.parent.Child(fmt.Sprintf("parallel (degree %d)", degree))
	}
	return pp.par
}

// planProf resolves the operator spans for p in this runtime's profile,
// nil when the execution is not profiled.
func (rt *runtime) planProf(p *selectPlan) *planProf {
	if rt.prof == nil {
		return nil
	}
	return rt.prof.planFor(p)
}

// spanScope installs s as the session meter's attribution target and
// returns a restore func; a nil s is a no-op.
func (rt *runtime) spanScope(s *cost.Span) func() {
	if s == nil {
		return noopRestore
	}
	m := rt.sess.Meter
	prev := m.SetSpan(s)
	return func() { m.SetSpan(prev) }
}

var noopRestore = func() {}

// Analyzed is the outcome of ExplainAnalyze: the statement's result plus
// the per-operator cost-attribution tree. Root.Total() equals exactly
// the simulated time the statement added to the session meter — under
// parallel execution via the max-combining rule (lane detail below the
// "parallel" span is reported but excluded from the total, since the
// lanes overlapped).
type Analyzed struct {
	Result *Result
	Root   *cost.Span
	model  cost.Model // the session meter's, which prices Root's counts
}

// String renders the annotated plan tree, one operator per line with its
// simulated elapsed, rows produced and dominant event classes.
func (a *Analyzed) String() string { return a.Root.Render(a.model) }

// ExplainAnalyze executes a SELECT with per-operator cost attribution. It
// is Exec's run with spans installed: the front half runs under the
// parse+optimize span, then every pipeline step, the output phase and row
// shipping charge their own child span of the session meter.
func (s *Session) ExplainAnalyze(sql string, params ...val.Value) (*Analyzed, error) {
	o := s.db.opts.Load()
	root := cost.NewSpan("statement")
	prev := s.Meter.SetSpan(root.Child("parse+optimize"))
	defer s.Meter.SetSpan(prev)
	plan, _, err := s.compile(sql)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("engine: EXPLAIN ANALYZE supports only SELECT")
	}
	s.Meter.SetSpan(root)
	prof := newExecProfile(root)
	prof.planFor(plan) // create operator spans ahead of row-ship, in plan order
	prof.ship = root.Child("row-ship")
	out := newCollect(nil)
	rt := &runtime{sess: s, params: params, prof: prof}
	rt.begin()
	defer rt.done()
	if err := s.runSelect(rt, plan, out, o.ArrayFetch); err != nil {
		return nil, err
	}
	return &Analyzed{Result: &out.Result, Root: root, model: s.Meter.Model()}, nil
}
