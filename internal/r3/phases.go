package r3

import "r3bench/internal/cost"

// Phases attributes an R/3 connection's virtual time to the cost
// components the paper separates when explaining Open SQL overhead
// (Sections 2.3 and 4): ABAP→SQL statement translation, work done on
// (or shipped from) the RDBMS, and client-side processing in the
// application server (internal-table operations, post-filtering of
// encapsulated rows, buffer management).
//
// A Phases set is attached to a meter with Attach; from then on every
// charge lands in the Client span except while an interface method has
// switched the meter into the Translate or DB span. Root.Total() always
// equals the meter time elapsed since Attach — exactly, including under
// parallel query execution — so reports can assert the attribution is
// complete.
type Phases struct {
	Root      *cost.Span
	Translate *cost.Span // ABAP→SQL translation: once per new statement shape, any table kind
	DB        *cost.Span // RDBMS execution, interface and row shipping
	Client    *cost.Span // application-server (itab) processing
}

// NewPhases builds a fresh phase set rooted at name.
func NewPhases(name string) *Phases {
	root := cost.NewSpan(name)
	return &Phases{
		Root:      root,
		Translate: root.Child("translate"),
		DB:        root.Child("db+interface"),
		Client:    root.Child("client-side"),
	}
}

// Attach makes the phase set current on m: unattributed charges land in
// Client until a phase method redirects them. Returns a detach func
// restoring the meter's previous span.
func (p *Phases) Attach(m *cost.Meter) func() {
	prev := m.SetSpan(p.Client)
	return func() { m.SetSpan(prev) }
}

// noRestore is the no-op returned when no phases are attached.
func noRestore() {}

// enterTranslate routes m's charges to the Translate span until the
// returned restore runs. Safe on a nil receiver (no phases attached).
func (p *Phases) enterTranslate(m *cost.Meter) func() {
	if p == nil {
		return noRestore
	}
	prev := m.SetSpan(p.Translate)
	return func() { m.SetSpan(prev) }
}

// enterDB routes m's charges to the DB span until the returned restore
// runs. Safe on a nil receiver.
func (p *Phases) enterDB(m *cost.Meter) func() {
	if p == nil {
		return noRestore
	}
	prev := m.SetSpan(p.DB)
	return func() { m.SetSpan(prev) }
}

// enterClient routes m's charges to the Client span until the returned
// restore runs (used inside DB-phase row callbacks that run report
// code). Safe on a nil receiver.
func (p *Phases) enterClient(m *cost.Meter) func() {
	if p == nil {
		return noRestore
	}
	prev := m.SetSpan(p.Client)
	return func() { m.SetSpan(prev) }
}
