package cost

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one node of a cost-attribution tree overlaid on a Meter: while
// a span is installed as the meter's current span (SetSpan), every charge
// lands on that span in addition to the meter's grand totals. Executors
// and the R/3 interface layers push and pop spans around their phases so
// that whole-session totals decompose into per-operator / per-phase
// pieces.
//
// Reconciliation invariant: if a root span is installed for the entire
// lifetime of a measured region (with children swapped in and out below
// it), then root.Total() equals the meter's Lap over that region —
// exactly, in simulated-duration arithmetic. Under parallel execution
// the invariant holds because AddParallel credits the current span with
// the same max-combined elapsed it adds to the meter; the per-lane
// detail recorded below a parallel span is marked as lane detail and
// excluded from Total (the lanes overlap — their max, not their sum,
// already advanced the clock).
type Span struct {
	mu       sync.Mutex
	name     string
	lane     bool
	elapsed  time.Duration
	nEvents  [NumKinds]int64
	rows     int64
	children []*Span
}

// NewSpan returns a root span with the given label.
func NewSpan(name string) *Span {
	return &Span{name: name}
}

// Child adds and returns a sub-span. Its Total contributes to the
// parent's Total.
func (s *Span) Child(name string) *Span {
	c := &Span{name: name}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// LaneChild adds a sub-span holding per-lane detail of work that ran
// overlapped with its siblings. Lane children are excluded from the
// parent's Total: the parent was already credited with the max-combined
// elapsed of all lanes (Meter.AddParallel), so counting the lanes again
// would double-book the overlapped time.
func (s *Span) LaneChild(name string) *Span {
	c := s.Child(name)
	c.lane = true
	return c
}

// Name returns the span's label.
func (s *Span) Name() string { return s.name }

// Lane reports whether this span is overlapped per-lane detail.
func (s *Span) Lane() bool { return s.lane }

// Children returns the sub-spans in creation order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// AddRows notes n rows produced by the operator this span measures.
func (s *Span) AddRows(n int64) {
	s.mu.Lock()
	s.rows += n
	s.mu.Unlock()
}

// Rows returns the rows produced by this operator.
func (s *Span) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Elapsed returns the simulated time charged directly to this span,
// excluding children.
func (s *Span) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

// Events returns the number of events of class k charged directly to
// this span.
func (s *Span) Events(k Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nEvents[k]
}

// Total returns the span's own elapsed plus the Total of every non-lane
// child. This is the figure that reconciles with the session meter.
func (s *Span) Total() time.Duration {
	s.mu.Lock()
	t := s.elapsed
	kids := s.children
	s.mu.Unlock()
	for _, c := range kids {
		if !c.lane {
			t += c.Total()
		}
	}
	return t
}

// add books one charge onto the span (called by the owning meter).
func (s *Span) add(k Kind, d time.Duration, n int64) {
	s.mu.Lock()
	s.elapsed += d
	s.nEvents[k] += n
	s.mu.Unlock()
}

// addCombined books the result of a parallel/serial lane merge onto the
// span: the combined elapsed plus the summed event counts.
func (s *Span) addCombined(total time.Duration, events *[NumKinds]int64) {
	s.mu.Lock()
	s.elapsed += total
	for k := range events {
		s.nEvents[k] += events[k]
	}
	s.mu.Unlock()
}

// topKinds renders the dominant event classes charged directly to the
// span, priced by model, largest first, up to max entries.
func (s *Span) topKinds(model *Model, max int) string {
	s.mu.Lock()
	events := s.nEvents
	s.mu.Unlock()
	ks := model.ranked(&events)
	if len(ks) == 0 {
		return ""
	}
	if len(ks) > max {
		ks = ks[:max]
	}
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprintf("%s %s (%d)", k, Fmt(model.price(k, events[k])), events[k])
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Render draws the span tree, one line per span: label, Total, rows
// produced (when any were recorded), and the dominant event classes
// priced by model, the model of the meters that charged the tree.
// Lane-detail spans are prefixed with "~" to mark overlapped time that
// does not add into the parent.
func (s *Span) Render(model Model) string {
	var b strings.Builder
	s.render(&b, &model, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, model *Model, depth int) {
	label := s.name
	if s.lane {
		label = "~ " + label
	}
	fmt.Fprintf(b, "%s%-*s %10s", strings.Repeat("  ", depth), 36-2*depth, label, Fmt(s.Total()))
	if n := s.Rows(); n > 0 {
		fmt.Fprintf(b, "  rows=%d", n)
	}
	if t := s.topKinds(model, 3); t != "" {
		b.WriteString("  ")
		b.WriteString(t)
	}
	b.WriteByte('\n')
	for _, c := range s.Children() {
		c.render(b, model, depth+1)
	}
}
