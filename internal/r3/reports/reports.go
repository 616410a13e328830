// Package reports implements the TPC-D workload as SAP R/3 reports, in
// the strategies the paper benchmarks:
//
//   - Native SQL, Release 2.2: EXEC SQL for everything transparent, but
//     KONV is encapsulated, so every query touching discount or tax
//     breaks in two — SQL for the transparent part, nested Open SQL
//     SELECTs against the cluster per result row (paper Section 3.4.3).
//   - Native SQL, Release 3.0: full push-down SQL on the SAP schema
//     (KONV converted to transparent), including the vendor string
//     function INSTR that keeps the reports non-portable.
//   - Open SQL, Release 2.2: single-table SELECT loops plus join views;
//     all joins not expressible as key-relationship views, and all
//     grouping/aggregation, run in the application server.
//   - Open SQL, Release 3.0: join push-down via the new JOIN syntax,
//     simple aggregates push down, complex aggregations still client-side
//     in internal tables (two-phase grouping).
//
// The update functions run through the batch-input facility in every
// strategy, as in the paper.
package reports

import (
	"fmt"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/r3"
	"r3bench/internal/val"
)

// Strategy selects a report implementation family.
type Strategy int

// The four measured strategies.
const (
	Native22 Strategy = iota
	Native30
	Open22
	Open30
)

// String names the strategy the paper's way.
func (s Strategy) String() string {
	switch s {
	case Native22:
		return "Native SQL (SAP DB, 2.2G)"
	case Native30:
		return "Native SQL (SAP DB, 3.0E)"
	case Open22:
		return "Open SQL (SAP DB, 2.2G)"
	default:
		return "Open SQL (SAP DB, 3.0E)"
	}
}

// SAPImpl runs TPC-D through SAP R/3; it satisfies tpcd.Implementation.
type SAPImpl struct {
	sys      *r3.System
	gen      *dbgen.Generator
	strategy Strategy
	m        *cost.Meter
	o        *r3.OpenSQL
	n        *r3.NativeSQL
	// fetches[q] is Qq's fetch in this session's strategy; built once by New.
	fetches fetchTable
}

// New opens a report session of the given strategy against an installed,
// loaded system.
func New(sys *r3.System, g *dbgen.Generator, strategy Strategy) *SAPImpl {
	m := cost.NewMeter(sys.DB.Model())
	s := &SAPImpl{
		sys:      sys,
		gen:      g,
		strategy: strategy,
		m:        m,
		o:        sys.OpenSQL(m),
		n:        sys.NativeSQL(m),
	}
	switch strategy {
	case Native22:
		s.fetches = s.native22Fetches()
	case Native30:
		s.fetches = s.native30Fetches()
	case Open22:
		s.fetches = s.open22Fetches()
	default:
		s.fetches = s.open30Fetches()
	}
	return s
}

// Name implements tpcd.Implementation.
func (s *SAPImpl) Name() string { return s.strategy.String() }

// EnablePhases attaches one phase-attribution span set to the session's
// Open SQL and Native SQL connections (they share a meter): from this
// call on, every simulated nanosecond lands in the translate, DB or
// client-side span, and Root.Total() reconciles exactly with the meter
// time elapsed since the call. Returns the phase set for inspection.
func (s *SAPImpl) EnablePhases() *r3.Phases {
	ph := r3.NewPhases(s.strategy.String())
	s.o.SetPhases(ph)
	s.n.SetPhases(ph)
	ph.Attach(s.m)
	return ph
}

// Meter implements tpcd.Implementation.
func (s *SAPImpl) Meter() *cost.Meter { return s.m }

// RunQuery implements tpcd.Implementation.
func (s *SAPImpl) RunQuery(q int) ([][]val.Value, error) {
	if q < 1 || q >= len(s.fetches) {
		return nil, fmt.Errorf("reports: no Q%d for %s", q, s.strategy)
	}
	var rows [][]val.Value
	t, err := s.fetches[q]()
	if err == nil {
		rows, err = t.rows()
	}
	if err != nil {
		return nil, fmt.Errorf("reports: %s Q%d: %w", s.strategy, q, err)
	}
	return rows, nil
}

// RunUF1 enters the new-order set through batch input charging this
// report's meter — identical in all strategies ("these two variants show
// virtually identical performance").
func (s *SAPImpl) RunUF1() error {
	b := s.sys.NewBatchInputWithMeter(1, s.m)
	return s.gen.UF1Orders(func(o *dbgen.Order) error {
		return b.EnterOrder(o)
	})
}

// RunUF2 deletes the delete set through batch input.
func (s *SAPImpl) RunUF2() error {
	b := s.sys.NewBatchInputWithMeter(1, s.m)
	for _, k := range s.gen.UF2OrderKeys() {
		if err := b.DeleteOrder(k); err != nil {
			return err
		}
	}
	return nil
}

// --- shared helpers ---

// konvRate reads one pricing condition of a document item through a nested
// Open SQL SELECT — the only way to reach KONV while it is a cluster table
// — as sign × KBETR per mille.
func (s *SAPImpl) konvRate(knumv, kposn, kschl string, sign float64) (float64, error) {
	var rate float64
	err := s.o.Select("KONV", []r3.Cond{
		r3.Eq("KNUMV", val.Str(knumv)), r3.Eq("KPOSN", val.Str(kposn)),
		r3.Eq("KSCHL", val.Str(kschl)),
	}, func(r r3.Row) error {
		rate = sign * r.Get("KBETR").AsFloat() / 1000
		return r3.StopSelect
	})
	if err != nil && err != r3.StopSelect {
		return 0, err
	}
	return rate, nil
}

// discountRate returns l_discount (0.05 style): the DISC condition is
// stored as a negative rate.
func (s *SAPImpl) discountRate(knumv, kposn string) (float64, error) {
	return s.konvRate(knumv, kposn, "DISC", -1)
}

// taxRate reads the TAX condition of one document item.
func (s *SAPImpl) taxRate(knumv, kposn string) (float64, error) {
	return s.konvRate(knumv, kposn, "TAX", 1)
}

// yearOf extracts the year of a date value client-side: the first four
// digits of its text — a CHAR date's own bytes, a DATE's year without
// formatting it.
func yearOf(v val.Value) val.Value {
	if v.K == val.KDate {
		if y := time.Unix(v.I*86400, 0).UTC().Year(); y >= 0 && y <= 9999 {
			return val.Int(int64(y))
		}
	}
	s := v.S
	if v.K != val.KStr {
		s = v.AsStr()
	}
	if len(s) < 4 {
		return val.Null
	}
	y := 0
	for i := 0; i < 4; i++ {
		y = y*10 + int(s[i]-'0')
	}
	return val.Int(int64(y))
}
