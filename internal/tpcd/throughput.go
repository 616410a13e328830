package tpcd

import (
	"fmt"
	"strings"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/val"
)

// The TPC-D throughput test: N query streams run the 17 queries
// concurrently, each in its own permuted order, against one database.
// The power test (runner.go) measures latency with the machine to
// itself; this measures how much work the stack completes per hour when
// sessions genuinely overlap — which is what the engine's snapshot
// catalog, copy-on-write pages and atomic plan cache are for. Each
// stream is one Session with its own virtual clock; the simulated wall
// time of the whole test is the longest stream's clock, and the metric
// is queries per simulated hour.

// Permutation returns stream's fixed Q1–Q17 execution order. Stream s
// starts offset into the sequence and strides by 7 (coprime to 17), so
// every stream covers all 17 queries in a distinct, deterministic order
// — the spirit of the TPC-D Appendix F ordering tables.
func Permutation(stream int) []int {
	perm := make([]int, 17)
	for i := range perm {
		perm[i] = ((stream+i*7)%17+17)%17 + 1
	}
	return perm
}

// QueryStream is one throughput-test query stream: its own session (and
// so its own meter), its own permutation, and its own name for Q15's
// temporary revenue view so concurrent streams never collide in the
// shared catalog.
type QueryStream struct {
	ID   int
	sess *engine.Session
	qs   []Query
}

// NewQueryStream builds stream id over a loaded database. Query texts
// are rewritten per stream where they create schema objects (Q15's
// revenue0 view becomes revenue0_s<id>), mirroring TPC-D's per-stream
// view naming.
func NewQueryStream(db *engine.DB, g *dbgen.Generator, id int) *QueryStream {
	qs := Queries(g.SF) // a fresh suite, so Q15 can be rewritten in place
	view := fmt.Sprintf("revenue0_s%d", id)
	for i, sql := range qs[14].SQL {
		qs[14].SQL[i] = strings.ReplaceAll(sql, "revenue0", view)
	}
	return &QueryStream{ID: id, sess: db.NewSession(), qs: qs}
}

// Meter returns the stream's virtual clock.
func (s *QueryStream) Meter() *cost.Meter { return s.sess.Meter }

// RunQuery executes query q (1–17), returning its result rows.
func (s *QueryStream) RunQuery(q int) ([][]val.Value, error) {
	if q < 1 || q > 17 {
		return nil, fmt.Errorf("tpcd: no query Q%d", q)
	}
	rows, err := s.qs[q-1].Run(s.sess)
	if err != nil {
		return nil, fmt.Errorf("tpcd: stream %d Q%d: %w", s.ID, q, err)
	}
	return rows, nil
}

// StreamResult is one stream's outcome: its simulated elapsed time and
// the per-query results in permutation order (for determinism checks).
type StreamResult struct {
	Stream  int
	Order   []int
	Elapsed time.Duration
	Rows    map[int][][]val.Value
	Err     error
}

// RunStream executes the stream's full permutation once. keepRows
// retains every query's result rows (the determinism suite needs them;
// the throughput harness does not).
func (s *QueryStream) RunStream(keepRows bool) *StreamResult {
	sr := &StreamResult{Stream: s.ID, Order: Permutation(s.ID)}
	if keepRows {
		sr.Rows = make(map[int][][]val.Value, 17)
	}
	start := s.sess.Meter.Elapsed()
	for _, q := range sr.Order {
		rows, err := s.RunQuery(q)
		if err != nil {
			sr.Err = err
			return sr
		}
		if keepRows {
			sr.Rows[q] = rows
		}
	}
	sr.Elapsed = s.sess.Meter.Lap(start)
	return sr
}

// ThroughputResult is one multi-stream throughput test.
type ThroughputResult struct {
	Streams   int
	Queries   int           // total queries completed across all streams
	Wall      time.Duration // simulated wall time: the longest stream
	QPH       float64       // queries per simulated hour
	PerStream []*StreamResult
}

// RunThroughput drives n concurrent query streams to completion. The
// streams genuinely overlap (one lane each, shared engine); their virtual
// clocks advance independently, and the test's simulated wall time is the
// slowest stream's elapsed — the parallel-composition rule the cost model
// uses everywhere (cost.Lanes.Elapsed).
func RunThroughput(db *engine.DB, g *dbgen.Generator, n int) (*ThroughputResult, error) {
	streams := make([]*QueryStream, n)
	lanes := make(cost.Lanes, n)
	for i := range streams {
		streams[i] = NewQueryStream(db, g, i)
		lanes[i] = streams[i].Meter()
	}
	tr := &ThroughputResult{Streams: n, PerStream: make([]*StreamResult, n)}
	err := lanes.Run(func(i int, _ *cost.Meter) error {
		tr.PerStream[i] = streams[i].RunStream(false)
		return tr.PerStream[i].Err
	})
	if err != nil {
		return nil, err
	}
	for _, sr := range tr.PerStream {
		tr.Queries += len(sr.Order)
	}
	tr.Wall = lanes.Elapsed()
	if h := tr.Wall.Hours(); h > 0 {
		tr.QPH = float64(tr.Queries) / h
	}
	return tr, nil
}
