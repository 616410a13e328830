package engine

import (
	"fmt"

	"r3bench/internal/val"
)

// Distributed partial execution. A sharded deployment (internal/shard)
// runs the same SELECT text on every shard and must combine the pieces
// into exactly the rows a single engine would produce. Finalized results
// cannot be combined that way — an AVG is already divided, a float SUM
// already rounded — so QueryPartial runs only the first half of a block's
// execution, its drain (selectPlan.drain): grouped aggregate state (exact
// sums, min/max, DISTINCT values) for aggregate plans, projected-
// but-unsorted rows for plain plans. MergePartials then merges the shards'
// partials in shard order exactly as the parallel coordinator merges its
// lanes' (outputSink.merge) and finalizes once: HAVING, projection, ORDER
// BY, LIMIT, row shipping. Byte-identical distributed results follow from
// the exactness of the accumulator merge, not from any luck in float
// evaluation order.

// Partial is a block's execution drained to its finalization boundary: one
// parallel lane's run, or one shard's SELECT (QueryPartial). It is
// single-use: merging consumes the accumulators in place.
type Partial struct {
	plan *selectPlan
	acc  *aggAccum // aggregate plans: the groups, sums exact
	rows []outRow  // non-aggregate plans: projected rows, unsorted
}

// ShipRows returns the number of partial rows this execution contributes
// to a gather exchange: one per accumulated group for aggregate plans
// (a shard that matched nothing ships nothing), one per projected row
// otherwise.
func (pa *Partial) ShipRows() int64 {
	if pa.acc != nil {
		return int64(pa.acc.groups.Len())
	}
	return int64(len(pa.rows))
}

// Rows returns the projected rows of a non-aggregate partial, in this
// shard's pipeline order. Exchange operators use it to pull a table
// slice out of a shard (SELECT cols FROM t with no ORDER BY) without
// paying client row shipping. Nil for aggregate partials.
func (pa *Partial) Rows() [][]val.Value {
	if pa.acc != nil {
		return nil
	}
	out := make([][]val.Value, len(pa.rows))
	for i, r := range pa.rows {
		out[i] = r.proj
	}
	return out
}

// QueryPartial parses, plans and drains one SELECT — up to, but not
// including, finalization. The modelled parse/optimize and execution
// charges land on the session meter exactly as Exec's would; no RowShip
// is charged, because no result row crosses a client interface here (the
// exchange that ships the partial charges its own NetShip).
func (s *Session) QueryPartial(sql string, params ...val.Value) (*Partial, error) {
	plan, _, err := s.compile(sql)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("engine: QueryPartial requires a SELECT statement")
	}
	if plan.agg == nil && len(plan.orderKeys) == 0 {
		if plan.limit >= 0 {
			return nil, fmt.Errorf("engine: QueryPartial on LIMIT without ORDER BY is not distributable")
		}
		if plan.distinct {
			return nil, fmt.Errorf("engine: QueryPartial on DISTINCT without ORDER BY is not distributable")
		}
	}
	s.db.noteSelect(plan)
	pa := &Partial{plan: plan}
	defer s.db.epochs.Leave(s.db.epochs.Enter())
	rt := &runtime{sess: s, params: params}
	// Plans that neither aggregate nor sort emit rows as they drain; collect
	// them here (order: pipeline order, i.e. this shard's partition order).
	var lanes outputSink
	o := &lanes
	br, err := plan.drain(rt, nil, func(row []val.Value) error {
		pa.rows = append(pa.rows, outRow{proj: append([]val.Value(nil), row...)})
		return nil
	}, o)
	if br != nil {
		defer br.release()
		o = br.sink
	}
	if err != nil {
		return nil, err
	}
	pa.acc = o.acc
	pa.rows = append(pa.rows, o.rows...)
	pa.own()
	return pa, nil
}

// own gives every CHAR value the partial holds storage of its own: a
// Partial outlives the statement that filled it, and what a statement
// leaves behind must not alias page images (RowSink).
func (pa *Partial) own() {
	var chars val.Slab
	for _, r := range pa.rows {
		chars.Own(r.proj)
		chars.Own(r.keys)
	}
	if pa.acc == nil {
		return
	}
	for _, chunk := range pa.acc.keys.chunks {
		chars.Own(chunk)
	}
	for _, chunk := range pa.acc.accs.chunks {
		for i := range chunk {
			st := &chunk[i]
			st.min.S, st.max.S = chars.Copy(st.min.S), chars.Copy(st.max.S)
		}
	}
	if d := pa.acc.dist; d != nil {
		for _, chunk := range d.seen.chunks {
			for i := range chunk {
				chunk[i].v.S = chars.Copy(chunk[i].v.S)
			}
		}
	}
}

// MergePartials combines shard partials of the same statement into the
// final result, charging the merge, finalization, sort and client row
// shipping to this session's meter — the coordinator's clock. Partials
// must be passed in shard order; group first-seen order and any sort-tie
// order follow the concatenation order, exactly as the engine's own
// parallel lanes behave.
func (s *Session) MergePartials(parts []*Partial, params ...val.Value) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: MergePartials of no partials")
	}
	p := parts[0].plan
	runs := make([]Partial, len(parts))
	for i, q := range parts {
		if (q.acc == nil) != (parts[0].acc == nil) {
			return nil, fmt.Errorf("engine: MergePartials of mismatched partials")
		}
		if q.acc != nil && len(q.plan.agg.specs) != len(p.agg.specs) {
			return nil, fmt.Errorf("engine: MergePartials of mismatched aggregate plans")
		}
		runs[i] = *q
	}
	// The merged rows ship to the client exactly as runSelect ships a
	// single engine's.
	out := newCollect(p.outCols)
	rt := &runtime{sess: s, params: params, out: out, array: s.db.opts.Load().ArrayFetch}
	sink := newOutputSink(p, rt, rt.shipRow)
	if err := sink.merge(runs, true); err != nil {
		return nil, err
	}
	if err := sink.finish(rt, nil); err != nil {
		return nil, err
	}
	rt.shipDone()
	return &out.Result, nil
}
