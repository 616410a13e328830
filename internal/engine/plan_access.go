package engine

import (
	"fmt"
	"math"
	"math/bits"

	"r3bench/internal/storage"
	"r3bench/internal/val"
)

// workMemBytes models the per-operator working memory of a mid-1990s
// installation; sorts and hash builds larger than this spill to disk.
const workMemBytes = 4 << 20

// chooseAccessPath picks sequential scan vs. index scan for one relation
// given its pushed conjuncts, using literal-value statistics when known
// and blind defaults otherwise (the paper's Section 4.1 effect: a
// parameterized predicate gets defaultRangeSel and so looks selective
// enough to justify an index even when the actual bound matches every
// row).
func (db *DB) chooseAccessPath(pc planConsts, ri *relInfo, relIdx int) {
	sel := 1.0
	for _, cj := range ri.pushed {
		sel *= cj.sel
	}
	ri.estRows = math.Max(1, ri.baseRows*sel)
	if ri.fbRows > 0 {
		// Adaptive feedback: a prior execution of this statement observed
		// the relation's actual output cardinality; trust it over the
		// estimate.
		ri.estRows = math.Max(1, ri.fbRows)
	}

	if ri.table == nil {
		// Derived relations are always materialized scans.
		ri.access = accessPath{estRows: ri.estRows}
		for _, cj := range ri.pushed {
			ri.access.filters = append(ri.access.filters, cj.fn)
		}
		ri.access.estCost = ri.baseRows * pc.cpu
		return
	}

	best := accessPath{
		estCost: float64(ri.pages)*pc.seq + ri.baseRows*pc.cpu,
		estRows: ri.estRows,
	}
	for _, cj := range ri.pushed {
		best.filters = append(best.filters, cj.fn)
	}

	for _, ix := range ri.table.Indexes {
		cand, ok := db.matchIndex(pc, ri, ix)
		if !ok {
			continue
		}
		if ri.fbRows > 0 {
			// The bound is no longer blind once its cardinality has been
			// observed: re-cost the index against the feedback row count
			// and let the cost comparison decide.
			cand.estRows = ri.estRows
			cand.estCost = db.indexScanCost(pc, ri, ix, cand.estRows)
			cand.blindBound = false
		}
		// Rule-based fallback: on a single-table query whose index bound
		// is a parameter (no statistics apply), the optimizer of the era
		// "blindly generates a plan" and takes the index — the access-path
		// blunder of the paper's Table 6.
		if ri.soleRelation && cand.blindBound && best.index == nil {
			best = cand
			continue
		}
		if cand.estCost < best.estCost && !(best.index != nil && ri.soleRelation && best.blindBound) {
			best = cand
		}
	}
	ri.access = best
}

// matchIndex builds an index-scan candidate for the relation, consuming
// equality conjuncts on the leading index columns and range conjuncts on
// the following column.
func (db *DB) matchIndex(pc planConsts, ri *relInfo, ix *Index) (accessPath, bool) {
	ap := accessPath{index: ix}
	consumed := make([]bool, len(ri.pushed))
	sel := 1.0
	matched := false

	pos := 0
	for ; pos < len(ix.ColIdxs); pos++ {
		found := false
		for ci, cj := range ri.pushed {
			if consumed[ci] || cj.sargOp != "=" || cj.sargCol != ix.ColIdxs[pos] || cj.sargFn == nil {
				continue
			}
			ap.eqFns = append(ap.eqFns, cj.sargFn)
			consumed[ci] = true
			sel *= cj.sel
			found, matched = true, true
			break
		}
		if !found {
			break
		}
	}
	// Range conjuncts on the next column.
	if pos < len(ix.ColIdxs) {
		rangeCol := ix.ColIdxs[pos]
		for ci, cj := range ri.pushed {
			if consumed[ci] || cj.sargCol != rangeCol || cj.sargFn == nil || cj.sargRel < 0 {
				continue
			}
			switch cj.sargOp {
			case "<", "<=":
				if ap.hiFn == nil {
					ap.hiFn, ap.hiInc = cj.sargFn, cj.sargOp == "<="
					consumed[ci], matched = true, true
					sel *= cj.sel
					if !cj.sargKnown {
						ap.blindBound = true
					}
				}
			case ">", ">=":
				if ap.loFn == nil {
					ap.loFn, ap.loInc = cj.sargFn, cj.sargOp == ">="
					consumed[ci], matched = true, true
					sel *= cj.sel
					if !cj.sargKnown {
						ap.blindBound = true
					}
				}
			case "between":
				if ap.loFn == nil && ap.hiFn == nil && cj.betweenHi != nil {
					ap.loFn, ap.loInc = cj.sargFn, true
					ap.hiFn, ap.hiInc = cj.betweenHi, true
					consumed[ci], matched = true, true
					sel *= cj.sel
					if !cj.sargKnown {
						ap.blindBound = true
					}
				}
			}
		}
	}
	if !matched {
		return ap, false
	}
	for ci, cj := range ri.pushed {
		if !consumed[ci] {
			ap.filters = append(ap.filters, cj.fn)
		}
	}
	ap.estRows = math.Max(1, ri.baseRows*sel)
	ap.estCost = db.indexScanCost(pc, ri, ix, ap.estRows)
	return ap, true
}

// indexScanCost estimates probing the index and fetching matchRows rows.
func (db *DB) indexScanCost(pc planConsts, ri *relInfo, ix *Index, matchRows float64) float64 {
	// Probe + leaf traversal.
	c := pc.rand + matchRows/256*pc.seq
	// Heap fetches: clustered indexes fetch in heap order.
	if ix.Clustered {
		perPage := float64(ri.table.Heap.RowsPerPage())
		c += matchRows / perPage * pc.seq
	} else {
		c += matchRows * pc.rand
	}
	return c + matchRows*pc.cpu
}

// --- join ordering ---

// dpEntry is one dynamic-programming state: the best plan found for a set
// of joined relations.
type dpEntry struct {
	mask        uint64
	cost        float64
	rows        float64
	steps       []stepper
	lastHadEdge bool
}

// applicability: a multi-relation conjunct is evaluated at the unique step
// that binds the last of its relations. Constant (mask 0) conjuncts run in
// a final filter step.

// optimizeJoinOrder runs left-deep DP (greedy beyond 13 relations) and
// returns the executable step pipeline.
func (p *selectPlan) optimizeJoinOrder(pc planConsts, rels []*relInfo, conjs []conjunct) ([]stepper, error) {
	n := len(rels)
	if n == 0 {
		return nil, fmt.Errorf("engine: empty FROM")
	}
	var steps []stepper
	switch {
	case n == 1:
		steps = []stepper{&scanStep{rel: rels[0], access: rels[0].access, estOut: rels[0].estRows}}
		// Multi-rel conjuncts cannot exist; subquery conjuncts carry the
		// full mask (= bit 0) and attach here.
		for _, cj := range conjs {
			if cj.mask != 0 {
				steps[0].(*scanStep).extraFilters = append(steps[0].(*scanStep).extraFilters, cj.fn)
			}
		}
	case n > 13:
		g, err := p.greedyOrder(pc, rels, conjs)
		if err != nil {
			return nil, err
		}
		steps = g
	default:
		best := make(map[uint64]*dpEntry, 1<<uint(n))
		for i, ri := range rels {
			m := uint64(1) << uint(i)
			best[m] = &dpEntry{
				mask:  m,
				cost:  ri.access.estCost,
				rows:  ri.estRows,
				steps: []stepper{&scanStep{rel: ri, access: ri.access, estOut: ri.estRows}},
			}
		}
		full := uint64(1)<<uint(n) - 1
		masksBySize := make([][]uint64, n+1)
		for m := uint64(1); m <= full; m++ {
			masksBySize[bits.OnesCount64(m)] = append(masksBySize[bits.OnesCount64(m)], m)
		}
		for size := 1; size < n; size++ {
			for _, mask := range masksBySize[size] {
				e := best[mask]
				if e == nil {
					continue
				}
				var cands []*dpEntry
				anyEdge := false
				for j := 0; j < n; j++ {
					if mask&(1<<uint(j)) != 0 {
						continue
					}
					cand := p.extend(pc, rels, conjs, e, j)
					if cand.lastHadEdge {
						anyEdge = true
					}
					cands = append(cands, cand)
				}
				for _, cand := range cands {
					if anyEdge && !cand.lastHadEdge {
						continue // avoid cartesian products while edges remain
					}
					if old, ok := best[cand.mask]; !ok || cand.cost < old.cost {
						best[cand.mask] = cand
					}
				}
			}
		}
		fin := best[full]
		if fin == nil {
			return nil, fmt.Errorf("engine: join ordering failed")
		}
		steps = fin.steps
	}
	return p.appendConstFilters(steps, conjs), nil
}

// appendConstFilters adds a final filter step for mask-0 conjuncts (pure
// constants or parameter-only predicates).
func (p *selectPlan) appendConstFilters(steps []stepper, conjs []conjunct) []stepper {
	var fns []exprFn
	for _, cj := range conjs {
		if cj.mask == 0 {
			fns = append(fns, cj.fn)
		}
	}
	if len(fns) > 0 {
		steps = append(steps, &filterStep{filters: fns})
	}
	return steps
}

// extend builds the best candidate plan adding relation j to entry e.
func (p *selectPlan) extend(pc planConsts, rels []*relInfo, conjs []conjunct, e *dpEntry, j int) *dpEntry {
	jm := uint64(1) << uint(j)
	newMask := e.mask | jm
	ri := rels[j]

	// Conjuncts that become applicable exactly at this step.
	var edges []conjunct
	var lateFilters []conjunct
	outSel := 1.0
	for _, cj := range conjs {
		if cj.mask == 0 || cj.mask&newMask != cj.mask || cj.mask&jm == 0 {
			continue
		}
		if cj.isJoin {
			edges = append(edges, cj)
		} else {
			lateFilters = append(lateFilters, cj)
		}
		outSel *= cj.sel
	}
	hasEdge := len(edges) > 0
	outRows := math.Max(1, e.rows*ri.estRows*outSel)

	var bestStep stepper
	bestCost := math.Inf(1)

	// Candidate: index nested-loop join.
	if ri.table != nil && hasEdge {
		for _, ix := range ri.table.Indexes {
			step, cost, ok := p.inlCandidate(pc, rels, ri, j, ix, edges, e)
			if ok && cost < bestCost {
				bestCost, bestStep = cost, step
			}
		}
	}

	// Candidate: hash join on all available edges.
	if hasEdge {
		buildBytes := ri.estRows * ri.rowBytes
		cost := e.cost + ri.access.estCost + (e.rows+ri.estRows)*pc.cpu
		if buildBytes > workMemBytes {
			cost += 2 * buildBytes / storage.PageSize * pc.seq
		}
		if cost < bestCost {
			hs := &hashStep{rel: ri, access: ri.access}
			for _, ed := range edges {
				jCol, oRel, oCol := ed.colA, ed.relB, ed.colB
				if ed.relA != j {
					jCol, oRel, oCol = ed.colB, ed.relA, ed.colA
				}
				hs.buildKeyFns = append(hs.buildKeyFns, ri.slotFn(jCol))
				hs.probeFns = append(hs.probeFns, rels[oRel].slotFn(oCol))
			}
			bestCost, bestStep = cost, hs
		}
	}

	// Candidate: naive rescan nested loop (always legal).
	nlCost := e.cost + e.rows*ri.access.estCost + e.rows*ri.estRows*pc.cpu
	if nlCost < bestCost {
		st := &scanStep{rel: ri, access: ri.access}
		for _, ed := range edges {
			st.extraFilters = append(st.extraFilters, ed.fn)
		}
		bestCost, bestStep = nlCost, st
	}

	// Attach late (non-edge) filters to whatever step won, and record the
	// estimated output cardinality for EXPLAIN ANALYZE and feedback.
	for _, cj := range lateFilters {
		switch st := bestStep.(type) {
		case *scanStep:
			st.extraFilters = append(st.extraFilters, cj.fn)
		case *hashStep:
			st.filters = append(st.filters, cj.fn)
		case *inlStep:
			st.filters = append(st.filters, cj.fn)
		}
	}
	switch st := bestStep.(type) {
	case *scanStep:
		st.estOut = outRows
	case *hashStep:
		st.estOut = outRows
	case *inlStep:
		st.estOut = outRows
	}

	steps := make([]stepper, len(e.steps), len(e.steps)+1)
	copy(steps, e.steps)
	steps = append(steps, bestStep)
	return &dpEntry{mask: newMask, cost: bestCost, rows: outRows, steps: steps, lastHadEdge: hasEdge}
}

// inlCandidate tries to drive relation j through index ix using edge and
// constant equalities on the leading index columns.
func (p *selectPlan) inlCandidate(pc planConsts, rels []*relInfo, ri *relInfo, j int, ix *Index, edges []conjunct, e *dpEntry) (stepper, float64, bool) {
	var eqFns []exprFn
	usedEdge := make([]bool, len(edges))
	consumedPush := make([]bool, len(ri.pushed))
	anyEdge := false
	for _, colIdx := range ix.ColIdxs {
		found := false
		for ei, ed := range edges {
			if usedEdge[ei] {
				continue
			}
			jCol, oRel, oCol := ed.colA, ed.relB, ed.colB
			if ed.relA != j {
				jCol, oRel, oCol = ed.colB, ed.relA, ed.colA
			}
			if jCol != colIdx {
				continue
			}
			eqFns = append(eqFns, rels[oRel].slotFn(oCol))
			usedEdge[ei] = true
			found, anyEdge = true, true
			break
		}
		if !found {
			for pi, cj := range ri.pushed {
				if consumedPush[pi] || cj.sargOp != "=" || cj.sargCol != colIdx || cj.sargFn == nil {
					continue
				}
				eqFns = append(eqFns, cj.sargFn)
				consumedPush[pi] = true
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	if !anyEdge || len(eqFns) == 0 {
		return nil, 0, false
	}
	// Match estimate: rows per distinct key of the probed prefix — the
	// *whole* prefix, not just the leading column (a leading low-
	// cardinality column like MANDT would otherwise make every index
	// nested-loop look useless).
	matchRows := ri.estRows
	if ix.Unique && len(eqFns) == len(ix.ColIdxs) {
		matchRows = 1
	} else if ri.table.stats.Analyzed() {
		combined := 1.0
		ri.table.stats.mu.RLock()
		for _, ci := range ix.ColIdxs[:len(eqFns)] {
			if ci < len(ri.table.stats.Columns) && ri.table.stats.Columns[ci].Distinct > 0 {
				combined *= float64(ri.table.stats.Columns[ci].Distinct)
			}
		}
		ri.table.stats.mu.RUnlock()
		if combined > 1 {
			matchRows = math.Max(1, ri.baseRows/combined)
		}
	}
	fetch := pc.rand
	if ix.Clustered {
		fetch = pc.seq
	}
	cost := e.cost + e.rows*(pc.rand+matchRows*(fetch+pc.cpu))

	st := &inlStep{rel: ri, index: ix, eqFns: eqFns}
	// Unconsumed pushed conjuncts and unused edges become filters.
	for pi, cj := range ri.pushed {
		if !consumedPush[pi] {
			st.filters = append(st.filters, cj.fn)
		}
	}
	for ei, ed := range edges {
		if !usedEdge[ei] {
			st.filters = append(st.filters, ed.fn)
		}
	}
	return st, cost, true
}

// greedyOrder picks the cheapest edge-connected next relation repeatedly
// (for very wide joins where DP is too expensive).
func (p *selectPlan) greedyOrder(pc planConsts, rels []*relInfo, conjs []conjunct) ([]stepper, error) {
	n := len(rels)
	start := 0
	for i := 1; i < n; i++ {
		if rels[i].estRows < rels[start].estRows {
			start = i
		}
	}
	cur := &dpEntry{
		mask:  1 << uint(start),
		cost:  rels[start].access.estCost,
		rows:  rels[start].estRows,
		steps: []stepper{&scanStep{rel: rels[start], access: rels[start].access, estOut: rels[start].estRows}},
	}
	for bits.OnesCount64(cur.mask) < n {
		var bestCand *dpEntry
		for j := 0; j < n; j++ {
			if cur.mask&(1<<uint(j)) != 0 {
				continue
			}
			cand := p.extend(pc, rels, conjs, cur, j)
			if bestCand == nil ||
				(cand.lastHadEdge && !bestCand.lastHadEdge) ||
				(cand.lastHadEdge == bestCand.lastHadEdge && cand.cost < bestCand.cost) {
				bestCand = cand
			}
		}
		if bestCand == nil {
			return nil, fmt.Errorf("engine: greedy join ordering failed")
		}
		cur = bestCand
	}
	return cur.steps, nil
}

// fixedOrderSteps builds steps in syntactic order (used when outer joins
// pin the order). WHERE conjuncts apply as soon as their relations are
// bound; outer-joined relations evaluate their ON conjuncts inside the
// step and emit a NULL-extended row when nothing matches.
func (p *selectPlan) fixedOrderSteps(pc planConsts, rels []*relInfo, conjs []conjunct) ([]stepper, error) {
	var steps []stepper
	claimed := make([]bool, len(conjs))
	var mask uint64
	for i, ri := range rels {
		jm := uint64(1) << uint(i)
		newMask := mask | jm
		if ri.outer {
			st := &outerStep{rel: ri, access: ri.access}
			for _, cj := range ri.onConjs {
				st.onFilters = append(st.onFilters, cj.fn)
			}
			steps = append(steps, st)
		} else {
			st := &scanStep{rel: ri, access: ri.access, estOut: ri.estRows}
			for ci, cj := range conjs {
				if !claimed[ci] && cj.mask != 0 && cj.mask&newMask == cj.mask {
					st.extraFilters = append(st.extraFilters, cj.fn)
					claimed[ci] = true
				}
			}
			steps = append(steps, st)
		}
		mask = newMask
	}
	// WHERE conjuncts touching outer-joined relations (and constants) run
	// after null-extension, per SQL semantics.
	var fns []exprFn
	for ci, cj := range conjs {
		if !claimed[ci] {
			fns = append(fns, cj.fn)
		}
	}
	if len(fns) > 0 {
		steps = append(steps, &filterStep{filters: fns})
	}
	return steps, nil
}

// slotFn returns an exprFn reading one slot of the current row — of a
// post-aggregation row, whose layout is fixed: group values, then aggregates.
func slotFn(idx int) exprFn {
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		return rows[len(rows)-1][idx], nil
	}
}

// slotFn returns an exprFn reading the relation's column col from the
// current row, and marks the column read. The planner reads join-edge
// columns by slot, so the roles come with the join order (markEdges).
func (ri *relInfo) slotFn(col int) exprFn {
	slot := &ri.slots[col]
	markRead(slot, 0)
	return func(rt *runtime, rows rowStack) (val.Value, error) {
		return rows[len(rows)-1][*slot], nil
	}
}
