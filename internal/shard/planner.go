// The distributed planner: one strategy per TPC-D query, chosen from
// the schema's partitioning. LINEITEM and ORDERS are co-partitioned on
// the order key, so order↔lineitem joins (Q4, Q12) and single-table
// scans (Q1, Q6, Q13, Q14 — PART is replicated) run shard-local and
// need only the partial-aggregate gather. Joins against a partitioned
// dimension broadcast the smaller side (CUSTOMER and/or SUPPLIER —
// |customer| = SF×150k vs |lineitem| ≈ SF×6M, so broadcasting the
// dimension ships orders of magnitude fewer rows than repartitioning
// the fact). Q17's self-join correlates lineitem with itself on
// l_partkey, a key lineitem is not partitioned on: the three touched
// columns shuffle into a partkey-partitioned temp, after which both the
// outer scan and the correlated AVG are partkey-local. Queries whose
// final aggregation needs a globally complete view before any partial
// could be taken (Q2's MIN over all suppliers, Q11's HAVING against a
// global total, Q16's NOT IN over all suppliers) gather the one
// partitioned input to shard 0 and run there unchanged.
package shard

import (
	"fmt"
	"strings"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

type mode int

const (
	// modePartial runs the (rewritten) statement on every shard via
	// QueryPartial and merges at the coordinator.
	modePartial mode = iota
	// modeSingle gathers the partitioned inputs to shard 0 and runs the
	// statement there whole.
	modeSingle
	// modeQ15 is the view query: distributed partial for the view body,
	// then a shard-0 final over the materialized view.
	modeQ15
)

// strategy is the distributed plan recipe for one query.
type strategy struct {
	mode       mode
	bcast      []string // partitioned tables to broadcast before the run
	shuffleTab string   // table to repartition ("" = none)
	shuffleKey int      // hash column's index in the shuffled projection
	gather     []string // modeSingle: tables to gather to shard 0
	class      string   // exchange class, for the shardscale metrics
}

var strategies = map[int]strategy{
	1:  {mode: modePartial, class: "scan"},
	2:  {mode: modeSingle, gather: []string{"supplier"}, class: "gather"},
	3:  {mode: modePartial, bcast: []string{"customer"}, class: "broadcast"},
	4:  {mode: modePartial, class: "copart"},
	5:  {mode: modePartial, bcast: []string{"customer", "supplier"}, class: "broadcast"},
	6:  {mode: modePartial, class: "scan"},
	7:  {mode: modePartial, bcast: []string{"supplier", "customer"}, class: "broadcast"},
	8:  {mode: modePartial, bcast: []string{"supplier", "customer"}, class: "broadcast"},
	9:  {mode: modePartial, bcast: []string{"supplier"}, class: "broadcast"},
	10: {mode: modePartial, bcast: []string{"customer"}, class: "broadcast"},
	11: {mode: modeSingle, gather: []string{"supplier"}, class: "gather"},
	12: {mode: modePartial, class: "copart"},
	13: {mode: modePartial, class: "scan"},
	14: {mode: modePartial, class: "copart"},
	15: {mode: modeQ15, class: "gather"},
	16: {mode: modeSingle, gather: []string{"supplier"}, class: "gather"},
	17: {mode: modePartial, shuffleTab: "lineitem", shuffleKey: 0, class: "shuffle"},
}

// QueryClass returns the exchange class label for query q ("scan",
// "copart", "broadcast", "shuffle", "gather").
func QueryClass(q int) string { return strategies[q].class }

// RunQuery implements tpcd.Implementation: it plans and runs query q
// across the shards and returns rows byte-identical to a single
// engine's. The whole query runs under one span tree, retrievable via
// LastSpan, whose Total reconciles exactly with the cluster meter's lap
// over the call.
func (c *Cluster) RunQuery(q int) ([][]val.Value, error) {
	if c.qs == nil {
		return nil, fmt.Errorf("shard: cluster not loaded")
	}
	if q < 1 || q > 17 {
		return nil, fmt.Errorf("shard: no query Q%d", q)
	}
	qu := c.qs[q-1]
	root := cost.NewSpan(fmt.Sprintf("Q%d over %d shards [%s]", q, c.n, strategies[q].class))
	prev := c.meter.SetSpan(root)
	defer func() {
		c.meter.SetSpan(prev)
		c.mu.Lock()
		c.lastSpan = root
		c.mu.Unlock()
	}()
	if c.n == 1 {
		return c.runLocal(qu)
	}
	st := strategies[q]
	var rows [][]val.Value
	var err error
	switch st.mode {
	case modeSingle:
		rows, err = c.runSingle(q, root, qu, st)
	case modeQ15:
		rows, err = c.runQ15(q, root, qu)
	default:
		rows, err = c.runPartial(q, root, qu, st)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: Q%d: %w", q, err)
	}
	return rows, nil
}

// runLocal is the one-shard degenerate cluster: plain statement
// execution on the only shard, charges straight on the cluster meter —
// exactly the isolated RDBMS, plus the coordinator's span.
func (c *Cluster) runLocal(qu tpcd.Query) ([][]val.Value, error) {
	sess := c.dbs[0].NewSessionWithMeter(c.meter)
	var last *engine.Result
	for _, sql := range qu.SQL {
		res, err := sess.Exec(sql)
		if err != nil {
			return nil, err
		}
		if res.Cols != nil {
			last = res
		}
	}
	if last == nil {
		return nil, nil
	}
	return last.Rows, nil
}

// runPartial broadcasts/shuffles whatever the statement needs, runs the
// rewritten statement on every shard up to partial state, and merges at
// the coordinator.
func (c *Cluster) runPartial(q int, root *cost.Span, qu tpcd.Query, st strategy) ([][]val.Value, error) {
	if len(qu.SQL) != 1 {
		return nil, fmt.Errorf("multi-statement query cannot run in partial mode")
	}
	sql := qu.SQL[0]
	var temps []string
	defer func() { c.dropTemps(root, temps, allShards(c.n)) }()
	for _, t := range st.bcast {
		tmp := t + "_bx"
		if _, err := c.broadcast(q, root, t, tmp); err != nil {
			return nil, err
		}
		temps = append(temps, tmp)
		sql = rewriteIdent(sql, t, tmp)
	}
	if st.shuffleTab != "" {
		tmp := st.shuffleTab + "_sx"
		if _, err := c.shuffle(q, root, st.shuffleTab, tmp, st.shuffleKey); err != nil {
			return nil, err
		}
		temps = append(temps, tmp)
		sql = rewriteIdent(sql, st.shuffleTab, tmp)
	}
	res, err := c.partialMerge(q, root, sql)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// partialMerge is the gather exchange over partial results: every shard
// executes sql up to partial state, ships its partial to the
// coordinator (co-located with shard 0, whose partial never crosses),
// and the coordinator merges and finalizes on the cluster meter.
func (c *Cluster) partialMerge(q int, root *cost.Span, sql string) (*engine.Result, error) {
	parts := make([]*engine.Partial, c.n)
	var crossed int64
	var mu sync.Mutex
	sp, err := c.parallelPhase(root, "partial execute", func(i int, m *cost.Meter) error {
		sess := c.dbs[i].NewSessionWithMeter(m)
		pa, err := sess.QueryPartial(sql)
		if err != nil {
			return err
		}
		parts[i] = pa
		if i != 0 {
			n := pa.ShipRows()
			cost.ChargeNetShip(m, n)
			mu.Lock()
			crossed += n
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp.AddRows(crossed)
	c.noteShipped(q, crossed)

	mergeSp := root.Child("gather-merge + finalize")
	prev := c.meter.SetSpan(mergeSp)
	sess := c.dbs[0].NewSessionWithMeter(c.meter)
	res, err := sess.MergePartials(parts)
	c.meter.SetSpan(prev)
	if err != nil {
		return nil, err
	}
	mergeSp.AddRows(int64(len(res.Rows)))
	return res, nil
}

// runSingle gathers the partitioned inputs onto shard 0 and runs the
// statement there whole; the coordinator is co-located, so the final
// result rows do not cross the network.
func (c *Cluster) runSingle(q int, root *cost.Span, qu tpcd.Query, st strategy) ([][]val.Value, error) {
	if len(qu.SQL) != 1 {
		return nil, fmt.Errorf("multi-statement query cannot run in single-shard mode")
	}
	sql := qu.SQL[0]
	var temps []string
	defer func() { c.dropTemps(root, temps, []int{0}) }()
	for _, t := range st.gather {
		tmp := t + "_gx"
		if _, err := c.gather(q, root, t, tmp); err != nil {
			return nil, err
		}
		temps = append(temps, tmp)
		sql = rewriteIdent(sql, t, tmp)
	}
	var rows [][]val.Value
	_, err := c.serialPhase(root, "execute@shard0", func(m *cost.Meter) error {
		sess := c.dbs[0].NewSessionWithMeter(m)
		res, err := sess.Exec(sql)
		if err != nil {
			return err
		}
		rows = res.Rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runQ15 handles the view query: the revenue0 view body (a lineitem
// GROUP BY — shard-local) runs as a distributed partial whose merged
// result materializes on shard 0; supplier gathers there too; then the
// final SELECT runs on shard 0 against the two temps. The CREATE VIEW /
// DROP VIEW statements of the serial text are subsumed by the temp.
func (c *Cluster) runQ15(q int, root *cost.Span, qu tpcd.Query) ([][]val.Value, error) {
	if len(qu.SQL) != 3 {
		return nil, fmt.Errorf("unexpected Q15 statement count %d", len(qu.SQL))
	}
	idx := strings.Index(qu.SQL[0], "SELECT")
	if idx < 0 {
		return nil, fmt.Errorf("cannot find view body in %q", qu.SQL[0])
	}
	viewSQL := qu.SQL[0][idx:]
	view, err := c.partialMerge(q, root, viewSQL)
	if err != nil {
		return nil, err
	}
	temps := []string{"revenue0_dx", "supplier_gx"}
	defer func() { c.dropTemps(root, temps, []int{0}) }()
	_, err = c.serialPhase(root, "materialize(revenue0_dx)", func(m *cost.Meter) error {
		return c.materialize(0, m, "revenue0_dx", exchTables["revenue0"].ddl, view.Rows)
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.gather(q, root, "supplier", "supplier_gx"); err != nil {
		return nil, err
	}
	final := rewriteIdent(qu.SQL[1], "revenue0", "revenue0_dx")
	final = rewriteIdent(final, "supplier", "supplier_gx")
	var rows [][]val.Value
	_, err = c.serialPhase(root, "execute@shard0", func(m *cost.Meter) error {
		sess := c.dbs[0].NewSessionWithMeter(m)
		res, err := sess.Exec(final)
		if err != nil {
			return err
		}
		rows = res.Rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunUF1 implements tpcd.Implementation: the new-order set routes by
// shardOf(order key) and each shard applies its inserts concurrently
// through prepared statements, lanes combining in parallel — the
// co-partitioning invariant (an order and its lineitems on one shard)
// is maintained by construction.
func (c *Cluster) RunUF1() error {
	if c.gen == nil {
		return fmt.Errorf("shard: cluster not loaded")
	}
	buckets := make([][]*dbgen.Order, c.n)
	if err := c.gen.UF1Orders(func(o *dbgen.Order) error {
		s := shardOf(o.Key, c.n)
		buckets[s] = append(buckets[s], o)
		return nil
	}); err != nil {
		return err
	}
	return c.lanes(nil, func(i int, m *cost.Meter) error {
		return tpcd.ApplyUF1(c.dbs[i].NewSessionWithMeter(m), buckets[i])
	})
}

// RunUF2 implements tpcd.Implementation: the delete set routes by
// shardOf(order key); each shard deletes only keys it owns.
func (c *Cluster) RunUF2() error {
	if c.gen == nil {
		return fmt.Errorf("shard: cluster not loaded")
	}
	buckets := make([][]int64, c.n)
	for _, k := range c.gen.UF2OrderKeys() {
		s := shardOf(k, c.n)
		buckets[s] = append(buckets[s], k)
	}
	return c.lanes(nil, func(i int, m *cost.Meter) error {
		return tpcd.ApplyUF2(c.dbs[i].NewSessionWithMeter(m), buckets[i])
	})
}

var _ tpcd.Implementation = (*Cluster)(nil)
