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
// partitioned input to shard 0 and run there unchanged; so does Q15,
// whose revenue view is itself a shard-local aggregate that merges there.
package shard

import (
	"fmt"
	"strings"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// strategy is the distributed plan recipe for one query: the inputs moved
// into temps, in order, before its statement runs. A statement with an
// input gathered to shard 0 runs there whole; any other runs on every shard
// up to partial state and merges at the coordinator.
type strategy struct {
	inputs []input
	class  string // exchange class, for the shardscale metrics
}

// The inputs the strategies move: CUSTOMER or SUPPLIER broadcast, SUPPLIER
// gathered, LINEITEM's three Q17 columns shuffled by part key, and Q15's
// merged revenue view.
var (
	bcastCustomer   = input{table: "customer", route: broadcast}
	bcastSupplier   = input{table: "supplier", route: broadcast}
	gatherSupplier  = input{table: "supplier", route: gather}
	shuffleLineitem = input{table: "lineitem", route: shuffle, key: 0}
	mergedRevenue   = input{table: "revenue0", route: gather, merged: true}
)

var strategies = map[int]strategy{
	1:  {class: "scan"},
	2:  {inputs: []input{gatherSupplier}, class: "gather"},
	3:  {inputs: []input{bcastCustomer}, class: "broadcast"},
	4:  {class: "copart"},
	5:  {inputs: []input{bcastCustomer, bcastSupplier}, class: "broadcast"},
	6:  {class: "scan"},
	7:  {inputs: []input{bcastSupplier, bcastCustomer}, class: "broadcast"},
	8:  {inputs: []input{bcastSupplier, bcastCustomer}, class: "broadcast"},
	9:  {inputs: []input{bcastSupplier}, class: "broadcast"},
	10: {inputs: []input{bcastCustomer}, class: "broadcast"},
	11: {inputs: []input{gatherSupplier}, class: "gather"},
	12: {class: "copart"},
	13: {class: "scan"},
	14: {class: "copart"},
	15: {inputs: []input{mergedRevenue, gatherSupplier}, class: "gather"},
	16: {inputs: []input{gatherSupplier}, class: "gather"},
	17: {inputs: []input{shuffleLineitem}, class: "shuffle"},
}

// onShard0 reports whether the statement runs whole on shard 0: some input
// is there and nowhere else.
func (st strategy) onShard0() bool {
	for _, in := range st.inputs {
		if in.route == gather {
			return true
		}
	}
	return false
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
		// The one-shard degenerate cluster: plain statement execution on the
		// only shard, charges straight on the cluster meter — exactly the
		// isolated RDBMS, plus the coordinator's span.
		return qu.Run(c.dbs[0].NewSessionWithMeter(c.meter))
	}
	rows, err := c.run(q, root, qu, strategies[q])
	if err != nil {
		return nil, fmt.Errorf("shard: Q%d: %w", q, err)
	}
	return rows, nil
}

// statement splits a query's text into the SELECT that answers it and the
// body of the view it creates, if any: the CREATE VIEW / DROP VIEW around
// Q15's SELECT are subsumed by its merged input's temp.
func statement(qu tpcd.Query) (sel, view string, err error) {
	switch len(qu.SQL) {
	case 1:
		return qu.SQL[0], "", nil
	case 3:
		if i := strings.Index(qu.SQL[0], "SELECT"); i >= 0 {
			return qu.SQL[1], qu.SQL[0][i:], nil
		}
	}
	return "", "", fmt.Errorf("cannot run %d statements distributed", len(qu.SQL))
}

// run moves the strategy's inputs into their temps, in order, rewriting
// the statement to read them, then runs it — whole on shard 0, or as shard
// partials merged at the coordinator, which is co-located with shard 0, so
// the final result rows do not cross the network.
func (c *Cluster) run(q int, root *cost.Span, qu tpcd.Query, st strategy) ([][]val.Value, error) {
	sql, view, err := statement(qu)
	if err != nil {
		return nil, err
	}
	shard0 := st.onShard0()
	var temps []string
	defer func() { c.dropTemps(root, temps, shard0) }()
	for _, in := range st.inputs {
		tmp := in.temp()
		temps = append(temps, tmp)
		if in.merged {
			var res *engine.Result
			if res, err = c.partialMerge(q, root, view); err == nil {
				err = c.land(root, tmp, exchTables[in.table].ddl, [][][]val.Value{res.Rows})
			}
		} else {
			err = c.exchange(q, root, in)
		}
		if err != nil {
			return nil, err
		}
		sql = rewriteIdent(sql, in.table, tmp)
	}
	if !shard0 {
		res, err := c.partialMerge(q, root, sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	var rows [][]val.Value
	_, err = c.serialPhase(root, "execute@shard0", func(m *cost.Meter) error {
		res, err := c.dbs[0].NewSessionWithMeter(m).Exec(sql)
		if err != nil {
			return err
		}
		rows = res.Rows
		return nil
	})
	return rows, err
}

// partialMerge is the gather exchange over partial results: every shard
// executes sql up to partial state, ships its partial to the
// coordinator (co-located with shard 0, whose partial never crosses),
// and the coordinator merges and finalizes on the cluster meter.
func (c *Cluster) partialMerge(q int, root *cost.Span, sql string) (*engine.Result, error) {
	parts := make([]*engine.Partial, c.n)
	crossed := make([]int64, c.n)
	sp, err := c.parallelPhase(root, "partial execute", func(i int, m *cost.Meter) error {
		pa, err := c.dbs[i].NewSessionWithMeter(m).QueryPartial(sql)
		if err != nil {
			return err
		}
		parts[i] = pa
		if i != 0 {
			crossed[i] = pa.ShipRows()
			cost.ChargeNetShip(m, crossed[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.noteShipped(q, sp, crossed)

	mergeSp := root.Child("gather-merge + finalize")
	prev := c.meter.SetSpan(mergeSp)
	res, err := c.dbs[0].NewSessionWithMeter(c.meter).MergePartials(parts)
	c.meter.SetSpan(prev)
	if err != nil {
		return nil, err
	}
	mergeSp.AddRows(int64(len(res.Rows)))
	return res, nil
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
