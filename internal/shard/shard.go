// Package shard runs the TPC-D workload across N in-process engine
// instances: LINEITEM and ORDERS hash-partitioned on the order key,
// CUSTOMER and SUPPLIER on their own keys, and the small dimensions
// (REGION, NATION, PART, PARTSUPP) replicated onto every shard. A
// coordinator plans each of Q1–Q17 as a distributed execution — partial
// aggregation pushed below a gather exchange, re-aggregation above it,
// joins either co-partitioned, fed by a broadcast of the smaller side,
// or repartitioned by a shuffle — and merges per-shard results through
// the engine's exact accumulator merge (engine.QueryPartial /
// MergePartials), so the distributed answer is byte-identical to a
// single engine's.
//
// Exchange traffic is charged to the virtual clock as cost.NetShip
// (per-row transfer plus per-packet latency); per-shard work runs on
// private cost.Lanes folded with cost.Meter.AddParallel, the same
// max-elapsed/sum-resources rule the intra-query workers use. The span
// tree recorded for every query therefore reconciles exactly with the
// cluster meter — the paper's Tables 4/5 interface-crossing ledger,
// re-drawn with a network column (DESIGN.md §13).
package shard

import (
	"fmt"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/tpcd"
)

// Config sizes a cluster.
type Config struct {
	// Shards is the number of engine instances (≥1).
	Shards int
	// Options configures every shard's engine; its ArrayFetch also
	// governs the coordinator's final row shipping.
	Options engine.Options
}

// Cluster is N engine shards plus the coordinator that plans and runs
// distributed queries over them. It implements tpcd.Implementation, so
// the power test drives it exactly like the single-engine RDBMS. A
// Cluster runs one statement at a time — the coordinator keeps per-query
// exchange state — which is all the power test needs.
type Cluster struct {
	n     int
	dbs   []*engine.DB
	model cost.Model
	meter *cost.Meter
	gen   *dbgen.Generator
	qs    []tpcd.Query

	mu       sync.Mutex
	shipped  [18]int64 // rows crossing shard boundaries, per query
	lastSpan *cost.Span
}

// Open creates an empty cluster of cfg.Shards engine instances.
func Open(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	model := cost.Default1996()
	c := &Cluster{
		n:     cfg.Shards,
		model: model,
		meter: cost.NewMeter(model),
	}
	for i := 0; i < cfg.Shards; i++ {
		db := engine.Open(engine.Config{CostModel: model})
		db.SetOptions(cfg.Options)
		c.dbs = append(c.dbs, db)
	}
	return c
}

// shardOf maps a partitioning key to its owning shard. dbgen's key
// spaces are strided (order keys advance in sparse steps), so a plain
// key%n would skew; a multiplicative mix spreads any stride evenly and
// is trivially deterministic across runs and shard counts.
func shardOf(key int64, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// Shards returns the cluster width.
func (c *Cluster) Shards() int { return c.n }

// Name implements tpcd.Implementation.
func (c *Cluster) Name() string {
	return fmt.Sprintf("Sharded RDBMS (%d shards)", c.n)
}

// Meter implements tpcd.Implementation: the coordinator's clock, into
// which every per-shard lane folds via AddParallel.
func (c *Cluster) Meter() *cost.Meter { return c.meter }

// Load partitions the generated population across the shards: each
// shard bulk-loads only the rows it owns, replicated dimensions load
// everywhere, and the per-shard load meters combine as parallel lanes
// (the shards genuinely load concurrently). Byte-determinism follows
// from the fixed-seed generator streams plus the deterministic hash.
func (c *Cluster) Load(g *dbgen.Generator) error {
	c.gen = g
	c.qs = tpcd.Queries(g.SF)
	return c.lanes(nil, func(i int, m *cost.Meter) error {
		keep := func(table string, key int64) bool {
			return shardOf(key, c.n) == i
		}
		return tpcd.LoadPartition(c.dbs[i], g, m, keep)
	})
}

// RowsShipped returns the total exchange rows that crossed shard
// boundaries since Open.
func (c *Cluster) RowsShipped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, n := range c.shipped {
		total += n
	}
	return total
}

// ShippedFor returns the exchange rows charged to query q so far.
func (c *Cluster) ShippedFor(q int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q < 1 || q >= len(c.shipped) {
		return 0
	}
	return c.shipped[q]
}

// LastSpan returns the span tree of the most recent RunQuery: the
// distributed operator tree with exchange nodes carrying shipped-row
// counts. Its Total reconciles exactly with the cluster meter's lap
// over that query.
func (c *Cluster) LastSpan() *cost.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSpan
}

// noteShipped books the rows each sender of an exchange moved across shard
// boundaries against query q and the exchange's span.
func (c *Cluster) noteShipped(q int, sp *cost.Span, crossed []int64) {
	var n int64
	for _, x := range crossed {
		n += x
	}
	sp.AddRows(n)
	c.mu.Lock()
	if q >= 1 && q < len(c.shipped) {
		c.shipped[q] += n
	}
	c.mu.Unlock()
}

// lanes runs fn once per shard as cost.Lanes, each on a private meter, and
// folds the meters into the cluster meter with the parallel combining rule
// (max elapsed, summed resources). With a span, each lane renders under it
// as "shard i" and the fold is booked to it. It returns the first error
// (all lanes run to completion first — partial exchanges must not leave
// goroutines behind).
func (c *Cluster) lanes(sp *cost.Span, fn func(shard int, m *cost.Meter) error) error {
	lanes := cost.NewLanes(c.model, c.n)
	if sp != nil {
		for i, m := range lanes {
			m.SetSpan(sp.LaneChild(fmt.Sprintf("shard %d", i)))
		}
	}
	err := lanes.Run(fn)
	if sp != nil {
		prev := c.meter.SetSpan(sp)
		defer c.meter.SetSpan(prev)
	}
	c.meter.AddParallel(lanes...)
	return err
}

// parallelPhase is lanes under a span child of parent.
func (c *Cluster) parallelPhase(parent *cost.Span, name string, fn func(shard int, m *cost.Meter) error) (*cost.Span, error) {
	sp := parent.Child(name)
	return sp, c.lanes(sp, fn)
}

// serialPhase runs fn on one private meter and folds it into the
// cluster meter with the serial (sum) rule under a span child.
func (c *Cluster) serialPhase(parent *cost.Span, name string, fn func(m *cost.Meter) error) (*cost.Span, error) {
	sp := parent.Child(name)
	m := cost.NewMeter(c.model)
	m.SetSpan(sp.LaneChild("shard 0"))
	err := fn(m)
	prev := c.meter.SetSpan(sp)
	c.meter.AddSum(m)
	c.meter.SetSpan(prev)
	return sp, err
}
