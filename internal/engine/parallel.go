package engine

import (
	"fmt"
	stdruntime "runtime"
	"sync"

	"r3bench/internal/cost"
	"r3bench/internal/val"
)

// Parallel query execution splits the leading sequential scan of a block
// into contiguous page partitions, runs the full join/aggregation pipeline
// over each partition in a worker goroutine — a lane is an ordinary batch
// run (vecRun) whose lead source is its page range — and recombines
// partial results on the coordinator in partition order. Because
// partitions are contiguous and recombined in order, and because every
// combining operation downstream (exact sums, min/max, first-seen group
// order) is order-compatible with concatenation, a parallel run produces
// output byte-identical to the serial run.
//
// Virtual-clock accounting follows the parallel combining rule: the
// partitions run as cost.Lanes, each worker charging its lane's meter, and
// the session meter folds the lanes with cost.Meter.AddParallel — elapsed
// session time advances by the slowest worker while resource totals sum.
//
// A lane sizes what it needs by its rows — a partition's hash table and
// scan frame, its batch frames, projection slabs and accumulator — from its
// lane's scratch (scratch.lane): lane 0 runs on the coordinator's goroutine
// and takes the statement's, lane i > 0 the statement scratch's child i.
// All of it stays valid until the statement ends, so the coordinator merges
// the lanes' rows and groups where they lie; the hash tables go back to
// their scratches once the lanes are done with them.

// parallelSlots bounds worker goroutines across all concurrently running
// parallel operations in the process. cost.Lanes.Run runs lane 0 on the
// coordinator's own goroutine and every other lane takes a slot inside its
// lane function (laneSlot), so the coordinator's partition never waits for
// a slot and progress never depends on slot availability; workers never
// spawn nested parallel work (their runtime carries a lane meter, which
// disables parallel dispatch).
var parallelSlots = make(chan struct{}, func() int {
	n := 2 * stdruntime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}())

// laneSlot holds a parallelSlots slot for worker lane i > 0 until the
// returned release runs; the coordinator's lane 0 takes none.
func laneSlot(i int) (release func()) {
	if i > 0 {
		parallelSlots <- struct{}{}
		return func() { <-parallelSlots }
	}
	return func() {}
}

// partitionPages splits [0, pages) into at most k contiguous non-empty
// ranges, earlier ranges one page larger when the split is uneven.
func partitionPages(pages, k int) [][2]int {
	if k > pages {
		k = pages
	}
	if k < 1 {
		return nil
	}
	parts := make([][2]int, 0, k)
	per, extra := pages/k, pages%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + per
		if i < extra {
			hi++
		}
		parts = append(parts, [2]int{lo, hi})
		lo = hi
	}
	return parts
}

// runParallel drains the block with p.parallel partition workers and merges
// their runs, in partition order, into o, the coordinator's sink for emit. A
// plan that cannot be split at run time (e.g. the table shrank below the
// gate) is not merged; it returns the hash tables built here, by step, to
// drain serially over — the serial block hands them back (blockExec.drop).
func (p *selectPlan) runParallel(rt *runtime, outer rowStack, o *outputSink, emit func([]val.Value) error) (bool, []*hashTable, error) {
	var pages [][2]int
	lead, leadOK := p.steps[0].(*scanStep)
	if leadOK && lead.rel.table != nil && lead.access.index == nil {
		pages = partitionPages(lead.rel.table.Heap.Pages(), p.parallel)
	}

	// Workers share the statement's subquery cache under one lock; their
	// runtimes carry private lane meters.
	subMu := &sync.Mutex{}
	subCache := rt.subs()
	model := rt.sess.Meter.Model()

	pp := rt.planProf(p) // nil unless running under ExplainAnalyze

	// Pre-build every hash-join table once on the coordinator so workers
	// share a read-only build side instead of each building their own —
	// partitioned parallel build when the build side is a wide-enough
	// base-table scan, serial coordinator build otherwise.
	var shared []*hashTable
	for si := 1; si < len(p.steps); si++ {
		hs, ok := p.steps[si].(*hashStep)
		if !ok {
			continue
		}
		restore := noopRestore
		if pp != nil {
			restore = rt.spanScope(pp.steps[si])
		}
		var ht *hashTable
		var err error
		if hs.rel.table != nil && hs.access.index == nil {
			ht, err = p.parallelBuild(rt, outer, hs, subMu, model)
		}
		if ht == nil && err == nil { // build side not partitionable: build serially
			ht, err = hs.build(rt, outer)
		}
		restore()
		if err != nil {
			rt.sc.putTables(shared)
			return false, nil, err
		}
		if shared == nil {
			shared = make([]*hashTable, len(p.steps))
		}
		shared[si] = ht
	}

	if len(pages) < 2 {
		if shared != nil {
			// Build-only parallelism: probe pipeline runs serially over the
			// pre-built (shared) hash tables.
			rt.sess.db.parallelRuns.Add(1)
		}
		return false, shared, nil
	}
	rt.sess.db.parallelRuns.Add(1)
	fbMain := rt.fbFor(p)

	// Under ExplainAnalyze, per-lane operator detail hangs below one
	// "parallel" span; the span itself receives the max-combined lane
	// elapsed when AddParallel runs, so totals reconcile.
	var par *cost.Span
	var laneSpans []*cost.Span
	if pp != nil {
		par = rt.prof.parallelSpan(p, len(pages))
		laneSpans = make([]*cost.Span, len(pages))
		for i := range pages {
			laneSpans[i] = par.LaneChild(fmt.Sprintf("worker %d", i))
		}
	}

	// Each lane drains its partition into a run of its own: rows or an
	// accumulator, a meter, and — under adaptive replanning — step counts.
	runs := make([]Partial, len(pages))
	var fbs []execFeedback
	if fbMain != nil {
		fbs = make([]execFeedback, len(pages))
	}
	rt.sc.growLanes(len(pages))
	lanes := cost.NewLanes(model, len(pages))
	err := lanes.Run(func(i int, m *cost.Meter) error {
		defer laneSlot(i)()
		rtW := &runtime{sess: rt.sess, params: rt.params, subCache: subCache, subMu: subMu, m: m, sc: rt.sc.lane(i)}
		defer rtW.dropRuns()
		// Every hash table was built above, so lanes only read shared.
		beW := newBlockExec(rtW, outer)
		beW.hashes = shared
		if laneSpans != nil {
			rtW.prof = newExecProfile(laneSpans[i])
			beW.prof = rtW.prof.planFor(p)
		}
		if fbs != nil {
			fbs[i].counts = make([]int64, len(fbMain.counts))
			beW.fb = &fbs[i]
		}
		// A lane's batches stay at the initial capacity and do not grow: the
		// lanes run side by side on every processor, and slabs grown to
		// batchSize (a megabyte per stage for a wide join, all of it pointers
		// the collector scans) cost a lane more in cache misses and
		// collector work than 64-frame batches cost in per-batch overhead.
		// (A parallel plan never stops early — planParallel — so capacity is
		// free to choose.)
		v := newVecRun(p, beW, vecBatchInitial)
		v.pages = &pages[i]
		run := &runs[i]
		var err error
		if p.agg != nil {
			run.acc, err = v.aggregate()
		} else {
			// The coordinator reads the rows after the lane is gone: no
			// slab recycling.
			err = v.project(func(r outRow) error {
				run.rows = rtW.sc.appendRow(run.rows, r)
				return nil
			}, false)
		}
		if err != nil {
			return err
		}
		if beW.prof != nil {
			defer m.SetSpan(m.SetSpan(beW.prof.output))
		}
		// Each worker sorts its partition's output; the coordinator only
		// merges the pre-sorted runs.
		if p.agg != nil {
			chargeSort(m, run.acc.nInput, 48)
		} else if len(p.orderKeys) > 0 {
			chargeSort(m, int64(len(run.rows)), int64(len(p.projections)+len(p.orderKeys))*24)
		}
		return nil
	})

	restorePar := rt.spanScope(par)
	rt.sess.Meter.AddParallel(lanes...)
	restorePar()
	// The lanes are done with the hash tables: what they projected or
	// grouped holds none of their memory.
	rt.sc.putTables(shared)
	if err != nil {
		return false, nil, err
	}
	// Sum lane counts in partition order — addition commutes, so the totals
	// match the serial execution's counts exactly.
	for _, fb := range fbs {
		for j, c := range fb.counts {
			fbMain.counts[j] += c
		}
	}

	if pp != nil {
		defer rt.spanScope(pp.output)()
	}
	o.p = p
	o.reset(rt, emit)
	return true, nil, o.merge(runs, false)
}

// parallelBuild builds a hash-join table by partitioned parallel scan of
// the build relation. Per-partition tables merge in partition order, so
// each key's match chain is in heap-scan order exactly as a serial build
// would produce. Each partition's table and scan frame come from its
// lane's scratch, the table sized for its share of the rows; the merged
// table is lane 0's, holding the other lanes' tables until it goes back.
// Returns nil (no error) when the relation is too small to split, in which
// case the caller builds serially.
func (p *selectPlan) parallelBuild(rt *runtime, outer rowStack, s *hashStep, subMu *sync.Mutex, model cost.Model) (*hashTable, error) {
	parts := partitionPages(s.rel.table.Heap.Pages(), p.parallel)
	if len(parts) < 2 {
		return nil, nil
	}
	subCache := rt.subs()
	tables := make([]*hashTable, len(parts))
	counts := make([]int64, len(parts))
	rt.sc.growLanes(len(parts))
	lanes := cost.NewLanes(model, len(parts))
	err := lanes.Run(func(i int, m *cost.Meter) error {
		defer laneSlot(i)()
		rtW := &runtime{sess: rt.sess, params: rt.params, subCache: subCache, subMu: subMu, m: m, sc: rt.sc.lane(i)}
		defer rtW.dropRuns()
		b := newHashBuild(s, rtW, s.rel.estRows/float64(len(parts)))
		tables[i] = b.ht
		var err error
		counts[i], err = b.scan(outer, &parts[i])
		return err
	})
	rt.sess.Meter.AddParallel(lanes...)
	if err != nil {
		return nil, err
	}
	merged := tables[0]
	nRows := counts[0]
	for i := 1; i < len(tables); i++ {
		merged.absorb(tables[i])
		nRows += counts[i]
	}
	s.chargeBuild(rt.meter(), nRows)
	return merged, nil
}
