package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// runCfg is what main hands a workload's runner.
type runCfg struct {
	w       *workload
	sz      size
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	dir     string // the benchmark's own directory: goldens in, out/ out
	log     io.Writer
	// updateGolden records this run's warm-up digests as the goldens
	// instead of checking them.
	updateGolden bool
}

func (c *runCfg) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "  [%s] "+format+"\n", append([]any{c.w.name}, args...)...)
}

// timedPasses is how many passes a run times: -seconds' worth by the size
// table, a quarter of that when tracing.
func (c *runCfg) timedPasses() int {
	n := (c.sz.passes10*c.seconds + 5) / 10
	if c.trace {
		n /= 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// overBudget reports whether the timed section has run so far past
// -seconds that the remaining passes are dropped: the size table assumes
// the seed's box, and a run must end within the driver's limit on any box.
func (c *runCfg) overBudget(start time.Time) bool {
	return !c.smoke && time.Since(start) > 2*time.Duration(c.seconds)*time.Second
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	// PassOps is the ops of one pass (what sim_pass_s is the simulated time
	// of); OpsPerS is the wire rate of the timed passes, which on a traced
	// run is the only end-to-end number taken, to show the tracing overhead.
	PassOps int64   `json:"pass_ops"`
	OpsPerS float64 `json:"ops_per_s"`
	// ClassMs is each class's median latency, the terms of op_geomean_ms.
	ClassMs map[string]float64 `json:"class_ms"`
	// P99Ms is the nearest-rank p99 within a pass, median over passes: too
	// much at the mercy of a shared box to be gated end to end, so the
	// ledger carries it as client.op_p99_ms and every run prints it.
	P99Ms float64 `json:"p99_ms"`
}

// newResult starts a run's result from what its measure counted.
func (c *runCfg) newResult(m *measure) *result {
	res := &result{Workload: c.w.name, Seed: c.seed, OpsPerS: ratio(float64(m.ops()), m.wall()), ClassMs: map[string]float64{}, P99Ms: median(m.passP99)}
	for i, samples := range m.perClass {
		res.ClassMs[m.classes[i]] = median(samples)
	}
	if c.trace {
		res.Trace = 1
	}
	if len(m.passOps) > 0 {
		res.PassOps = m.passOps[0]
	}
	return res
}

// close takes the final counts: attempted, failed and the failure notes.
func (res *result) close(m *measure) *result {
	res.Attempted, res.Failed, res.Notes = m.attempted, m.failed, m.notes
	res.Correct = res.Failed == 0
	return res
}

// measure accumulates what the timed passes of a run yield.
type measure struct {
	classes  []string
	perClass [][]float64 // client-observed latency per class, ms
	all      []int64     // every op's latency, ns
	passWall []float64   // s
	passP99  []float64   // ms
	passOps  []int64
	mallocs  uint64
	bytes    uint64
	liveHeap uint64
	gcCycles uint32
	gcPause  uint64

	attempted, failed int64
	notes             []string
}

func newMeasure(classes []string) *measure {
	return &measure{classes: classes, perClass: make([][]float64, len(classes))}
}

// fail counts one failed op (a statement error, a refused connection, a
// wrong answer, a durability violation) and keeps the first few
// descriptions.
func (m *measure) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 10 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// beginPass collects garbage and samples the live heap with the clock
// stopped; the returned snapshot is the pass's allocation baseline.
func (m *measure) beginPass() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.liveHeap {
		m.liveHeap = ms.HeapAlloc
	}
	return ms
}

// endPass folds one timed pass in: its wall time, the whole process's
// allocations during it, and every op's latency by class.
func (m *measure) endPass(before runtime.MemStats, wall time.Duration, lat []int64, class []uint8) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.gcCycles += after.NumGC - before.NumGC
	m.gcPause += after.PauseTotalNs - before.PauseTotalNs
	m.passWall = append(m.passWall, wall.Seconds())
	m.passOps = append(m.passOps, int64(len(lat)))
	for i, ns := range lat {
		m.perClass[class[i]] = append(m.perClass[class[i]], float64(ns)/1e6)
	}
	m.all = append(m.all, lat...)
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m.passP99 = append(m.passP99, float64(percentile(sorted, 0.99))/1e6)
}

// finish samples the live heap once more after the last pass.
func (m *measure) finish() { m.beginPass() }

func (m *measure) ops() int64 {
	var n int64
	for _, o := range m.passOps {
		n += o
	}
	return n
}

func (m *measure) wall() float64 { return sum(m.passWall) }

// endToEnd computes the end-to-end metrics from the timed passes plus the
// three numbers measured around them.
func (m *measure) endToEnd(setupS, simPassS, spaceAmp float64) map[string]float64 {
	ops := float64(m.ops())
	var medians []float64
	slowest := 0.0
	for _, samples := range m.perClass {
		if len(samples) == 0 {
			continue
		}
		md := median(samples)
		medians = append(medians, md)
		if md > slowest {
			slowest = md
		}
	}
	all := append([]int64(nil), m.all...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return map[string]float64{
		"setup_s":          setupS,
		"ops_per_s":        ratio(ops, m.wall()),
		"op_geomean_ms":    geomean(medians),
		"op_p50_ms":        float64(percentile(all, 0.5)) / 1e6,
		"slowest_class_ms": slowest,
		"sim_pass_s":       simPassS,
		"allocs_per_op":    ratio(float64(m.mallocs), ops),
		"alloc_kb_per_op":  ratio(float64(m.bytes)/1024, ops),
		"live_heap_mb":     float64(m.liveHeap) / (1 << 20),
		"space_amp":        spaceAmp,
	}
}
