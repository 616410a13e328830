package main

// comparator is how a gate judges one selected row.
type comparator int

const (
	growthPct  comparator = iota // NEW may exceed OLD by at most limit percent
	ceiling                      // NEW may be at most limit
	floor                        // NEW (or the gate's quotient) must reach limit
	dropPoints                   // a 0..1 ratio may fall at most limit percentage points below OLD
	ratioFloor                   // NEW/OLD must reach limit
)

// gate is one row of the gate table.
type gate struct {
	// title heads the gate's section of the report; consecutive gates
	// with one title judge the same rows and share the section.
	title string
	// Selector. field "sim_ms", "allocs_per_op" or "bytes_per_op" selects
	// that field of the benchmarks (in NEW's order, removed ones appended;
	// an allocs_per_op or bytes_per_op of 0 is unmeasured); field ""
	// selects metrics, sorted
	// by name. prefix/suffix filter the names, names containing except
	// are exempt. With num and den set the section still lists the
	// selection, but what is judged is NEW[num]/NEW[den], printed under
	// caption with `places` decimals; a failure is marked on the den row.
	field          string
	prefix, suffix string
	except         string
	num, den       string
	caption        string
	places         int
	matched        bool   // list only what both snapshots measured
	absolute       bool   // judge NEW alone: no OLD column, nothing ADDED or REMOVED
	format         string // number format of the OLD/NEW columns; "" is %.4g

	cmp   comparator
	limit float64
	label string // status of a failing row
	fail  string // the FAIL line: why this gate exists, as a format of limit
}

// simGrowthPct is the headline threshold; the OK line quotes it.
const simGrowthPct = 10

// gates is the gate table. Thresholds are the ones `make bench-diff` has
// always run with.
var gates = []gate{
	{title: "benchmark", field: "sim_ms", cmp: growthPct, limit: simGrowthPct, label: "REGRESSION",
		fail: "at least one benchmark regressed by more than %.4g%% simulated time"},
	// The batch executor's and the zero-allocation parser's wins live in
	// allocs/op: a regression there is a real wall-clock regression even
	// when the simulated clock is unchanged.
	{title: "allocs/op", field: "allocs_per_op", matched: true, cmp: growthPct, limit: 10, label: "ALLOCS",
		fail: "a benchmark's allocs/op grew by more than %.4g%%"},
	// The width of what is in flight — frames and hash-build rows as wide as
	// the columns read — lives in B/op: the slabs stay as many whatever
	// they hold, so allocs/op cannot see it.
	{title: "bytes/op", field: "bytes_per_op", matched: true, format: "%.0f", cmp: growthPct, limit: 10, label: "BYTES",
		fail: "a benchmark's bytes/op grew by more than %.4g%%"},
	// The front end's budget is absolute, not relative (the pooled parser
	// measures 11 on a TPC-D Q1-class statement); "Old" is the preserved
	// pre-rewrite parser kept for contrast.
	{title: "parse allocs/op (ceiling)", field: "allocs_per_op", prefix: "BenchmarkParse", except: "Old", absolute: true,
		cmp: ceiling, limit: 16, label: "PARSE-ALLOCS",
		fail: "a parse benchmark exceeds the %.4g allocs/op ceiling"},
	// Loose by design: qph shifts with every cost-model change, and the
	// gate exists to catch streams serializing against each other.
	{title: "queries/hour", prefix: "throughput.qph.", cmp: ratioFloor, limit: 0.5, label: "QPH",
		fail: "a throughput.qph metric fell below %.4gx its old value"},
	// Exchange costs swamping the partitioned work.
	{title: "shardscale metric", prefix: "shardscale.", num: "shardscale.simms.shards1", den: "shardscale.simms.shards4",
		caption: "4-shard power-test speedup", places: 2, cmp: floor, limit: 1.5, label: "SCALING",
		fail: "the 4-shard power-test speedup is below %.4gx"},
	// Far under the measured ~2900x: it catches the direct path silently
	// falling back to logged row inserts — keeps Table 3's 26-day batch
	// input retired.
	{title: "loadpath metric", prefix: "loadpath.", num: "loadpath.simms.batchinput", den: "loadpath.simms.directpath",
		caption: "direct-path load speedup", places: 1, cmp: floor, limit: 10, label: "LOAD",
		fail: "the direct-path load speedup is below %.4gx"},
	// Catches change capture silently degrading into a full
	// re-extraction — keeps Table 9's periodic rebuild retired.
	{title: "warehouse metric", prefix: "warehouse.", num: "warehouse.simms.full", den: "warehouse.simms.incremental",
		caption: "incremental refresh speedup", places: 1, cmp: floor, limit: 10, label: "REFRESH",
		fail: "the incremental warehouse-refresh speedup is below %.4gx"},
	{title: "hit-ratio metric", suffix: ".pool.hit_ratio", format: "%.4f", cmp: floor, limit: 0.92, label: "LOW",
		fail: "a pool hit ratio is below %.4g"},
	{title: "hit-ratio metric", suffix: ".pool.hit_ratio", format: "%.4f", cmp: dropPoints, limit: 2, label: "DROP",
		fail: "a pool hit ratio dropped by more than %.4gpp"},
}
