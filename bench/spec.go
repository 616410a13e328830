package main

import (
	"encoding/json"
	"fmt"

	"r3bench/internal/cost"
)

// The one table of sizes. Op counts are fixed so that counts repeat and two
// commits are compared at equal work; passes10 is how many timed passes ten
// seconds of -seconds buy, sized from probes on the 2-core box the seed was
// measured on (a pass there takes the time in the comment). A run that
// falls far behind that (a slower or busier box) stops after the pass in
// which it exceeds twice -seconds, see timedPasses.
type size struct {
	sf       float64 // TPC-D scale factor of the database(s) the workload builds
	clients  int     // concurrent closed-loop sessions
	passOps  int     // per client per pass: ops (oltp_read_wire), transactions (oltp_write_wal); the 17 queries / 68 reports otherwise
	passes10 int     // timed passes per 10 s of -seconds
	parallel int     // engine.Config.Parallel
}

type workload struct {
	name  string
	why   string
	full  size
	smoke size
	run   func(*runCfg) (*result, error)
}

var workloads = []workload{
	{
		name:  "dss_power_wire",
		why:   "TPC-D Q1-Q17 at degree 1 over TCP, data larger than the buffer pool: executor, row decode and pool scan path do the work; parse, wire and WAL almost none",
		full:  size{sf: 0.01, clients: 1, passes10: 14}, // pass ≈ 0.7 s
		smoke: size{sf: 0.002, clients: 1, passes10: 1},
		run:   runWire,
	},
	{
		name:  "dss_parallel_wire",
		why:   "same data and queries at parallel degree 2: big scans run through the partitioned lanes, which still execute on the row pipeline; must not move when dss_power_wire moves alone",
		full:  size{sf: 0.01, clients: 1, passes10: 16, parallel: 2}, // pass ≈ 0.6 s
		smoke: size{sf: 0.002, clients: 1, passes10: 1, parallel: 2},
		run:   runWire,
	},
	{
		name:  "oltp_read_wire",
		why:   "short prepared, literal and array reads from 2 clients, Zipf keys whose hot set fits the pool: transport, parser, plan cache, per-statement overhead, B-tree probe and heap fetch do the work",
		full:  size{sf: 0.01, clients: 2, passOps: 10000, passes10: 8}, // pass ≈ 1.25 s
		smoke: size{sf: 0.002, clients: 2, passOps: 1500, passes10: 1},
		run:   runWire,
	},
	{
		name:  "oltp_write_wal",
		why:   "new-order transactions beside point reads from 2 clients under WAL with group commit 8, then a crash cut and recovery: inserts, copy-on-write pages, log, checkpoints and durability",
		full:  size{sf: 0.01, clients: 2, passOps: 1500, passes10: 9}, // pass ≈ 1.1 s
		smoke: size{sf: 0.002, clients: 2, passOps: 150, passes10: 1},
		run:   runWire,
	},
	{
		name:  "r3_reports",
		why:   "the paper's subject: the 17 reports under Open/Native SQL on R/3 2.2G and 3.0E, in process: Open SQL translation, nested SELECT loops, cursor cache, ITab grouping; the engine as a per-call service",
		full:  size{sf: 0.001, clients: 1, passes10: 5}, // pass ≈ 2.0 s
		smoke: size{sf: 0.0005, clients: 1, passes10: 1},
		run:   runR3,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupRepeats is how many times a run builds its database; setup_s uses
// the median build time, so one slow build does not read as a regression.
const setupRepeats = 3

// groupCommit is the flush policy of oltp_write_wal: a log force every 8th
// commit, so up to 7 acknowledged statements may be lost by a crash.
const groupCommit = 8

// metric is one catalogue entry; the names are an API that later issues
// refer to, and BENCHMARK.json lists exactly these.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd is what a user of the system sees, measured untraced. bound is
// the share of the parent's median by which the metric may get worse.
var endToEnd = []metric{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "ops/s", "higher", bound(0.25)},
	{"op_geomean_ms", "ms", "lower", bound(0.25)},
	{"op_p50_ms", "ms", "lower", bound(0.25)},
	{"slowest_class_ms", "ms", "lower", bound(0.25)},
	{"sim_pass_s", "sim-s", "lower", bound(0.15)},
	{"allocs_per_op", "allocs", "lower", bound(0.03)},
	{"alloc_kb_per_op", "KiB", "lower", bound(0.03)},
	{"live_heap_mb", "MiB", "lower", bound(0.05)},
	{"space_amp", "ratio", "lower", bound(0.02)},
}

// r3Strategies are the metric-name forms of the four report strategies.
var r3Strategies = []string{"open22", "native22", "open30", "native30"}

// simKinds are the event classes whose share of simulated time is reported.
var simKinds = [...]cost.Kind{cost.SeqRead, cost.RandRead, cost.PageWrite, cost.TupleCPU, cost.SortCPU,
	cost.Interface, cost.RowShip, cost.Translate, cost.Decode, cost.Commit, cost.WalWrite}

// perLayer is what the traced run reports, layer by layer (layer = package).
// A metric reads 0 on a workload where its layer does not run.
var perLayer = func() []metric {
	m := func(name, unit, better string) metric { return metric{Name: name, Unit: unit, Better: better} }
	ms := []metric{
		m("sqlparse.parse_ns", "ns", "lower"),
		m("sqlparse.parse_mb_s", "MB/s", "higher"),
		m("sqlparse.parse_allocs", "allocs", "lower"),

		m("engine.parsecache.hit_ratio", "ratio", "higher"),
		m("engine.prepare_miss_ns", "ns", "lower"),
		m("engine.prepare_hit_ns", "ns", "lower"),
		m("engine.plan.hist_estimates", "count", "higher"),
		m("engine.plan.default_estimates", "count", "lower"),

		m("engine.exec_share", "ratio", "lower"),
		m("engine.exec_ns_per_tuple", "ns", "lower"),
		m("engine.tuples_per_row", "ratio", "lower"),
		m("engine.exec_allocs_per_op", "allocs", "lower"),
		m("engine.exec_alloc_kb_per_op", "KiB", "lower"),
		m("engine.stmt_overhead_ns", "ns", "lower"),
		m("engine.parallel.runs", "count", "higher"),
		m("engine.parallel.selects", "count", "higher"),
		m("engine.interface_calls_per_op", "count", "lower"),
		m("engine.rows_shipped_per_op", "count", "lower"),

		m("storage.pool.hit_ratio", "ratio", "higher"),
		m("storage.pool.misses_per_op", "count", "lower"),
		m("storage.pool.readahead_hit_ratio", "ratio", "higher"),
		m("storage.pool.get_hit_ns", "ns", "lower"),
		m("storage.pool.get_miss_ns", "ns", "lower"),
		m("storage.pool.mutate_ns", "ns", "lower"),
		m("storage.heap.fetch_ns", "ns", "lower"),
		m("storage.heap.insert_ns", "ns", "lower"),
		m("storage.heap.delete_ns", "ns", "lower"),
		m("storage.heap.scan_ns_per_row", "ns", "lower"),
		m("storage.wal.bytes_per_user_byte", "ratio", "lower"),
		m("storage.wal.records_per_commit", "ratio", "lower"),
		m("storage.wal.avg_group", "count", "higher"),
		m("storage.wal.fsyncs_per_commit", "ratio", "lower"),
		m("storage.wal.checkpoints", "count", "lower"),
		m("storage.wal.append_commit_ns", "ns", "lower"),
		m("storage.wal.log_mb", "MiB", "lower"),
		m("storage.wal.acked_lost", "count", "lower"),
		m("storage.recover.redone", "count", "lower"),
		m("storage.recover.pages_restored", "count", "lower"),
		m("storage.recover.recover_s", "s", "lower"),

		m("btree.seek_ns", "ns", "lower"),
		m("btree.next_ns", "ns", "lower"),
		m("btree.insert_ns", "ns", "lower"),
		m("btree.delete_ns", "ns", "lower"),
		m("btree.index_cache.hit_ratio", "ratio", "higher"),
		m("btree.bulkbuild_ns_per_entry", "ns", "lower"),

		m("val.rowcodec.encode_ns", "ns", "lower"),
		m("val.rowcodec.decode_ns", "ns", "lower"),
		m("val.key.encode_ns", "ns", "lower"),

		m("wire.encode_ns_per_row", "ns", "lower"),
		m("wire.decode_ns_per_row", "ns", "lower"),
		m("wire.decode_allocs_per_row", "allocs", "lower"),
		m("wire.bytes_per_row", "B", "lower"),
		m("wire.bytes_per_op", "B", "lower"),
		m("wire.frame_ns", "ns", "lower"),

		m("client.op_p99_ms", "ms", "lower"),
		m("client.floor_rtt_ns", "ns", "lower"),
		m("server.transport_ns", "ns", "lower"),
		m("server.transport_share", "ratio", "lower"),
		m("client.array_rows_per_s", "rows/s", "higher"),
	}
	for _, s := range r3Strategies {
		ms = append(ms,
			m("r3."+s+".pass_s", "s", "lower"),
			m("r3."+s+".sim_pass_s", "sim-s", "lower"),
			m("r3."+s+".engine_calls_per_report", "count", "lower"),
			m("r3."+s+".rows_shipped_per_report", "count", "lower"),
			m("r3."+s+".wall_over_rdbms_x", "x", "lower"),
			m("r3."+s+".sim_over_rdbms_x", "x", "lower"))
	}
	ms = append(ms,
		m("r3.table_buffer.hit_ratio", "ratio", "higher"),
		m("r3.table_buffer.evictions", "count", "lower"),
		m("r3.cursor_cache.hit_ratio", "ratio", "higher"),
		m("r3.itab.groupby_ns_per_row", "ns", "lower"),
		m("r3.opensql.select_single_hit_ns", "ns", "lower"),
		m("r3.opensql.select_single_miss_ns", "ns", "lower"))
	for _, k := range simKinds {
		ms = append(ms, m("cost.sim_share."+k.String(), "ratio", "lower"))
	}
	ms = append(ms,
		m("cost.sim_share.span.parse_optimize", "ratio", "lower"),
		m("cost.sim_share.span.row_ship", "ratio", "lower"),
		m("cost.sim_share.span.operators", "ratio", "lower"),

		m("dbgen.rows_per_s", "rows/s", "higher"),
		m("tpcd.load_rows_per_s", "rows/s", "higher"),
		m("engine.analyze_s", "s", "lower"),
		m("r3.loaddirect_s", "s", "lower"),

		m("runtime.gc_cycles_per_pass", "count", "lower"),
		m("runtime.gc_pause_ms_per_pass", "ms", "lower"),
		m("runtime.gc_cpu_share", "ratio", "lower"))
	return ms
}()

// manifest renders BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart (bench_test.go compares them).
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			return nil, fmt.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
