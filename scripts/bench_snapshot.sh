#!/bin/sh
# Snapshot the simulated-1996-clock benchmark numbers into BENCH_<date>.json
# at the repo root, so perf changes are reviewable in diffs. Usage:
#
#   ./scripts/bench_snapshot.sh [bench-regex]
#
# The default regex covers the power test per strategy plus the parallel
# degrees, per-query parallel pairs (DESIGN.md §5), the ORDER BY-heavy
# serial queries, the Q1 aggregation benchmark (DESIGN.md §10) and the SQL
# front-end parse benchmarks (DESIGN.md §11) — wall-clock only, no
# simulated time. Real allocs/op land in the snapshot beside sim_ms (B/op
# too, ungated). Set BENCH_OUT to redirect the output file (bench_diff.sh
# uses this for throwaway snapshots). The snapshot also embeds, under
# "metrics", the registry dump of a small harness run: table8 exercises the
# table buffer, readahead and admission control; throughput sweeps 1/2/4/8
# concurrent query streams with the dialog mix; shardscale sweeps the power
# test over 1/2/4/8 engine shards; loadpath ablates WAL, group commit and
# direct-path load against batch input; warehouse ablates incremental
# refresh and aggregate rewrite. Which of these numbers are gated, and
# how, is cmd/benchdiff's gate table (DESIGN.md §7).
set -eu

cd "$(dirname "$0")/.."
regex="${1:-BenchmarkPower22_RDBMS$|BenchmarkPower22_OpenSQL$|BenchmarkPower22_NativeSQL$|BenchmarkPowerParallel|BenchmarkParallelQ|BenchmarkJoinQ|BenchmarkOrderQ|BenchmarkAggQ|BenchmarkTable7_|BenchmarkParse}"
out="${BENCH_OUT:-BENCH_$(date +%F).json}"

raw=$(go test -run xxx -bench "$regex" -benchtime 1x -benchmem . 2>&1) || {
	printf '%s\n' "$raw" >&2
	exit 1
}

mtmp=$(mktemp)
trap 'rm -f "$mtmp"' EXIT
go run ./cmd/r3bench -sf "${METRICS_SF:-0.005}" -exp table8,throughput,shardscale,loadpath,warehouse -metrics-json "$mtmp" >/dev/null
metrics=$(cat "$mtmp")

printf '%s\n' "$raw" | awk -v date="$(date +%F)" -v metrics="$metrics" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # the GOMAXPROCS suffix: names must match across boxes
	sim = ""
	allocs = ""
	bytes = ""
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "sim-ms/op") sim = $i
		if ($(i+1) == "allocs/op") allocs = $i
		if ($(i+1) == "B/op") bytes = $i
	}
	# Parse benchmarks measure only the real machine: they carry
	# allocs/op but no simulated time. Emit them without sim_ms.
	if (sim == "" && allocs == "") next
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\"", name
	if (sim != "") printf ", \"sim_ms\": %s", sim
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
	printf "}"
	if (name ~ /Parallel1_RDBMS/) serial = sim
	if (name ~ /Parallel4_RDBMS/) deg4 = sim
}
BEGIN {
	printf "{\n  \"date\": \"%s\",\n", date
	printf "  \"clock\": \"simulated 1996 hardware (internal/cost)\",\n"
	printf "  \"benchmarks\": [\n"
}
END {
	printf "\n  ]"
	if (serial != "" && deg4 != "")
		printf ",\n  \"power_speedup_deg4\": %.2f", serial / deg4
	if (metrics != "")
		printf ",\n  \"metrics\": %s", metrics
	printf "\n}\n"
}' > "$out"

echo "wrote $out"
cat "$out"
