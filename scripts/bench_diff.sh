#!/bin/sh
# Compare two benchmark snapshots on the simulated clock, failing on a
# >10% regression, a pool hit ratio below MIN_HIT_RATIO (default 0.92),
# a hit-ratio drop of more than 2 percentage points, a real
# allocations-per-op increase beyond MAX_ALLOCS_INCREASE percent
# (default 10; the batch executor's and zero-allocation parser's
# wall-clock wins live in allocs/op, which the simulated clock cannot
# see), a BenchmarkParse* benchmark over the MAX_PARSE_ALLOCS
# absolute allocs/op ceiling (default 16; the pooled front end measures
# 11 on a TPC-D Q1-class statement), or a multi-stream throughput
# metric below MIN_QPH_RATIO times its old value (default 0.5 — loose,
# to catch streams serializing, not tuning drift), or a 4-shard
# power-test speedup (shardscale.simms.shards1/shards4) below
# MIN_SHARD_SCALING (default 1.5 — exchange costs swamping the
# partitioned work), or a direct-path load speedup
# (loadpath.simms.batchinput/directpath) below MIN_LOAD_SPEEDUP
# (default 10 — far under the measured ~2900x; it catches the direct
# path falling back to logged row inserts), or an incremental
# warehouse-refresh speedup (warehouse.simms.full/incremental) below
# MIN_REFRESH_SPEEDUP (default 10 — it catches change capture silently
# degrading into a full re-extraction). Usage:
#
#   ./scripts/bench_diff.sh OLD.json [NEW.json]
#
# With no NEW.json a fresh snapshot is taken into a temp file first, so
# `make bench-diff` gates the working tree against the committed
# baseline.
set -eu

cd "$(dirname "$0")/.."
old="${1:?usage: bench_diff.sh OLD.json [NEW.json]}"
new="${2:-}"

if [ -z "$new" ]; then
	new=$(mktemp)
	trap 'rm -f "$new"' EXIT
	BENCH_OUT="$new" ./scripts/bench_snapshot.sh >/dev/null
fi

exec go run ./cmd/benchdiff -min-hit-ratio "${MIN_HIT_RATIO:-0.92}" \
	-max-allocs-increase "${MAX_ALLOCS_INCREASE:-10}" \
	-max-parse-allocs "${MAX_PARSE_ALLOCS:-16}" \
	-min-qph-ratio "${MIN_QPH_RATIO:-0.5}" \
	-min-shard-scaling "${MIN_SHARD_SCALING:-1.5}" \
	-min-load-speedup "${MIN_LOAD_SPEEDUP:-10}" \
	-min-refresh-speedup "${MIN_REFRESH_SPEEDUP:-10}" "$old" "$new"
