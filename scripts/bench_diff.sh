#!/bin/sh
# Compare two benchmark snapshots and fail when a gate of cmd/benchdiff's
# table (cmd/benchdiff/gates.go, summarised in DESIGN.md §7) trips: simulated
# time, allocs/op, the parse-allocation ceiling, throughput, shard
# scaling, load and refresh speedups, pool hit ratios. Thresholds live in
# that table and nowhere else. Usage:
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

go run ./cmd/benchdiff "$old" "$new"
