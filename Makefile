GO ?= go

# Newest committed snapshot is the regression baseline for bench-diff.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

.PHONY: all fmt-check vet build test loc race race-views fuzz-smoke bench-smoke bench-vet bench-wire-smoke bench-snapshot bench-diff ci check clean

all: check

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Lines of Go per package outside bench/: non-test, then test (wc -l, so
# comments and blanks count) — the figure ROADMAP's diet items are counted in.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs wc -l | awk ' \
		$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); \
			if ($$2 ~ /_test\.go$$/) { t[d] += $$1; T += $$1 } else { n[d] += $$1; N += $$1 } \
			seen[d] = 1 } \
		END { for (d in seen) printf "%-28s %7d %7d\n", d, n[d], t[d]; \
			printf "%-28s %7d %7d\n", "total", N, T }' | sort

race:
	$(GO) test -race ./...

# CHAR values are views of page images (val.ColSet.Decode): the tests of
# that rule's two ends under the race detector, which also turns checkptr
# on for the one unsafe.String in the module — a view equals the copying
# decode and never changes under its holder (not across eviction, rewrite
# and recovery), nothing that outlives a statement is one, and the in-place
# R/3 cluster decode equals the strings.Split reference, and what leaves an
# Open SQL row callback — a SELECT SINGLE row, a string cut from a row — is
# unchanged by the later executions that reuse the fetch stack; a view
# streamed into its reader's scan, which runs the reader's pipeline from
# inside the view's plan; Q1–Q17 with their output-only CHAR columns
# decoded from the page image after the filters ran; and the B-tree keys an
# Iterator hands out, which no later insert, delete, split or compaction
# writes again; and the WAL's stable page images, each the page as it was
# when it became durable, whatever the heap writes after; and the blocks
# that hand on their first rows one at a time (planUnobserved), whose one
# frame per stage is rewritten under the row sink and the wire encoder on
# every row, against the growing batch; and the packed hash-build rows,
# whose CHAR headers stay views of the byte slice they were built from; and
# recovery at every log boundary, which installs stable images and
# baselines it shares with the disk; and the fingerprint cache's plans,
# served to two sessions while a third grows the table they read and
# creates and drops a view, each read checked against the sizes it was
# costed with; and a correlated sub-block's hash tables, rebuilt for every
# outer row in the storage of the last build and poisoned whenever they are
# emptied or let go of; and the scratch a session lends its statements —
# frames, projection slabs and hash tables handed from one statement to the
# next, poisoned when handed back, held weakly between statements — against
# a fresh session for every statement, serially and at parallel degrees 2
# and 8, whose lanes take scratches of their own from the statement's; and
# a second Q1–Q17 pass at degree 2 that reuses what the first sized; and
# ANALYZE, whose lanes sort columns of views of page images side by side,
# against the single-threaded reference at 1, 2 and 4 processors; and the
# one chunk list all of that statement memory, a correlated block's kept
# rows and the Open SQL fetch stack are cut from (val.Chunks), FuzzChunks's
# seeds against slices of slices; and the options, rewrite hook and write
# hook a statement loads without db.mu, republished while sessions compile
# SELECTs and write rows (TestConcurrentSetOptions); and the heap pages
# deletes empty, refilled while index lookups hold RIDs into them
# (TestIndexRIDsSurvivePageReuse).
race-views:
	$(GO) test -race -count=3 -run 'TestKeyViewsSurviveWrites' ./internal/btree
	$(GO) test -race -count=3 -run 'TestColSetViewsMatchCopy|TestSlabOwns|FuzzChunks' ./internal/val
	$(GO) test -race -count=3 -run 'TestReaderImageSurvivesEvictionAndRewrite|TestStableImagesAreSnapshots' ./internal/storage
	$(GO) test -race -count=3 -run 'TestUpdateOnTinyPoolKeepsIndexes|TestResultOwnsItsBytes|TestDerivedStreams|TestScanDecodesOutputColumnsForSurvivors|TestUnobservedCapacityChargesAlike|TestUnobservedAllocationsFlat|TestPackedRowsRoundTrip|TestRecoveryTortureEveryBoundary|TestIndexRIDsSurvivePageReuse|TestCachedPlansUnderConcurrentWrites|TestCorrelatedTablesPoisoned|TestSessionScratchAgainstFreshSessions|TestConcurrentSetOptions' ./internal/engine
	$(GO) test -race -count=3 -run 'TestSecondPowerPassReusesScratch/degree2' ./internal/engine
	$(GO) test -race -cpu 1,2,4 -run 'TestAnalyzeMatchesReference' ./internal/engine
	$(GO) test -race -count=3 -run 'TestRoundTripAllocationBudget' ./internal/server
	$(GO) test -race -count=3 -run 'TestClusterDecodeMatchesReference|TestOpenSQLRowsOwnTheirBytes' ./internal/r3
	$(GO) test -race -count=3 -run 'TestKeptRowsOwnTheirBytes' ./internal/warehouse

# Five-second native-fuzz smokes. The SQL front end: FuzzParse asserts
# no panics, old/new parser validity agreement and AST stability under
# arena reuse (the corpus seeds cover every statement shape);
# FuzzParseDetachReuse holds detached ASTs while other goroutines churn
# the parser pool, so a chunk a detached AST shares with a reused arena
# shows as a mutated AST. The key table
# under join, GROUP BY and DISTINCT: FuzzKeyTable against a Go map. The hash
# join's packed build rows: FuzzPackedRows against a [][]val.Value model.
# The chunk list statements, correlated blocks, Results and the Open SQL
# fetch stack cut their rows from: FuzzChunks against slices of slices.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzParse$$' -fuzztime=5s ./internal/sqlparse
	$(GO) test -run xxx -fuzz '^FuzzParseDetachReuse$$' -fuzztime=5s ./internal/sqlparse
	$(GO) test -run xxx -fuzz '^FuzzKeyTable$$' -fuzztime=5s ./internal/val
	$(GO) test -run xxx -fuzz '^FuzzChunks$$' -fuzztime=5s ./internal/val
	$(GO) test -run xxx -fuzz '^FuzzPackedRows$$' -fuzztime=5s ./internal/engine

# One pass over the headline benchmark, the Q1 aggregation (allocs/op
# shows the batch executor's real cost) and the 2.2G reports (their nested
# Open SQL SELECTs) to catch bench-path regressions fast.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPower22_RDBMS$$|BenchmarkAggQ1$$|BenchmarkPower22_NativeSQL$$' -benchtime=1x -benchmem .

# bench/ is its own Go module, so vet and test above never reach it, and
# bench-wire-smoke below runs its binary but not bench/bench_test.go: vet and
# test it in place, so a change beneath an exported name it calls shows here.
bench-vet:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# bench/ is its own Go module, so build/vet/test above never compile it:
# run the benchmark at smoke sizes so an engine API change cannot break it
# unseen. The run exits non-zero unless every workload's answers are
# correct; on top of that all five must report no failed operation.
bench-wire-smoke:
	@out=$$(bash bench/run.sh -smoke 2>&1) || { echo "$$out"; exit 1; }; \
	n=$$(echo "$$out" | grep -c 'ops attempted, 0 failed'); \
	if [ "$$n" -ne 5 ]; then echo "$$out"; echo "bench-wire-smoke: $$n of 5 workloads ran with 0 failed"; exit 1; fi; \
	echo "bench-wire-smoke: 5/5 workloads correct, 0 failed"

# Full snapshot of the simulated-clock numbers into a committed BENCH_<date>.json.
bench-snapshot:
	./scripts/bench_snapshot.sh

# Gate: fresh snapshot vs the committed baseline; fails when a row of
# cmd/benchdiff's gate table trips (DESIGN.md §7).
bench-diff:
	./scripts/bench_diff.sh $(BENCH_BASELINE)

ci: fmt-check vet race race-views fuzz-smoke bench-vet bench-wire-smoke bench-diff

check: vet build race bench-smoke bench-vet bench-wire-smoke

# What `go test -c` and bench/run.sh build into the work tree (both
# git-ignored): compiled test binaries and the benchmark's build cache.
# Results under bench/out/ stay.
clean:
	rm -rf *.test .bench_build
