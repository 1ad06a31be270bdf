# Repro of Vaswani & Zahorjan, SOSP 1991 — build/verify targets.
#
# `make ci` is the full gate: vet, build, race-enabled tests, and a
# one-iteration benchmark smoke pass over every exhibit. ROADMAP.md's
# tier-1 verify (`go build ./... && go test ./...`) is the `quick` target.

GO ?= go

.PHONY: all build vet test quick race bench-smoke bench-cache bench-compare bench-json bench-check serve-smoke obs-smoke cell-smoke analytic-smoke persist-smoke fleet-smoke perfbench ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# ROADMAP.md tier-1 verify.
quick: build test

race:
	$(GO) test -race ./...

# One iteration of every benchmark — proves the exhibit drivers still run,
# without the minutes-long full sweep.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One iteration of the exact-cache fast-path benchmarks (flat-array cache,
# undo journal, single-replay plan/commit, block generation) — a dedicated
# gate so a regression in the hot path fails ci by name even though
# bench-smoke also sweeps these packages.
bench-cache:
	$(GO) test -run '^$$' -bench . -benchtime 1x \
		./internal/cache/ ./internal/cachemodel/ ./internal/memtrace/

# The worker-pool scaling benchmark (EXPERIMENTS.md "Campaign runner"):
# the same campaign at 1, 4 and 8 workers; outputs are bitwise identical,
# only the wall clock may differ.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkComparePolicies$$' -cpu 1,4,8 -benchtime 2x .

# Machine-readable perf baseline (BENCH_cache.json): the cache/replay
# microbenchmarks at full benchtime plus the campaign-level exhibits and
# allocation-profile benchmarks at a few iterations, parsed into
# benchmark -> {ns/op, B/op, allocs/op}, all at -cpu 1 (GOMAXPROCS=1, which
# _meta records and bench-check requires). benchjson is built (not `go run`)
# so the binary carries VCS build info and the baseline's _meta records the
# git revision that produced it; benchjson refuses to write a baseline from
# a dirty tree, so the recorded SHA always identifies the measured code.
bench-json:
	$(GO) build -o benchjson.bin ./cmd/benchjson
	{ $(GO) test -run '^$$' -bench . -benchmem -cpu 1 \
		./internal/cache/ ./internal/cachemodel/ ./internal/memtrace/ ; \
	  $(GO) test -run '^$$' -benchmem -benchtime 2x -cpu 1 \
		-bench 'BenchmarkComparePolicies$$|BenchmarkTable1$$|BenchmarkAblationExactEngine$$|BenchmarkSchedRunAllocs$$|BenchmarkSchedRunnerSteadyState$$|BenchmarkCompareCellAllocs$$' . ; } \
	| ./benchjson.bin -o BENCH_cache.json
	rm -f benchjson.bin

# The allocation regression gate: re-runs the campaign allocation-profile
# benchmarks and fails if any exceeds its committed BENCH_cache.json
# ceiling on B/op or allocs/op (ns/op is never gated — it varies with the
# host). Allocation counts vary with GOMAXPROCS (parallel runners, per-P
# pools), so the run is pinned to the baseline's -cpu 1 and benchjson
# refuses any other.
bench-check:
	$(GO) build -o benchjson.bin ./cmd/benchjson
	$(GO) test -run '^$$' -benchmem -benchtime 2x -cpu 1 \
		-bench 'BenchmarkComparePolicies$$|BenchmarkSchedRunAllocs$$|BenchmarkSchedRunnerSteadyState$$|BenchmarkCompareCellAllocs$$' . \
	| ./benchjson.bin -check BENCH_cache.json
	rm -f benchjson.bin

# The affinityd gate: boots the daemon's serving core on a random port,
# POSTs the same table1 campaign twice, and requires the second response
# to be a result-cache hit with a byte-identical body; also proves SIGTERM
# drains the real binary cleanly. The service suite runs under -race.
serve-smoke:
	$(GO) test -race -count=1 ./cmd/affinityd/ ./internal/service/

# The observability gate: boots the serving core against the real
# simulation engine, POSTs a campaign, and requires the engine counters
# (reallocations, P^A/P^NA charges, flushes) and the request-span
# histograms (queue wait, execution) at /metrics to be nonzero — the
# whole stats path, scheduler to daemon, wired end to end.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke' ./cmd/affinityd/

# The incremental-reuse gate: starts a table1 campaign, kills the daemon
# core mid-grid, and re-submits on a second server sharing the same cell
# cache — requiring that only the never-completed cells execute (per the
# affinityd_cell_* metrics) and that the resumed body is byte-identical
# to a cold, uninterrupted run.
cell-smoke:
	$(GO) test -race -count=1 -run 'TestCellSmoke' ./cmd/affinityd/

# The persistence gate: boots the real binary with a temp -store-dir,
# kill -9s it mid-campaign, reboots on the same directory, and requires
# the flushed cells to be served from disk with a final body
# byte-identical to a cold run — then a third boot to prove the
# completed campaign body itself is re-served from disk with zero cell
# executions (DESIGN.md "Persistence" crash-consistency contract).
persist-smoke:
	$(GO) test -race -count=1 -run 'TestPersistSmoke' ./cmd/affinityd/

# The fleet gate: builds the real binary, boots one coordinator and
# three workers (readiness by polling /v1/workers, never by sleeping),
# kill -9s a worker mid-campaign, and requires the coordinator to absorb
# the loss — at least one retried or hedged cell in affinityd_fleet_* —
# with a final body byte-identical to a cold single-process run.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestFleetSmoke' ./cmd/affinityd/

# The analytic-engine gate: re-runs the differential calibration grid on
# both engines and fails if any golden-promoted cell drifted past the 10%
# tolerance (analyticcalib check mode), then pins the engine-tier cache
# contract — engine=analytic and engine=sim derive distinct cell cache
# keys, the analytic body is byte-stable across runs, and engine=auto
# never selects analytic outside the promotion envelope.
analytic-smoke:
	$(GO) run ./cmd/analyticcalib -check
	$(GO) test -count=1 -run 'TestEngine|TestAnalytic|TestAuto|TestCalibration' ./internal/experiments/

# The end-to-end benchmark harness is its own module (perfbench/go.mod,
# replace repro => ../), so `go vet ./...` and `go test ./...` above never
# compile it — yet it builds against resultcache, diskstore, fleet and
# experiments. Vet and test it here so an API change that breaks the
# harness fails ci.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: vet build race bench-smoke bench-cache bench-check serve-smoke obs-smoke cell-smoke persist-smoke fleet-smoke analytic-smoke perfbench
