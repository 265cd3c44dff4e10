GO      ?= go
BIN     := bin
SAQPVET := $(BIN)/saqpvet

.PHONY: all build test race lint lint-self bench-alloc fuzz-smoke stress cover-serve bench bench-serve bench-fault bench-learn bench-net bench-shard bench-micro bench-micro-rebase ci clean

all: build

build:
	$(GO) build ./...

$(SAQPVET): $(shell find cmd/saqpvet internal/analysis -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	@mkdir -p $(BIN)
	$(GO) build -o $(SAQPVET) ./cmd/saqpvet

# Static analysis: the stock go vet suite plus the project's nine
# saqpvet analyzers (determinism, doccheck, floatcmp, lockcheck,
# errdrop, allocfree, ctxleak, atomiccheck, leakcheck — see
# internal/analysis/registry), run through the vet -vettool protocol so
# per-package results are cached like any other vet check.
lint: $(SAQPVET)
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(SAQPVET)) ./...

# The analyzers' own golden-fixture suites plus the tree-wide
# cleanliness gate, run separately from `test` so a broken analyzer
# shows up as a lint failure rather than a buried test failure.
lint-self:
	$(GO) test -count=1 ./internal/analysis/...

# Runtime half of the //saqp:hotpath contract: every annotated function
# must measure zero heap allocations per call via testing.AllocsPerRun.
bench-alloc:
	$(GO) test -count=1 -run TestHotPathAllocs \
		./internal/mapreduce ./internal/selectivity ./internal/histogram \
		./internal/dataset ./internal/predict ./internal/serve ./internal/obs \
		./internal/net/proto ./internal/sketch ./internal/query

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A short native-fuzzing burst over the full compile→estimate→execute
# stack, the randomized estimator-vs-engine agreement test, the
# wire-protocol decoder (no panics, no over-reads, byte-exact
# re-encoding of every accepted frame), and SQL normalization (the
# normalized text re-parses to itself; the memo agrees with a direct
# parse and render).
fuzz-smoke:
	$(GO) test -run TestRandomQueriesEstimatorVsEngine -count=1 ./internal/mapreduce
	$(GO) test -fuzz FuzzEngineQuery -fuzztime 10s -run '^$$' ./internal/mapreduce
	$(GO) test -fuzz FuzzProtocolDecode -fuzztime 10s -run '^$$' ./internal/net/proto
	$(GO) test -fuzz FuzzNormalize -fuzztime 10s -run '^$$' ./internal/query

# Concurrency stress: the serving-layer and network-frontend stress/
# property suites under the race detector, run twice to vary goroutine
# interleavings (includes the 64-connection TCP stress test at the
# root, the connection-lifecycle suite in internal/net, and the
# shard-cluster failover stress test with its byte-identical
# event-log replay check).
stress:
	$(GO) test -race -count=2 -run 'TestServer|TestProperty|TestSingleFlight|TestDeterministicSnapshots|TestShardCluster|TestEventLog|TestSubmitParks|TestSentinelQuorum' \
		. ./internal/serve ./internal/selectivity ./internal/net ./internal/shardserve

# Coverage gate for the serving engine: fail if internal/serve drops
# below 85% statement coverage.
SERVE_COVER_FLOOR := 85.0
cover-serve:
	@mkdir -p $(BIN)
	@$(GO) test -coverprofile=$(BIN)/serve.cover ./internal/serve > /dev/null
	@pct=$$($(GO) tool cover -func=$(BIN)/serve.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/serve statement coverage: $$pct% (floor $(SERVE_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(SERVE_COVER_FLOOR)" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage below floor"; exit 1; }

# Open-loop serving benchmark: 1000 TPC-H submissions from 16 concurrent
# submitters through one saqp.Server with request tracing and SLO
# burn-rate tracking on; fails on any lost completion or a cache
# hit-rate at or below 50%. Writes bench-out/BENCH_serve.json and the
# retained span trees, and prints a delta against the committed
# baseline in testdata/bench_baseline/. The run is under -race, so the
# delta is informational: no timing gate applies to it.
SERVE_QUERIES ?= 1000
bench-serve:
	@mkdir -p bench-out
	$(GO) run -race ./cmd/benchrunner -exp serve -queries $(SERVE_QUERIES) \
		-concurrency 16 -bench-out bench-out \
		-spans bench-out/serve_spans.json \
		-baseline testdata/bench_baseline/BENCH_serve.json

# Fault-injection replay: the TPC-H set under the default deterministic
# fault plan (node crashes, slowdown windows, transient task failures).
# Fails unless recovery completes every query; writes
# bench-out/BENCH_fault.json with retry counts and p50/p99 inflation.
FAULT_SEED ?= 2018
bench-fault:
	@mkdir -p bench-out
	$(GO) run ./cmd/benchrunner -exp fault -fault-seed $(FAULT_SEED) \
		-bench-out bench-out -csv bench-out

# Online-learning convergence replay: a seeded corpus fed one completed
# query at a time into a cold model-lifecycle registry. Fails unless the
# final challenger's average relative error stays within 10% of a batch
# fit over the same samples; writes bench-out/BENCH_learn.json with the
# error-vs-samples curve and the promotion sequence.
LEARN_QUERIES ?= 120
bench-learn:
	@mkdir -p bench-out
	$(GO) run ./cmd/benchrunner -exp learn -queries $(LEARN_QUERIES) \
		-bench-out bench-out -csv bench-out

# Network-frontend benchmark: NET_QUERIES TPC-H submissions over real
# loopback sockets through the RESP-style TCP frontend — NET_CONNS
# client connections each SUBMITting and WAITing over the wire, so
# latency includes encode, socket and parse time. Fails on any lost
# completion, -BUSY refusal or client error at this default load, and
# gates p99 at 1.5x the committed baseline in testdata/bench_baseline/.
# Writes bench-out/BENCH_net.json.
NET_QUERIES ?= 400
NET_CONNS   ?= 8
bench-net:
	@mkdir -p bench-out
	$(GO) run ./cmd/benchrunner -exp net -queries $(NET_QUERIES) \
		-concurrency $(NET_CONNS) -bench-out bench-out \
		-baseline testdata/bench_baseline/BENCH_net.json

# Sharded-serving benchmark: the same closed-loop TPC-H load through
# one engine and through a SHARD_SHARDS-way fingerprint-routed cluster
# (both with online learning on, so the comparison is fair), then a
# failover phase under a deterministic crash plan. Fails on any lost
# completion, on a failover phase with no actual failover, or when
# cluster/single throughput scaling falls below 2.5x derated by
# min(1, GOMAXPROCS/shards). Writes bench-out/BENCH_shard.json
# and prints a delta against the committed baseline.
SHARD_QUERIES ?= 4000
SHARD_SHARDS  ?= 4
bench-shard:
	@mkdir -p bench-out
	$(GO) run ./cmd/benchrunner -exp shard -queries $(SHARD_QUERIES) \
		-shard-shards $(SHARD_SHARDS) -bench-out bench-out \
		-baseline testdata/bench_baseline/BENCH_shard.json

# Microbenchmarks + sketch-accuracy gate: benchstat-comparable
# BenchmarkMicro* families (sketch ops, estimator, engine
# map/shuffle/reduce, serve-cache lookup, SQL parse+normalize and the
# normalization-memo hit) with -benchmem, parsed and
# gated by cmd/benchrunner -exp micro against the committed baseline in
# testdata/bench_baseline/BENCH_micro.json — allocs/op may never
# regress; ns/op may drift up to 4x (machine variance).
# The same run replays the accuracy contracts on TPC-H: every HLL
# distinct estimate within 5% of the exact catalog, and Bloom semi-join
# pruning byte-identical to the unpruned engine (zero false negatives).
# Writes bench-out/BENCH_micro.{txt,json}; the raw text is
# benchstat-ready for manual before/after comparisons.
MICRO_PKGS := ./internal/sketch ./internal/selectivity ./internal/mapreduce ./internal/serve ./internal/query
bench-micro:
	@mkdir -p bench-out
	$(GO) test -run '^$$' -bench '^BenchmarkMicro' -benchmem -count 1 \
		$(MICRO_PKGS) | tee bench-out/BENCH_micro.txt
	$(GO) run ./cmd/benchrunner -exp micro -micro-in bench-out/BENCH_micro.txt \
		-bench-out bench-out \
		-baseline testdata/bench_baseline/BENCH_micro.json

# Rebase the committed microbenchmark baseline from a fresh run on this
# machine (review the diff before committing).
bench-micro-rebase:
	@mkdir -p bench-out
	$(GO) test -run '^$$' -bench '^BenchmarkMicro' -benchmem -count 1 \
		$(MICRO_PKGS) | tee bench-out/BENCH_micro.txt
	$(GO) run ./cmd/benchrunner -exp micro -micro-in bench-out/BENCH_micro.txt \
		-bench-out bench-out \
		-baseline testdata/bench_baseline/BENCH_micro.json -rebase

# Regenerate the paper's tables and figures with full observability:
# machine-readable BENCH_<exp>.json per experiment, a Perfetto-loadable
# trace of the simulated runs (gzipped; Perfetto opens .json.gz
# directly), and a Prometheus metrics dump, all under bench-out/.
BENCH_QUERIES ?= 240
bench:
	@mkdir -p bench-out
	$(GO) run ./cmd/benchrunner -exp all -queries $(BENCH_QUERIES) \
		-bench-out bench-out -csv bench-out \
		-trace bench-out/runs.trace.json -metrics bench-out/metrics.prom
	gzip -f -9 bench-out/runs.trace.json

# Everything CI runs, in the same order.
ci: build lint lint-self test bench-alloc race fuzz-smoke stress cover-serve bench-micro bench-fault bench-learn bench-net bench-shard

clean:
	rm -rf $(BIN) bench-out obs-out lint-out
