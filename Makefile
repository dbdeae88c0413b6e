GO ?= go
# Benchmark knobs: CI smoke-runs with BENCHTIME=1x; the committed
# BENCH_PR3.json numbers come from a full-length run (default 2s).
BENCHTIME ?= 2s
COUNT ?= 3
# Minimum current/baseline throughput ratio cmd/benchgate enforces for
# the sampling-off tracing benchmarks (PR 7). CI smoke runs pass 0
# (report-only) because 1x iterations are throughput noise.
BENCHGATE_MIN ?= 0.97

.PHONY: all build test race vet staticcheck bench bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is installed and
# degrades to a notice when it is not, so the target is safe in
# hermetic environments without module downloads.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench runs the PR 3 concurrency benchmarks (storage read path,
# per-node concurrent reads, wire round trips) and rewrites
# BENCH_PR3.json: fresh numbers side by side with the recorded
# coarse-mutex baseline in bench/baseline_pr3.txt.
bench:
	$(GO) test ./internal/storage -run '^$$' -bench BenchmarkCollection -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr3.txt
	$(GO) test ./internal/cluster -run '^$$' -bench BenchmarkNode -benchtime $(BENCHTIME) -count $(COUNT) -benchmem >> bench/current_pr3.txt
	$(GO) test ./internal/wire -run '^$$' -bench BenchmarkWire -benchtime $(BENCHTIME) -count $(COUNT) -benchmem >> bench/current_pr3.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr3.txt < bench/current_pr3.txt > BENCH_PR3.json
	@cat BENCH_PR3.json

# bench-pr4 runs the PR 4 write-path benchmarks (group-committed
# replicated writes, majority-ack latency, ring-buffer oplog
# truncation) and rewrites BENCH_PR4.json against the recorded
# pre-group-commit baseline in bench/baseline_pr4.txt.
bench-pr4:
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkReplicatedWrites|BenchmarkMajorityAck' -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr4.txt
	$(GO) test ./internal/oplog -run '^$$' -bench BenchmarkOplogTruncate -benchtime $(BENCHTIME) -count $(COUNT) -benchmem >> bench/current_pr4.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr4.txt < bench/current_pr4.txt > BENCH_PR4.json
	@cat BENCH_PR4.json

# bench-pr5 runs the PR 5 wire-codec benchmarks — binary protocol v2
# round trips (point reads, indexed finds, id-batch lookups) and the
# small-document encoder — and rewrites BENCH_PR5.json against the
# recorded JSON-codec baseline in bench/baseline_pr5.txt. That baseline
# is recorded data: the v1 codec it measured is retired, so it can no
# longer be re-captured.
bench-pr5:
	$(GO) test ./internal/wire -run '^$$' -bench BenchmarkWire -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr5.txt
	$(GO) test ./internal/storage -run '^$$' -bench BenchmarkEncodeDoc -benchtime $(BENCHTIME) -count $(COUNT) -benchmem >> bench/current_pr5.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr5.txt < bench/current_pr5.txt > BENCH_PR5.json
	@cat BENCH_PR5.json

# bench-pr6 runs the PR 6 observability/admission benchmarks — point
# reads with every admission gate armed, and snapshot lookups/renders —
# and rewrites BENCH_PR6.json against bench/baseline_pr6.txt. That
# baseline (the seed server construction and the pre-index snapshot
# accessors) is recorded data; the switches that re-created those code
# paths are gone, so it can no longer be re-captured.
bench-pr6:
	$(GO) test ./internal/wire -run '^$$' -bench BenchmarkWireAdmission -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr6.txt
	$(GO) test ./internal/obs -run '^$$' -bench BenchmarkSnapshot -benchtime $(BENCHTIME) -count $(COUNT) -benchmem >> bench/current_pr6.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr6.txt < bench/current_pr6.txt > BENCH_PR6.json
	@cat BENCH_PR6.json

# bench-pr7 measures the PR 7 tracing overhead on the PR 5 wire find
# path: the untraced benchmarks run with sampling off (the default) and
# are gated by cmd/benchgate against bench/baseline_pr7.txt (recorded
# just before the tracing code landed) — throughput within
# BENCHGATE_MIN and zero extra allocs/op; the Traced variants run at
# the 1% sampling rate (TRACE_SAMPLE overrides) for the sampled cost.
bench-pr7:
	$(GO) test ./internal/wire -run '^$$' -bench 'BenchmarkWire(ConcurrentPointReads|FindQuery|Traced)' -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr7.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr7.txt < bench/current_pr7.txt > BENCH_PR7.json
	$(GO) run ./cmd/benchgate -file BENCH_PR7.json -min-ratio $(BENCHGATE_MIN)
	@cat BENCH_PR7.json

# bench-pr8 runs the PR 8 sharded-tier benchmarks: zero-alloc shard-key
# hashing (gated against bench/baseline_pr8.txt, captured with
# SCATTER_SEQ=1 i.e. pre-parallel-scatter), plus two scale gates
# computed within the current run — 4-shard point-read throughput
# through mongosd must be >= 3x the 1-shard deployment, and parallel
# scatter-gather must be >= 2.5x sequential.
bench-pr8:
	$(GO) test ./internal/sharding -run '^$$' -bench 'BenchmarkShardFor|BenchmarkScatterFind|BenchmarkMongosPointReads' -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr8.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr8.txt < bench/current_pr8.txt > BENCH_PR8.json
	$(GO) run ./cmd/benchgate -file BENCH_PR8.json -min-ratio $(BENCHGATE_MIN) -benches BenchmarkShardFor \
		-scale 'BenchmarkMongosPointReads4/BenchmarkMongosPointReads1>=3.0,BenchmarkScatterFindParallel/BenchmarkScatterFindSequential>=2.5'
	@cat BENCH_PR8.json

# bench-pr9 runs the PR 9 lease benchmarks: linearizable reads spread
# across all five leased members must clear 3x the primary-only
# baseline (a scale gate within the current run), and the unleased
# wire read path must add zero allocations over
# bench/baseline_pr9.txt (its throughput ratio is reported but not
# gated — TestReadConcernUnsetCostsZeroBytes proves the frames are
# byte-identical when no read concern is set, so a throughput gate
# would only re-measure runner noise).
bench-pr9:
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkLinearizable' -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr9.txt
	$(GO) test ./internal/wire -run '^$$' -bench 'BenchmarkWireConcurrentPointReads' -benchtime $(BENCHTIME) -count $(COUNT) -benchmem >> bench/current_pr9.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr9.txt < bench/current_pr9.txt > BENCH_PR9.json
	$(GO) run ./cmd/benchgate -file BENCH_PR9.json -min-ratio $(BENCHGATE_MIN) -benches '' -alloc-benches BenchmarkWireConcurrentPointReads \
		-scale 'BenchmarkLinearizable5Node/BenchmarkLinearizablePrimaryOnly>=3.0'
	@cat BENCH_PR9.json

# bench-pr10 runs the freshness-priced cache benchmarks: Zipf hot-key
# bounded reads with the driver cache on must clear 5x the cache-off
# baseline (a scale gate within the current run — both arms pay the
# same modeled 2 ms server-side service time, so the ratio is
# local-hit vs server capacity), and the pure hit path must stay at
# zero allocations per op over bench/baseline_pr10.txt (its
# throughput is reported but not gated; the alloc bound is the
# regression that matters on a path this hot).
bench-pr10:
	$(GO) test ./internal/driver -run '^$$' -bench 'BenchmarkDriverCache|BenchmarkCacheHitPath' -benchtime $(BENCHTIME) -count $(COUNT) -benchmem > bench/current_pr10.txt
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr10.txt < bench/current_pr10.txt > BENCH_PR10.json
	$(GO) run ./cmd/benchgate -file BENCH_PR10.json -min-ratio $(BENCHGATE_MIN) -benches '' -alloc-benches BenchmarkCacheHitPath \
		-scale 'BenchmarkDriverCacheOn/BenchmarkDriverCacheOff>=5.0'
	@cat BENCH_PR10.json
