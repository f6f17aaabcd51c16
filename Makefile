# Development targets for the cloudlens reproduction.
#
#   make test        — tier-1: build + unit tests (what CI gates on)
#   make verify      — bench-check, then vet + full test suite under the race
#                      detector; required before merging changes to the
#                      parallel pipeline
#   make bench-check — cloudbench's own unit tests plus a smoke run of its
#                      four workloads (~10 s), whose correctness checks
#                      (resumed-kb-equals-checkpointed, fault-ledgers-reconcile,
#                      output hashes equal across iterations) fail the target
#   make stress      — the concurrency-sensitive streaming tests (replayer
#                      cancellation, checkpoint, resume; -short) under -race,
#                      20 times each at 1, 2 and 4 cores (~5 min)
#   make test-batch  — the batch kernels under -race at 1, 2 and 4 cores: the
#                      transform, detector, classifier, series synthesiser and
#                      series cache with their oracles, then the root package's
#                      determinism and golden-hash tests (the kernels keep
#                      process-wide state — transform plans under sync.Once,
#                      pooled scratch — which one core cannot exercise)
#   make test-faults — fault-tolerance goldens under -race: fault-matrix
#                      ledger reconciliation, kill/resume checkpoint golden,
#                      and the paginated-walk-during-ingestion hammer
#   make bench       — headline performance benchmarks (time + allocations)
#   make bench-smoke — one iteration of each headline benchmark; CI runs this
#                      so instrumented hot paths stay compile- and run-clean
#   make bench-shards— streaming-ingestion throughput swept over shard
#                      counts 1/2/4/8 (the BENCH_stream.json scaling table)
#   make bench-stream-gate — allocation-rate gate on the columnar ingestion
#                      hot path: one full default-week replay at GOMAXPROCS 1
#                      and again at 2, failing if either allocates more than
#                      ALLOCS_PER_SAMPLE_MAX (0.055) per sample
#   make bench-http  — HTTP read-path load harness smoke: a small reader
#                      fleet against a live-ingesting server; fails on any
#                      5xx or if readers slow ingestion below 80% of its
#                      unloaded rate (the BENCH_http.json harness at full
#                      scale runs via cmd/kbload directly)
#   make test-policy — policy-engine suite under -race: decision engine,
#                      ledger pagination hammer, fold-source seqlock, and the
#                      policy HTTP surface
#   make test-workloads — workload-family matrix under -race: serverless
#                      generator/spec grammar, invocation taxonomy, and the
#                      batch-vs-stream family equivalence goldens across
#                      sub-minute and coarse grids
#   make diffcheck   — differential gauntlet: 25 randomized trials holding the
#                      batch extractor and the streaming pipeline against each
#                      other through fault injection, kill/resume, and
#                      shard-invariance (sharded runs bit-exact to shards=1),
#                      10 serverless-family trials pinning dominant-class
#                      agreement at 100% on lossless runs, plus 5
#                      policy-determinism trials (byte-identical decision
#                      ledgers across runs and shard counts)
#   make fuzz-smoke  — every fuzz target briefly (seed corpora + 5s of
#                      generated inputs each) over the untrusted decoders
#   make lint        — determinism lint: no global math/rand draws, no
#                      time.Now in deterministic packages

GO ?= go

.PHONY: all build test verify bench-check stress test-batch test-faults test-policy test-workloads bench bench-smoke bench-shards bench-stream-gate bench-http diffcheck fuzz-smoke lint

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

verify: bench-check
	$(GO) vet ./...
	$(GO) test -race ./...

# bench/ is its own module, invisible to ./... above.
bench-check:
	$(GO) test -C bench ./...
	bash bench/run.sh -smoke

# -short drops the full-week goldens and the 36-replay codec matrix: stress
# is about schedules, which the hand-built traces exercise as well.
stress:
	$(GO) test -race -short -count=20 -cpu 1,2,4 -timeout 30m -run 'Replayer|Checkpoint|Resume' ./internal/stream

test-batch:
	$(GO) test -race -cpu 1,2,4 ./internal/fft ./internal/periodic ./internal/classify ./internal/usage ./internal/trace
	$(GO) test -race -cpu 1,2,4 -run 'Determinis|Golden|Cached' .

test-faults:
	$(GO) test -race -run 'Fault|Checkpoint|Resume|Harden|Reorder|Gap|Pagination|Shard' \
		./internal/faultgen ./internal/stream ./cmd/wkbserver

bench:
	$(GO) test -run=NONE -bench='CharacterizeEndToEnd|KBExtract|GenerateTrace|StreamIngest' -benchmem .

bench-smoke:
	$(GO) test -run=NONE -bench='CharacterizeEndToEnd|KBExtract|GenerateTrace|StreamIngest' -benchtime=1x -benchmem .

bench-shards:
	$(GO) test -run=NONE -bench=StreamIngestShards -benchmem .

# The columnar hot path must stay allocation-free in steady state: the
# replay's allocation rate (runtime mallocs over samples ingested, reported
# by BenchmarkStreamIngest) is pinned and any regression past the pin fails
# the build. What is left to allocate is per-VM accumulator setup, and per
# hourly fold one profile slab plus one PatternShares map per subscription.
# Measured 0.0498 at GOMAXPROCS 1 and at 2 (go1.24, 2 vCPUs; EXPERIMENTS.md
# "Performance: hourly fold"); the pin adds 0.005 (10 %), which covers the
# 0.0006 parallel.ForEachChunk's per-step chunk table added at GOMAXPROCS=2
# when it was last seen, and map-runtime differences between toolchains.
# Both core counts are run and the worse one is gated.
ALLOCS_PER_SAMPLE_MAX ?= 0.055
bench-stream-gate: build
	@out=$$($(GO) test -run=NONE -bench='^BenchmarkStreamIngest$$' -benchtime=1x -benchmem -cpu 1,2 . | tee /dev/stderr); \
	rate=$$(echo "$$out" | awk '{for (i=1; i<NF; i++) if ($$(i+1) == "allocs/sample" && $$i + 0 > max + 0) max = $$i} END {print max}'); \
	if [ -z "$$rate" ]; then echo "bench-stream-gate: no allocs/sample metric in benchmark output" >&2; exit 1; fi; \
	awk -v r="$$rate" -v max="$(ALLOCS_PER_SAMPLE_MAX)" 'BEGIN { \
		if (r + 0 > max + 0) { printf "bench-stream-gate: FAIL %s allocs/sample > %s\n", r, max; exit 1 } \
		printf "bench-stream-gate: ok %s allocs/sample <= %s\n", r, max }'

# Small-fleet smoke sized for a one-core CI box: short phases, lenient
# latency gate, hard gates on 5xx and on readers starving ingestion.
bench-http: build
	$(GO) run ./cmd/kbload -readers 8 -scale 0.05 -replay-wall 3s -duration 2s \
		-fold-every 288 -min-reads 500 -max-ingest-drop 0.8 -out /tmp/bench_http_smoke.json

test-policy:
	$(GO) test -race ./internal/policy ./internal/kb ./cmd/wkbserver

test-workloads:
	$(GO) test -race ./internal/workload ./internal/classify
	$(GO) test -race -run 'Serverless|Family|Invocation' ./internal/stream ./internal/diffcheck

diffcheck: build
	$(GO) run ./cmd/diffcheck -trials 25 -seed 1 -shards 2,4,8 -family-trials 10 -policy-trials 5

# `go test -fuzz` takes one target per invocation, so the smoke runs each
# untrusted-input decoder in turn: 5 seconds of generated inputs on top of
# the checked-in seed corpus.
FUZZTIME ?= 5s
# Checkpoint inputs are tens of kilobytes (fixed-size utilization sketches),
# and the fuzzer's default minimization budget of 60 s per interesting input
# would spend the whole smoke shrinking the first one it finds.
FUZZMINIMIZE ?= -fuzzminimizetime=20x
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faultgen
	$(GO) test -run=NONE -fuzz=FuzzReadCheckpoint -fuzztime=$(FUZZTIME) $(FUZZMINIMIZE) ./internal/stream
	$(GO) test -run=NONE -fuzz=FuzzDecodeShardSection -fuzztime=$(FUZZTIME) $(FUZZMINIMIZE) ./internal/stream
	$(GO) test -run=NONE -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzDecodeCursor -fuzztime=$(FUZZTIME) ./internal/kb
	$(GO) test -run=NONE -fuzz=FuzzParseListParams -fuzztime=$(FUZZTIME) ./internal/kb
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run=NONE -fuzz=FuzzParseServerlessSpec -fuzztime=$(FUZZTIME) ./internal/workload

lint: build
	$(GO) run ./cmd/detlint .
