# Development targets for the cloudlens reproduction.
#
#   make build       — builds the module and the separate bench/ module
#   make test        — tier-1: build + unit tests (what CI gates on)
#   make verify      — bench-check and examples, then vet + full test suite
#                      under the race detector at 1, 2 and 4 cores; required
#                      before merging changes to the parallel pipeline
#   make examples    — runs every program under examples/ (~15 s); fails when
#                      one exits non-zero (their output is not checked)
#   make bench-check — cloudbench's own unit tests plus a smoke run of its
#                      four workloads (~10 s), whose correctness checks
#                      (resumed-kb-equals-checkpointed, fault-ledgers-reconcile,
#                      output hashes equal across iterations) fail the target
#   make stress      — the concurrency-sensitive streaming tests (replayer
#                      cancellation, checkpoint, resume, and the engine at
#                      one inline shard and behind the multi-shard barrier;
#                      -short) under -race, 20 times each at 1, 2 and 4 cores
#   make test-batch  — the batch kernels under -race at 1, 2 and 4 cores: the
#                      transform, detector, classifier, series synthesiser,
#                      series cache and quantile selection with their oracles,
#                      the analyze suite (its series facts pass fans nodes out
#                      over the pool), the kb suite (Extract fans
#                      subscriptions out over the pool, its series buffers
#                      passed between workers through a free list), then the
#                      root package's determinism, golden- and pinned-hash,
#                      figure-alone and allocation-bound tests (the kernels
#                      keep process-wide state — transform plans under
#                      sync.Once, pooled scratch — which one core cannot
#                      exercise)
#   make test-faults — fault-tolerance goldens under -race at 1, 2 and 4
#                      cores: fault-matrix ledger reconciliation, kill/resume
#                      checkpoint golden, the restore refusals and the
#                      one-shard-per-worker restore, and the paginated-walk-
#                      during-ingestion hammer
#   make bench-stream-gate — allocation-rate gate on the ingestion hot path:
#                      a traced cloudbench ingest-clean run at GOMAXPROCS 1, 2
#                      and 4, failing unless the three print the same
#                      allocs/sample and it is at most ALLOCS_PER_SAMPLE_MAX
#   make test-policy — policy-engine suite under -race at 1, 2 and 4 cores:
#                      decision engine, ledger pagination hammer, snapshot
#                      source, the policy HTTP surface, and the v1 route
#                      index pin (internal/server)
#   make test-workloads — workload-family matrix under -race at 1, 2 and 4
#                      cores: serverless generator/spec grammar, invocation
#                      taxonomy, the batch-vs-stream family equivalence
#                      goldens across sub-minute and coarse grids, the CPU
#                      family's hour alignment on coarse grids (a 20-minute
#                      step declines it in batch and stream alike), the live
#                      serverless percentile bands, and kb's per-family
#                      Extract fingerprint pin and self-merge fixed point
#   make diffcheck   — differential gauntlet: 25 randomized trials holding the
#                      batch extractor and the streaming pipeline against each
#                      other through fault injection, kill/resume, and
#                      shard-invariance (sharded runs bit-exact to shards=1),
#                      10 serverless-family trials pinning dominant-class
#                      agreement at 100% on lossless runs, plus 5
#                      policy-determinism trials (byte-identical decision
#                      ledgers across runs and shard counts)
#   make fuzz-smoke  — every fuzz target briefly (seed corpora + 5s of
#                      generated inputs each): the untrusted decoders, the
#                      canonical profile encoder against encoding/json, the
#                      blocked autocorrelation sketch against its per-sample
#                      oracle, the histogram's three counting paths against
#                      each other, the usage-model cursor against Params.At,
#                      and the quantile selection against a full sort
#   make seeds       — the analyze claims across a fixed list of 20 seeds:
#                      `CLOUDLENS_TEST_SEED=s go test -count=1
#                      ./internal/analyze` per seed, at most $(nproc) at
#                      once, then one pass/fail table of test × seed
#                      (~4 min on 2 vCPUs; not in CI)
#   make lint        — gofmt gate (fails when `gofmt -l .` lists any file),
#                      then the determinism lint: no global math/rand draws,
#                      no time.Now in deterministic packages
#   make ab REF=<commit> [N=10] [WORKLOAD=ingest-clean] [SEED=42] [LABEL=...]
#                    — paired benchmark: N interleaved pairs of
#                      `bash bench/run.sh` on REF and HEAD (cmd/benchab), the
#                      median paired ratio, wins and sign test per end-to-end
#                      metric, every run appended to experiments/runs

GO ?= go

.PHONY: all build test verify bench-check examples stress test-batch test-faults test-policy test-workloads bench-stream-gate diffcheck fuzz-smoke seeds lint ab

all: build

# bench/ is its own module, invisible to ./...: building it here makes an
# API change that breaks cloudbench fail the build, not only bench-check.
# -o /dev/null because its one main package would land on bench/cloudbench/.
build:
	$(GO) build ./...
	$(GO) build -C bench -o /dev/null ./...

test: build
	$(GO) test ./...

verify: bench-check examples
	$(GO) vet ./...
	$(GO) test -race -count=1 -cpu 1,2,4 -timeout 30m ./...

# bench/ is its own module, invisible to ./... above.
bench-check:
	$(GO) test -C bench -count=1 ./...
	bash bench/run.sh -smoke

# The examples are the root package's main callers; each must run to a
# zero exit. Their stdout is discarded, their stderr shown.
examples: build
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || { echo "examples: FAIL $$d" >&2; exit 1; }; \
	done

# -short drops the full-week goldens and the 36-replay codec matrix: stress
# is about schedules, which the hand-built traces exercise as well.
stress:
	$(GO) test -race -short -count=20 -cpu 1,2,4 -timeout 30m -run 'Replayer|Checkpoint|Resume|Shard' ./internal/stream

test-batch:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/fft ./internal/periodic ./internal/classify ./internal/usage ./internal/trace ./internal/stats ./internal/analyze ./internal/kb
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Determinis|Golden|Pinned|Standalone|RetainsNoSeries' .

test-faults:
	$(GO) test -race -count=1 -cpu 1,2,4 -timeout 30m -run 'Fault|Checkpoint|Resume|Restore|Harden|Reorder|Gap|Pagination|Shard' \
		./internal/faultgen ./internal/stream ./cmd/wkbserver

# The ingestion hot path must stay allocation-free in steady state. The
# gate reads stream.ingest.allocs_per_sample from a traced cloudbench
# ingest-clean run (runtime mallocs over samples ingested, reads after each
# fold left out). What is left to allocate is per-VM accumulator setup, and
# per hourly fold one profile slab plus one PatternShares map per
# subscription. The worker pool, the replayer's per-step fan-out and the
# parallel fold allocate nothing per dispatch, so the rate cannot depend on
# the core count: the run is repeated at GOMAXPROCS 1, 2 and 4 and the three
# must print the same figure. Measured 0.0463 at all three (go1.24, 2 vCPUs,
# seed 42); the pin adds 5 %. Repeated runs differ by up to ~100
# allocations (about 1e-5 per sample) with the runtime's own timing, so a
# rate within that of a rounding edge can print two figures.
ALLOCS_PER_SAMPLE_MAX ?= 0.0486
bench-stream-gate: build
	@rates=; \
	for p in 1 2 4; do \
		out=$$(GOMAXPROCS=$$p bash bench/run.sh --workload ingest-clean --seed 42 --seconds 1 --trace 1) || exit 1; \
		rate=$$(printf '%s\n' "$$out" | tail -n 1 | sed -n 's/.*"stream\.ingest\.allocs_per_sample":{"value":\([0-9.eE+-]*\).*/\1/p'); \
		if [ -z "$$rate" ]; then echo "bench-stream-gate: no stream.ingest.allocs_per_sample at GOMAXPROCS=$$p" >&2; exit 1; fi; \
		rate=$$(printf '%.4f' "$$rate"); \
		echo "bench-stream-gate: GOMAXPROCS=$$p $$rate allocs/sample"; \
		rates="$$rates $$rate"; \
	done; \
	set -- $$rates; \
	if [ "$$1" != "$$2" ] || [ "$$1" != "$$3" ]; then \
		echo "bench-stream-gate: FAIL allocs/sample differs across core counts:$$rates" >&2; exit 1; fi; \
	awk -v r="$$1" -v max="$(ALLOCS_PER_SAMPLE_MAX)" 'BEGIN { \
		if (r + 0 > max + 0) { printf "bench-stream-gate: FAIL %s allocs/sample > %s\n", r, max; exit 1 } \
		printf "bench-stream-gate: ok %s allocs/sample <= %s at GOMAXPROCS 1, 2 and 4\n", r, max }'

test-policy:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/policy ./internal/kb ./internal/server ./cmd/wkbserver

test-workloads:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/workload ./internal/classify
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Serverless|Family|Invocation|ExtractFingerprintPinned|MergeWeekOverWeek' ./internal/stream ./internal/diffcheck ./internal/kb

diffcheck: build
	$(GO) run ./cmd/diffcheck -trials 25 -seed 1 -shards 2,4,8 -family-trials 10 -policy-trials 5

# `go test -fuzz` takes one target per invocation, so the smoke runs each
# untrusted-input decoder, and the profile encoder's oracle, in turn: 5
# seconds of generated inputs on top of the checked-in seed corpus.
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
	$(GO) test -run=NONE -fuzz=FuzzAppendProfileJSON -fuzztime=$(FUZZTIME) ./internal/kb
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run=NONE -fuzz=FuzzParseServerlessSpec -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzAutoCorrBlocks -fuzztime=$(FUZZTIME) ./internal/sketch
	$(GO) test -run=NONE -fuzz=FuzzHistogramCounting -fuzztime=$(FUZZTIME) ./internal/sketch
	$(GO) test -run=NONE -fuzz=FuzzCursorMatchesAt -fuzztime=$(FUZZTIME) ./internal/usage
	$(GO) test -run=NONE -fuzz=FuzzQuantilesInPlace -fuzztime=$(FUZZTIME) ./internal/stats

# Each seed's verbose log goes to a temporary directory; the table reads
# the top-level "--- PASS/FAIL/SKIP" lines. A test missing from a seed's
# log (a panic cut the run short) reads "?". The last column counts the
# seeds a test passed on.
SEED_LIST := 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 42 977 2024
seeds:
	@dir=$$(mktemp -d) || exit 1; \
	printf '%s\n' $(SEED_LIST) | xargs -P "$$(nproc)" -I{} \
		sh -c 'CLOUDLENS_TEST_SEED={} $(GO) test -count=1 -v ./internal/analyze > "$$1/{}.log" 2>&1; true' sh "$$dir"; \
	for s in $(SEED_LIST); do \
		sed -n 's/^--- \(PASS\|FAIL\|SKIP\): \(Test[^ ]*\).*/\2 '"$$s"' \1/p' "$$dir/$$s.log"; \
	done | sort -s -k1,1 | awk -v seeds="$(SEED_LIST)" ' \
		!($$1 in seen) { seen[$$1] = 1; order[++nt] = $$1; if (length($$1) > w) w = length($$1) } \
		{ st[$$1 " " $$2] = ($$3 == "PASS" ? "ok" : $$3 == "FAIL" ? "FAIL" : "skip") } \
		END { n = split(seeds, s, " "); line = sprintf("%-" w "s", "test"); \
			for (i = 1; i <= n; i++) line = line sprintf(" %4s", s[i]); print line "  pass"; \
			for (j = 1; j <= nt; j++) { t = order[j]; line = sprintf("%-" w "s", t); pass = 0; \
				for (i = 1; i <= n; i++) { v = st[t " " s[i]]; if (v == "") v = "?"; if (v == "ok") pass++; line = line sprintf(" %4s", v) } \
				printf "%s  %d/%d\n", line, pass, n } }'; \
	rm -rf "$$dir"

lint: build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) run ./cmd/detlint .

# Paired A/B of HEAD against REF on one benchmark workload. The exported
# trees and per-run result files go under WORK (a new temporary directory
# when empty); the run log is experiments/runs/<LABEL>-<WORKLOAD>.jsonl.
N ?= 10
WORKLOAD ?= ingest-clean
SEED ?= 42
LABEL ?=
WORK ?=
ab:
	@test -n "$(REF)" || { echo "usage: make ab REF=<commit> [N=10] [WORKLOAD=ingest-clean] [SEED=42] [LABEL=...] [WORK=dir]" >&2; exit 2; }
	$(GO) run ./cmd/benchab -ref $(REF) -n $(N) -workload $(WORKLOAD) -seed $(SEED) $(if $(LABEL),-label $(LABEL)) $(if $(WORK),-work $(WORK))
