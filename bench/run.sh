#!/usr/bin/env bash
# Build and run the benchmark from the root of a checkout.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one workload (what BENCHMARK.json's command runs)
#   bash bench/run.sh [-seed N] [-seconds S] [-smoke] [-out F]        all four workloads, one result file
#   bash bench/run.sh -trace 1 [-out F]                               all four, traced: per-layer ledger and span files
#   bash bench/run.sh -compare a.json b.json                          ratios against bounds; exit 1 on a breach
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files, the toolchain's own
# configuration directory, the binaries, checkpoints, spans and results.
set -euo pipefail

t0=$(date +%s.%N)
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -C bench -o "$out/bin/cloudbench" ./cloudbench
CLOUDBENCH_T0=$t0 exec "$out/bin/cloudbench" "$@"
