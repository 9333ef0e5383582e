#!/bin/sh
# bench.sh — reproducible performance run feeding BENCH_sim.json.
#
#   tools/bench.sh [label]          # default label: after
#
# Runs the fixed hot-loop benchmark set (whole-device throughput plus
# the internal/sm microbenchmarks) with -benchmem and merges the parsed
# results into BENCH_sim.json under the given label via
# tools/benchjson. The simulator itself is seedless-deterministic:
# every block derives its election RNG from sm*1000+block+1, so the
# stamp records that scheme rather than a user-settable seed.
set -eu

cd "$(dirname "$0")/.."

label="${1:-after}"
benchtime="${BENCHTIME:-1s}"
count="${BENCHCOUNT:-1}"

# The tracked set: whole-device throughput (the 1.4x acceptance
# number), the simulated-cycle rate, the three synthetic workload
# families (regular GEMM, irregular BFS, mixed-latency texture), and
# the zero-alloc hot-loop microbenchmarks. GPURunColdMix is the serving
# benchmark's jobs-cold kernel mix without the server: kernel builds
# plus simulation, reported as warp-instrs/s. Figure-regeneration
# benchmarks stay out — they are experiment drivers, not perf
# regressions trackers.
pat='BenchmarkGPURunSequential|BenchmarkGPURunCompiled|BenchmarkGPURunInterpreted|BenchmarkGPURunGEMM|BenchmarkGPURunBFS|BenchmarkGPURunTexture|BenchmarkGPURunColdMix|BenchmarkSimulationRate'
smpat='BenchmarkBlockStep|BenchmarkExecuteLoad'
# The cluster sweep pair is the PR 10 acceptance number: the same
# 24-key matrix sweep through a coordinator with 1 worker vs 3, where
# 3 workers' aggregate cache capacity must deliver >= 2x
# sim-cycles/wall-s. RepeatedKey tracks the hot repeated-key latency
# through the coordinator (routing + peer hop + memory-cache hit).
clpat='BenchmarkClusterSweep1Worker|BenchmarkClusterSweep3Workers|BenchmarkClusterRepeatedKey'

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== bench: root suite ($pat) ==" >&2
go test -run '^$' -bench "$pat" -benchmem -benchtime "$benchtime" -count "$count" . | tee -a "$tmp"
echo "== bench: internal/sm ($smpat) ==" >&2
go test -run '^$' -bench "$smpat" -benchmem -benchtime "$benchtime" -count "$count" ./internal/sm | tee -a "$tmp"
echo "== bench: internal/cluster ($clpat) ==" >&2
go test -run '^$' -bench "$clpat" -benchmem -benchtime "$benchtime" -count "$count" ./internal/cluster | tee -a "$tmp"

go run ./tools/benchjson -label "$label" -out BENCH_sim.json \
    -seed "deterministic: block rng = sm*1000+block+1" < "$tmp"
