#!/bin/sh
# check.sh — the repo's local CI gate: formatting, vet, the full test
# suite, and a benchmark smoke run. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...
echo "ok"

echo "== go build =="
go build ./...
echo "ok"

echo "== go test =="
go test ./...

echo "== servebench module =="
# The serving benchmark is a module of its own (replace subwarpsim =>
# ../), so the root ./... skips it: vet and test it here, so that an
# API change that breaks the benchmark fails this gate.
(cd servebench && go vet ./... && go test ./...)

echo "== go test -race =="
# The whole suite again under the race detector: gpu.RunWorkers
# simulates SMs on concurrent goroutines and the experiments pool runs
# concurrent simulations, so every data race is a correctness bug here.
go test -race ./...

echo "== determinism smoke =="
# The parallel-vs-sequential differential tests, twice, under the race
# detector: bit-identical results must not depend on goroutine
# interleaving.
go test -race -count=2 -run 'TestParallelMatchesSequential|TestParallelTraceMatchesSequential' ./internal/gpu

echo "== compiled-mode gate =="
# The two-mode differential layer under the race detector. Stepped
# issue and fast-forward share one implementation of every ALU op
# (applySimple in internal/sm/compiled.go); the per-cycle interpreter,
# execute() in internal/sm/execute.go, is the independent reference.
# The compiled engine (pre-decoded streams + basic-block fast-forward)
# must be bit-identical to it — counters, derived metrics, memory
# fingerprints, trace streams — over the golden corpus (both modes),
# the workload/policy matrix, randomized divergent kernels, and the
# fuzz seed corpus. The alloc pin covers the compiled steady-state loop
# itself; the compile-pass tests pin the lowering and its
# one-compile-per-program cache.
go test -race -count=1 -run 'TestCompiled|TestGolden' ./internal/gpu ./internal/experiments
go test -race -count=1 -run 'FuzzRun' ./internal/gpu

echo "== matrix gate =="
# The cross-matrix differential layer under the race detector: every
# workload-family x scheduler-policy x SI cell must be bit-identical
# across worker counts and across the compiled and interpreted engines,
# and the per-family invariants (SI transparency on divergence-free
# GEMM, idle-bucket conservation, schedule-independent work and memory
# images) must hold in every cell.
go test -race -count=1 -run 'TestMatrixDifferential|TestPropertyGEMMSITransparency|TestPropertyGeneratorInvariants' ./internal/gpu
go test -race -count=1 -run 'TestCompile|TestCompiledSteadyStateZeroAlloc|TestApplySimple' ./internal/isa ./internal/sm

echo "== service smoke =="
# Drive the real sisimd binary end to end: start it on an ephemeral
# port, POST a job twice, require the second response to come from the
# content-addressed cache, then SIGTERM and require a clean drain.
# The exposition test scrapes /metrics in both formats against the
# live daemon: the JSON document must keep its legacy keys and the
# Prometheus rendering must pass the grammar lint with every required
# series present (queue depth, cache hits/misses, per-stage latency,
# SI counters, build info).
go test -count=1 -run 'TestDaemonSmoke|TestDaemonMetricsExposition|TestDaemonVersionFlag' ./cmd/sisimd

echo "== observability gate =="
# The in-process plane: exposition lints, required series pinned,
# trace IDs propagate client header -> spans -> logs -> debug ring,
# and the serving config keeps Block.step allocation-free.
go test -count=1 -run 'TestMetricsContentNegotiation|TestTraceIDPropagationEndToEnd|TestDebugEvents|TestBreakerTransitionEvents' ./internal/server
go test -count=1 -run 'TestServingConfigZeroAlloc|TestBlockStepSteadyStateZeroAlloc' ./internal/sm

echo "== sandbox gate =="
# The untrusted-kernel pipeline end to end. First the static and
# dynamic layers in isolation: the admission fuzzer's seed corpus, the
# budget-kill bit-identity differentials (engines and worker counts),
# and the budget-aware cache keys. Then the live gauntlet: a
# race-enabled sisimd is fed the entire hostile corpus over
# POST /v1/submit — every program must be rejected with a structured
# reason or killed within its gas budget, the daemon must stay healthy
# and keep serving well-formed work, and the sample kernels in
# examples/submissions must run through sisim -submit, which applies
# the identical admission checks and budgets locally.
go test -race -count=1 ./internal/admission
go test -race -count=1 -run 'TestBudget|TestKeyBudget' \
    ./internal/gpu ./internal/simcache
go test -count=1 -run 'TestBudgetedSteadyStateZeroAlloc' ./internal/sm
go test -count=1 -run 'TestDaemonSubmitSandbox' -timeout 10m ./cmd/sisimd
go test -count=1 -run 'TestCLISubmitSamples|TestCLISubmitSandbox' ./cmd/sisim

echo "== fuzz gate =="
# Time-boxed fuzzing of the two entry points untrusted text reaches,
# FuzzAssemble (the table-driven parser and printer must reach a
# disassembly fixed point) and FuzzAdmission (an admitted program never
# panics either engine), plus FuzzRun (random divergent kernels must
# stay bit-identical across engines and worker counts). A crasher is
# written under the package's testdata/fuzz and is committed there as a
# regression seed.
go test -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 30s ./internal/isa
go test -run '^$' -fuzz '^FuzzAdmission$' -fuzztime 30s ./internal/admission
go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 30s ./internal/gpu

echo "== chaos gate =="
# The fault-injection suites, twice each under the race detector, with
# two fixed chaos seeds: seeded fault schedules must replay
# byte-for-byte, injected faults must never produce a wrong result,
# and the chaos tests' goroutine-leak checks must stay quiet.
for seed in 1 7; do
    echo "-- SISIM_CHAOS_SEED=$seed --"
    SISIM_CHAOS_SEED=$seed go test -race -count=2 -run 'Chaos|Faults' \
        ./internal/server ./internal/simcache
done
SISIM_CHAOS_SEED=1 go test -race -count=1 ./internal/faults

echo "== cluster gate =="
# The cache-affine cluster layer, race-enabled. The in-process suite
# proves the routing invariants: consistent-hash affinity beats the
# single-node cache baseline on a working set larger than one node's
# LRU, a peer killed mid-sweep reroutes with aggregate batch results
# bit-identical to a single node's, saturated peers relay structured
# 429 backpressure, and with every peer dead the coordinator degrades
# to local serving. The daemon test then drives a real coordinator +
# 2-worker topology end to end — affinity hits through the
# coordinator, SIGKILL one worker, identical answers after — and the
# SIGTERM teardown requires a clean drain.
go test -race -count=1 ./internal/cluster
go test -count=1 -run 'TestDaemonCluster' ./cmd/sisimd

echo "== coverage floor =="
# Gate total statement coverage just below the current level so test
# debt cannot creep in silently. Raise the floor when coverage rises.
floor=75.0
go test -coverprofile=cover.out ./... > /dev/null
total=$(go tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
rm -f cover.out
if ! awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t >= f) }'; then
    echo "total coverage ${total}% is below the ${floor}% floor" >&2
    exit 1
fi
echo "ok (${total}% >= ${floor}%)"

echo "== benchmark smoke =="
# One iteration of every benchmark (figure regeneration, throughput,
# and the zero-alloc hot-loop microbenchmarks) proves the whole bench
# harness still runs; timing is not asserted here.
go test -run '^$' -bench . -benchmem -benchtime 1x . ./internal/sm

echo "all checks passed"
