#!/usr/bin/env bash
# One-shot pre-commit gate: build, tests, lints, the determinism/numerics
# analyzer, and a perf-harness smoke run. Everything runs from the repo
# root regardless of invocation cwd, and a per-stage timing table prints
# at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_NAMES=()
STAGE_SECS=()

run_stage() {
    local name="$1"
    shift
    echo "==> ${name}"
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    STAGE_NAMES+=("${name}")
    STAGE_SECS+=($((t1 - t0)))
}

run_stage "cargo build --release" \
    cargo build --release

run_stage "cargo test -q --workspace" \
    cargo test -q --workspace

run_stage "cargo clippy --workspace -- -D warnings" \
    cargo clippy --workspace -- -D warnings

# Blocking static-analysis gate: any finding (HashMap iteration, lib-crate
# unwrap, float ==, ambient RNG/clock, narrowing cast in kernels, missing
# crate-root hygiene attrs, hot-path allocation, unattested float
# reductions, blocking calls in worker closures, unaudited unsafe, stale
# allows, unregistered telemetry keys, raw Instant/SystemTime reads or
# shard-merging .snapshot() calls that bypass telemetry in library crates)
# fails the script. Suppressions need
# a `// analyzer:allow(<rule>): <reason>` comment at the site.
run_stage "faction-analyzer (determinism & numerics lint)" \
    cargo run -q -p faction-analyzer --release

# Analyzer v2 gate: the golden-fixture suite pins every rule's findings to
# `//~ rule` markers (positives and negatives) and re-runs the clean
# workspace self-scan as a test, so a rule that drifts — misses its
# fixture line or flags a new one — fails here even if the live scan
# above happens to stay green (DESIGN.md §12).
run_stage "analyzer-v2 (golden fixtures + self-scan)" \
    cargo test -q -p faction-analyzer --release --test golden

run_stage "perf_report --quick (smoke)" \
    cargo run -p faction-bench --release --bin perf_report -- --quick

# Incremental-GDA correctness gate: on a stationary stream with a frozen
# model, the rank-1 update/downdate path must stay within 1e-8 of a full
# batch refit — unbounded and under sliding-window eviction — and snap
# back to <=1e-10 immediately after a re-anchor (DESIGN.md §11).
run_stage "incremental-GDA stationary equivalence (<=1e-8 vs batch refit)" \
    cargo test -q -p faction-density --release --test incremental_equivalence

# Cross-PR perf gate: read every committed BENCH_PR*.json, print the key
# medians side by side, and fail on a >10% regression of any gated stage
# (harness-written "fail:" gates also fail; "not-applicable:" does not).
run_stage "bench trend (cross-PR perf gates)" \
    cargo run -q -p faction-bench --release --bin bench_trend

# Fault-injection gate: every strategy must survive a poisoned stream
# (NaN/Inf features, vanishing groups, constant-feature and single-class
# tasks) with the full budget spent, finite metrics, byte-identical results
# across worker counts, and degradation visible in telemetry — while clean
# streams report zero degradation (DESIGN.md §10).
run_stage "fault-injection (poisoned streams, graceful degradation)" \
    cargo test -q -p faction-core --release --test fault_injection

# Engine gate: the parallel execution engine must build and its determinism
# suite must prove jobs=1 and jobs=8 produce byte-identical canonical
# results (plus sequential-path equivalence, resume, and journal replay).
run_stage "faction-engine determinism (jobs=1 == jobs=8)" \
    cargo test -q -p faction-engine --release --test determinism

# Wire persistence gate: binary checkpoints/journals must round-trip
# byte-identically to their JSON debug exports (proptests over Checkpoint,
# RunCheckpoint, and JobEvent payloads), and the corruption matrix must
# hold — any single bit flip rejected by CRC, truncation at every byte
# salvaging exactly the valid record prefix, torn tails reported, future
# container versions refused (DESIGN.md §15).
run_stage "wire-roundtrip (binary == JSON export, corruption matrix)" \
    cargo test -q -p faction-engine --release --test wire_roundtrip

# Schedule-chaos sanitizer: the same grids re-run under ChaosSchedule
# seeds, which adversarially perturb worker wake-ups and force requeues,
# and every perturbed schedule must still produce byte-identical canonical
# results vs the jobs=1 baseline (DESIGN.md §12). This is the dynamic
# counterpart of the static worker-closure lints above.
run_stage "chaos-determinism (adversarial schedules, byte-identical)" \
    cargo test -q -p faction-engine --release --test chaos_determinism

# Kernel-backend gate: the dispatch facade's equivalence contract. The
# linalg property suite drives the Scalar and Simd GEMM (plus the
# transposed products and matvec) over random and degenerate shapes and
# requires bit-identity with the i-k-j reference; the engine suite proves
# an 8-strategy lineup renders canonically identical RunRecords with the
# backend pinned to scalar and to simd (DESIGN.md §14).
run_stage "kernel-equivalence (scalar == simd GEMM, bitwise)" \
    cargo test -q -p faction-linalg --release --test kernel_equivalence
run_stage "kernel-determinism (8-strategy lineup, scalar == simd RunRecords)" \
    cargo test -q -p faction-engine --release --test kernel_determinism

# Serve gate: the multi-tenant session server's determinism contract. A
# 64-session mixed workload (five datasets, three strategies, four
# tenants, shed + busy + snapshot/restore traffic) must render the
# byte-identical decision trace at jobs=1, jobs=8, and under three
# ChaosSchedule seeds — with the chaos runs proving via the forced-requeue
# counter that co-tenant interleaving really was perturbed (DESIGN.md §13).
run_stage "serve-determinism (jobs=1 == jobs=8 == chaos)" \
    cargo test -q -p faction-serve --release --test determinism

# Telemetry gate: the inertness proof. Canonical grid results must be
# byte-identical with recording on vs. off, at 1 and 8 workers, through
# checkpoint/resume; canonicalized snapshots must be reproducible.
run_stage "telemetry-inertness (recording on == off)" \
    cargo test -q -p faction-telemetry --release --test inertness

run_stage "engine_scaling --quick (smoke)" \
    cargo run -p faction-bench --release --bin engine_scaling -- --quick

echo
echo "==> all checks passed"
echo "    stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %4ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
