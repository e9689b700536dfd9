#!/usr/bin/env bash
# One-shot pre-commit gate: release build, the workspace test suite, lints,
# and the benchmark's own tests. Everything runs from the repo root
# regardless of invocation cwd, and a per-stage timing table prints at the
# end. The script writes no tracked file.
#
# Each named guarantee is a test file that the workspace stage runs once:
#
# | guarantee                                              | enforced by                                                  |
# |--------------------------------------------------------|--------------------------------------------------------------|
# | incremental GDA (anchor bitwise, drift<=1e-8)          | crates/density/tests/incremental_equivalence.rs              |
# | fault injection (poisoned streams)                     | crates/core/tests/fault_injection.rs                         |
# | engine determinism (jobs=1 == jobs=8)                  | crates/engine/tests/determinism.rs                           |
# | chaos determinism (adversarial schedules)              | crates/engine/tests/chaos_determinism.rs                     |
# | serve determinism (jobs=1 == jobs=8 == chaos)          | crates/serve/tests/determinism.rs                            |
# | wire round-trip (lossless decode, corruption)          | crates/engine/tests/wire_roundtrip.rs                        |
# | wire golden bytes (fixed snapshot + checkpoint pinned) | crates/engine/tests/wire_roundtrip.rs                        |
# | pool decode (untrusted snapshot pool fields rejected)  | crates/core/tests/pool_decode.rs                             |
# | inspect/CLI untrusted-input contract                   | tests/cli_usage.rs                                           |
# | kernel equivalence (scalar == avx2 == avx512, bitwise) | crates/linalg/tests/kernel_equivalence.rs                    |
# | reused GEMM pack scratch carries no state (NaN-filled) | crates/linalg/tests/kernel_equivalence.rs                    |
# | GDA panel kernel == per-point solve (bitwise, NaN/±∞)  | crates/linalg/tests/kernel_equivalence.rs                    |
# | kernel determinism (8-strategy lineup)                 | crates/engine/tests/kernel_determinism.rs                    |
# | allocation-free SGD step (standard + tiny presets)     | crates/core/tests/train_step_alloc.rs                        |
# | allocation-free candidate scoring (full + incremental) | crates/core/tests/scoring_alloc.rs                           |
# | telemetry inertness (recording on == off)              | crates/telemetry/tests/inertness.rs                          |
# | analyzer: 7 project rules + clean self-scan            | crates/analyzer/tests/golden.rs                              |
# | retired analyzer rules rejected by clippy              | crates/analyzer/tests/golden.rs (clippy fixture)             |
# | bounded stream == truncated full stream (bitwise)      | crates/data/tests/prefix_equivalence.rs                      |
# | panicking pool body re-raises, never hangs             | crates/engine/src/pool.rs (unit test)                        |
#
# Performance is measured by perfbench/ (see perfbench/README.md and
# BENCHMARK.json); the last stage only proves it still builds against the
# library and that its own tests pass.
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

# The GEMM backend this host resolves to. The equivalence suite pins every
# backend the host can run and names the ones it skipped, so this line says
# which tile sets the test stage below actually exercised.
cargo run --release --quiet --bin faction_cli -- list | grep '^kernel backend:'

# The test profile, not --release: overflow checks stay on (Cargo.toml).
run_stage "cargo test -q --workspace" \
    cargo test -q --workspace

# --all-targets lints the tests, examples and binaries too, not only the
# library code the plain invocation checks. This stage enforces what were
# six analyzer rules: hash-ordered containers, wall-clock reads and seedless
# hashers (clippy.toml), panics in library code and float equality (crate
# roots), lossy casts in the hot paths, unsafe code and missing docs
# ([workspace.lints]); crates/analyzer/tests/clippy_fixture/ proves each.
run_stage "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings are errors: a paper citation like `[18]` read as a link,
# a public doc linking a private item, or a link to a renamed function.
run_stage "cargo doc --workspace --no-deps (-D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

run_stage "perfbench tests (builds against the library)" \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo
echo "==> all checks passed"
echo "    stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %4ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
