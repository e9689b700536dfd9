//! Deterministic stage-timing harness for the FACTION hot path.
//!
//! Times every stage of the per-iteration inner loop — feature extraction,
//! GDA fit, GDA scoring (per-sample reference vs batched), one training
//! step, and a full FACTION selection round — plus the naive-vs-blocked
//! GEMM kernels, and writes the result to `BENCH_PR1.json` at the repo
//! root. Each PR appends a `BENCH_PR<k>.json`, so the sequence of files is
//! the repo's performance trajectory on one machine.
//!
//! All inputs are seeded, so the *work* is identical across runs; wall
//! times obviously still vary with the machine. Every pair of compared
//! paths (per-sample vs batched scoring, naive vs blocked matmul) is
//! measured in the same process invocation, which is what the speedup
//! figures in the JSON refer to.
//!
//! Since PR 4 the harness also maintains the telemetry sections of
//! `BENCH_PR4.json` (read-modify-write, shared with `engine_scaling`):
//! the recording-overhead gate (batched scoring with a live registry scope
//! must stay within 3% of the no-op path) and the phase-coverage gate
//! (the runner's eval/selection/train spans must account for >=90% of its
//! own wall clock on an instrumented single-job run).
//!
//! Since PR 7 the harness also writes `BENCH_PR7.json`: steady-state
//! sliding-window push+evict cost at three pool sizes (must stay flat —
//! the tombstone front-eviction claim) plus the wall time of a full
//! analyzer self-scan, which `bench_trend` tracks across PRs.
//!
//! Since PR 8 the harness also writes `BENCH_PR8.json`: multi-tenant
//! serve throughput (sessions/sec) and p99 feed→decision latency at
//! three concurrent-session scales, with an honest scaling gate (a
//! single-core host, or a host already saturated at the smallest scale,
//! records `not-applicable` rather than a fabricated pass).
//!
//! Since PR 9 the harness also writes `BENCH_PR9.json`: the GEMM kernel
//! lineup (naive / scalar blocked / AVX2) at 64, 256, and 512, plus
//! batched GDA scoring per kernel backend, with an honest SIMD gate (a
//! host without AVX2 records `not-applicable` with the measured ratio
//! rather than a fabricated pass).
//!
//! Usage: `cargo run --release --bin perf_report [-- --quick]`
//! (`--quick` shrinks repetition counts for a smoke run; problem sizes are
//! unchanged so the speedup figures remain comparable).

use std::sync::Arc;
use std::time::Instant;

use faction_bench::pr4;
use faction_core::strategies::{
    faction::{FactionParams, RefitMode},
    Faction, SelectionContext, Strategy,
};
use faction_core::checkpoint::Checkpoint;
use faction_core::{ExperimentConfig, LabeledPool, OnlineModel, PoolPolicy};
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_density::{DensityScratch, FairDensityConfig, FairDensityEstimator};
use faction_engine::{Engine, EngineConfig, ExperimentJob};
use faction_linalg::kernels::{matmul_blocked, matmul_simple};
use faction_linalg::simd::matmul_simd_into;
use faction_linalg::{dispatch, KernelBackend, Matrix, SeedRng};
use faction_nn::mlp::{Mlp, MlpConfig};
use faction_nn::{BatchMeta, CrossEntropyLoss, MlpWorkspace, Sgd};
use faction_serve::{parse_workload, ServeConfig, SessionManager};
use faction_telemetry::{Handle, Histogram, Registry};
use faction_wire::{from_wire, to_wire, PayloadKind};
use serde::Serialize;

/// Timing for one named stage.
#[derive(Debug, Clone, Serialize)]
struct StageTiming {
    /// Stage name.
    name: String,
    /// Median wall time per call, in nanoseconds.
    median_ns: u64,
    /// Inner calls per timed sample.
    calls_per_sample: usize,
    /// Timed samples taken (median is over these).
    samples: usize,
}

/// Per-pool-size round timing for one refit mode (PR 6 section).
#[derive(Debug, Clone, Serialize)]
struct RoundCostRow {
    /// Labeled-pool size held steady by a sliding window.
    pool_size: usize,
    /// Median ns for one steady-state selection round (8 new labels replayed
    /// into the pool, then a full candidate scoring pass) under full refit.
    full_refit_round_ns: u64,
    /// Same round under `RefitMode::Incremental` (rank-1 up/downdates).
    incremental_round_ns: u64,
}

/// The report written to `BENCH_PR6.json`: per-round cost must be flat in
/// pool size for the incremental path while the full-refit baseline grows
/// linearly.
#[derive(Debug, Serialize)]
struct Bench6Report {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Steady-state round cost at each pool size, both refit modes.
    rounds: Vec<RoundCostRow>,
    /// incremental(largest) / incremental(smallest) — gate: ≤ 1.5.
    incremental_growth: f64,
    /// full(largest) / full(smallest) — gate: ≥ 3 (it is the linear path).
    full_refit_growth: f64,
    /// Human-readable pass/fail line.
    gate: String,
}

/// Per-pool-size steady-state eviction cost (PR 7 section).
#[derive(Debug, Clone, Serialize)]
struct EvictionCostRow {
    /// Sliding-window capacity held steady.
    pool_size: usize,
    /// Median ns per push into the full window (one append + one front
    /// eviction through the tombstone path).
    push_evict_ns: u64,
}

/// The report written to `BENCH_PR7.json`: the tombstone front-eviction
/// must make steady-state push cost flat in pool size (the old path
/// memmoved the whole buffer, i.e. grew linearly), and the analyzer
/// self-scan wall time is recorded so `bench_trend` can hold future PRs
/// to it.
#[derive(Debug, Serialize)]
struct Bench7Report {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Steady-state push+evict cost at each window size.
    evictions: Vec<EvictionCostRow>,
    /// push_evict(largest) / push_evict(smallest) — gate: ≤ 2.0 (the
    /// pre-tombstone memmove path grew ~16x over this size range).
    eviction_growth: f64,
    /// Wall time of one full `analyze_workspace` self-scan, milliseconds
    /// (median of three runs). Tracked across PRs by `bench_trend`.
    analyzer_self_scan_ms: u64,
    /// Files the self-scan covered.
    analyzer_files_scanned: usize,
    /// Findings the self-scan produced (must be 0 — check.sh enforces it).
    analyzer_findings: usize,
    /// Human-readable pass/fail line.
    gate: String,
}

/// Per-scale serve throughput/latency row (PR 8 section).
#[derive(Debug, Clone, Serialize)]
struct ServeScaleRow {
    /// Concurrent sessions driven through the manager.
    sessions: usize,
    /// Wall time for the whole workload (open → task → rounds → close).
    wall_ms: u64,
    /// Sessions completed per second of wall time.
    sessions_per_sec: f64,
    /// p99 feed→decision latency, conservative log2-bucket upper bound.
    feed_p99_ns: u64,
    /// Number of feed calls the p99 is over.
    feeds: u64,
}

/// The report written to `BENCH_PR8.json`: multi-tenant serve throughput
/// must scale with session count on a multicore host — or the harness must
/// say honestly why the gate does not apply (single core, or per-wave
/// parallelism already saturated at the smallest scale).
#[derive(Debug, Serialize)]
struct Bench8Report {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Worker threads the session manager fanned waves over.
    workers: usize,
    /// Throughput and latency at each concurrent-session scale.
    scales: Vec<ServeScaleRow>,
    /// sessions_per_sec(largest) / sessions_per_sec(smallest).
    throughput_ratio: f64,
    /// Human-readable `ok:` / `not-applicable:` / `fail:` line.
    gate: String,
}

/// Per-size GEMM timing across the kernel backends (PR 9 section).
#[derive(Debug, Clone, Serialize)]
struct GemmBackendRow {
    /// Square problem size (`dim × dim × dim`).
    dim: usize,
    /// The kept i-k-j naive reference.
    naive_ns: u64,
    /// Scalar blocked/packed kernel (`matmul_blocked`).
    blocked_ns: u64,
    /// AVX2 micro-kernel path (`matmul_simd_into`; falls back to the
    /// scalar tile on hosts without AVX2 — `simd_available` says which).
    simd_ns: u64,
}

/// The report written to `BENCH_PR9.json`: the kernel backend lineup. A
/// host without AVX2 records `not-applicable` with the measured ratio
/// instead of a fabricated pass. Note the scalar blocked baseline is itself
/// compiled with `-C target-cpu=native`, so the explicit-intrinsics ratio
/// over it measures *headroom over autovectorization*, not over scalar
/// arithmetic.
#[derive(Debug, Serialize)]
struct Bench9Report {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Whether the AVX2 micro-kernel was actually live on this host.
    simd_available: bool,
    /// GEMM medians per backend at each size.
    gemm: Vec<GemmBackendRow>,
    /// blocked/simd at 256 — tracked across PRs by `bench_trend` (gate:
    /// the explicit micro-kernel must never fall >10% behind the
    /// autovectorized scalar path it replaced as the default).
    simd_vs_blocked_256: f64,
    /// Batched GDA scoring (1000×16, 8 components) pinned to Scalar.
    score_f64_scalar_ns: u64,
    /// Same scoring pass pinned to Simd.
    score_f64_simd_ns: u64,
    /// Human-readable `ok:` / `not-applicable:` / `fail:` line.
    gate: String,
}

/// Per-pool-size checkpoint persistence cost (PR 10 section): the wire
/// container's bytes and codec medians next to both JSON renders of the
/// same `Checkpoint`.
#[derive(Debug, Clone, Serialize)]
struct WireSizeRow {
    /// Labeled-pool rows captured in the checkpoint (16-d features).
    pool_size: usize,
    /// Bytes of the `to_wire` binary container.
    wire_bytes: usize,
    /// Bytes of the compact JSON render (the pre-PR-10 on-disk format).
    compact_json_bytes: usize,
    /// Bytes of the pretty JSON render (the `--debug-export` format).
    pretty_json_bytes: usize,
    /// Median ns for one `to_wire` encode of the checkpoint.
    encode_ns: u64,
    /// Median ns for one `from_wire` decode back to a `Checkpoint`.
    decode_ns: u64,
    /// Median ns for one compact-JSON encode, for scale.
    json_encode_ns: u64,
    /// compact_json_bytes / wire_bytes.
    compact_ratio: f64,
    /// pretty_json_bytes / wire_bytes.
    pretty_ratio: f64,
}

/// The report written to `BENCH_PR10.json`: durable-persistence size and
/// codec cost. The shipped claim is on the *pretty debug export* — the
/// JSON format PR 10 actually demoted the checkpoint path from — and the
/// compact ratio is recorded alongside so the gate line stays honest about
/// which render the 3x is measured against.
#[derive(Debug, Serialize)]
struct Bench10Report {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Size + codec medians at each pool size.
    checkpoints: Vec<WireSizeRow>,
    /// compact JSON bytes / wire bytes at pool 4000.
    compact_ratio_4000: f64,
    /// pretty JSON bytes / wire bytes at pool 4000 — tracked across PRs by
    /// `bench_trend` (gate: >=3x, claim ± 10%).
    pretty_ratio_4000: f64,
    /// Human-readable `ok:` / `fail:` line.
    gate: String,
}

/// Conservative p99 from a log2-bucket histogram: the upper bound of the
/// bucket the 99th-percentile rank falls in.
fn histogram_p99(h: &Histogram) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = (h.count as f64 * 0.99).ceil() as u64;
    let mut seen = 0u64;
    for (i, &bucket) in h.buckets.iter().enumerate() {
        seen = seen.saturating_add(bucket);
        if seen >= rank {
            // Bucket i holds [2^(i-1), 2^i); its upper bound cannot
            // overstate by more than 2x, and never understates.
            return match i {
                0 => 0,
                1..=63 => (1u64 << i).min(h.max),
                _ => h.max,
            };
        }
    }
    h.max
}

/// The full report written to `BENCH_PR1.json`.
#[derive(Debug, Serialize)]
struct PerfReport {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Per-stage medians.
    stages: Vec<StageTiming>,
    /// Batched GDA scoring speedup over the per-sample reference
    /// (1000 candidates, 16-d features, 8 components).
    gda_batch_speedup: f64,
    /// Blocked matmul speedup over the kept naive kernel at 256×256.
    matmul_256_speedup: f64,
}

/// Medians the wall time of `reps` samples of `calls` back-to-back calls.
fn time_stage<F: FnMut()>(name: &str, reps: usize, calls: usize, mut f: F) -> StageTiming {
    let mut samples: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push((start.elapsed().as_nanos() / calls as u128) as u64);
    }
    samples.sort_unstable();
    StageTiming {
        name: name.into(),
        median_ns: samples[samples.len() / 2],
        calls_per_sample: calls,
        samples: reps,
    }
}

fn synthetic(n: usize, d: usize, classes: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<i8>) {
    let mut rng = SeedRng::new(seed);
    let mut features = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(n);
    let mut sens = Vec::with_capacity(n);
    for i in 0..n {
        let y = i % classes;
        let s: i8 = if (i / classes).is_multiple_of(2) { 1 } else { -1 };
        let mut x = rng.standard_normal_vec(d);
        x[0] += 2.0 * y as f64;
        x[1] += f64::from(s);
        features.push_row(&x).unwrap();
        labels.push(y);
        sens.push(s);
    }
    (features, labels, sens)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 11 };
    let mut stages: Vec<StageTiming> = Vec::new();

    // --- GEMM kernels: kept naive reference vs blocked/packed path -------
    let mut rng = SeedRng::new(17);
    let dim = 256;
    let a = Matrix::from_vec(
        dim,
        dim,
        (0..dim * dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
    )
    .unwrap();
    let b = Matrix::from_vec(
        dim,
        dim,
        (0..dim * dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
    )
    .unwrap();
    let naive = time_stage("matmul_256_naive", reps, 1, || {
        std::hint::black_box(a.matmul_naive(&b).unwrap());
    });
    let blocked = time_stage("matmul_256_blocked", reps, 1, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    });
    let matmul_256_speedup = naive.median_ns as f64 / blocked.median_ns as f64;
    stages.push(naive);
    stages.push(blocked);

    // --- GDA: fit + scoring at the gate configuration --------------------
    // 1000 candidates, 16-d features, 8 components (4 classes × 2 groups).
    let (d, classes) = (16, 4);
    let (train_x, train_y, train_s) = synthetic(2000, d, classes, 23);
    let (cand_x, _, _) = synthetic(1000, d, classes, 29);
    let cfg = FairDensityConfig::default();
    let fit = time_stage("gda_fit_2000x16", reps, 1, || {
        std::hint::black_box(
            FairDensityEstimator::fit(&train_x, &train_y, &train_s, classes, &cfg).unwrap(),
        );
    });
    stages.push(fit);

    let est = FairDensityEstimator::fit(&train_x, &train_y, &train_s, classes, &cfg).unwrap();
    let n = cand_x.rows();
    let per_sample = time_stage("gda_score_1000_per_sample", reps, 1, || {
        let mut acc = 0.0;
        for i in 0..n {
            let z = cand_x.row(i);
            acc += est.log_density(z).unwrap();
            acc += est.delta_g_all(z).unwrap().iter().sum::<f64>();
        }
        std::hint::black_box(acc);
    });
    let mut scratch = DensityScratch::new();
    let mut log_density = vec![0.0; n];
    let mut gaps = Matrix::zeros(0, 0);
    let batched = time_stage("gda_score_1000_batched", reps, 1, || {
        est.score_batch_into(&cand_x, &mut scratch, &mut log_density, &mut gaps).unwrap();
        std::hint::black_box(&log_density);
    });
    let gda_batch_speedup = per_sample.median_ns as f64 / batched.median_ns as f64;
    stages.push(per_sample);
    stages.push(batched);

    // --- Telemetry overhead: the same batched pass, recording live -------
    // The scoring kernels emit one counter and one histogram observation
    // per *batch*, so a live registry scope must be indistinguishable from
    // the no-op path at this granularity (PR-4 gate: < 3%). The two paths
    // are sampled *alternately* (noop, recorded, noop, …) so CPU frequency
    // drift and neighbor noise hit both medians equally instead of biasing
    // whichever path runs second.
    let overhead_registry = Arc::new(Registry::new());
    let handle = Handle::from(overhead_registry.clone());
    let overhead_reps = reps.max(7);
    let overhead_calls = 8;
    let mut noop_samples: Vec<u64> = Vec::with_capacity(overhead_reps);
    let mut recorded_samples: Vec<u64> = Vec::with_capacity(overhead_reps);
    for _ in 0..overhead_reps {
        let start = Instant::now();
        for _ in 0..overhead_calls {
            est.score_batch_into(&cand_x, &mut scratch, &mut log_density, &mut gaps).unwrap();
            std::hint::black_box(&log_density);
        }
        noop_samples.push((start.elapsed().as_nanos() / overhead_calls as u128) as u64);

        let _scope = handle.enter();
        let start = Instant::now();
        for _ in 0..overhead_calls {
            est.score_batch_into(&cand_x, &mut scratch, &mut log_density, &mut gaps).unwrap();
            std::hint::black_box(&log_density);
        }
        recorded_samples.push((start.elapsed().as_nanos() / overhead_calls as u128) as u64);
    }
    noop_samples.sort_unstable();
    recorded_samples.sort_unstable();
    let noop_median_ns = noop_samples[noop_samples.len() / 2];
    let recorded = StageTiming {
        name: "gda_score_1000_batched_recorded".into(),
        median_ns: recorded_samples[recorded_samples.len() / 2],
        calls_per_sample: overhead_calls,
        samples: overhead_reps,
    };
    assert!(
        overhead_registry.snapshot().counter("density.gda.score_batches").unwrap_or(0) > 0,
        "the recorded pass must actually have recorded"
    );
    let overhead_pct =
        (recorded.median_ns as f64 - noop_median_ns as f64) / noop_median_ns as f64 * 100.0;
    let telemetry_overhead = pr4::OverheadSection {
        quick,
        noop_median_ns,
        recording_median_ns: recorded.median_ns,
        overhead_pct,
        gate: if overhead_pct < 3.0 {
            format!("pass: {overhead_pct:+.2}% recording overhead on batched scoring (gate: <3%)")
        } else {
            format!("fail: {overhead_pct:+.2}% recording overhead on batched scoring (gate: <3%)")
        },
    };
    stages.push(recorded);

    // --- MLP stages: feature extraction and one training step ------------
    let arch = faction_nn::MlpConfig::new(vec![d, 64, 32, 2], 31);
    let mut mlp = faction_nn::Mlp::new(&arch);
    let mut ws = MlpWorkspace::new();
    let mut feats = Matrix::zeros(0, 0);
    let features = time_stage("feature_extraction_1000", reps, 4, || {
        mlp.features_into(&cand_x, &mut ws, &mut feats);
        std::hint::black_box(&feats);
    });
    stages.push(features);

    let labels2: Vec<usize> = train_y.iter().map(|&y| y % 2).collect();
    let meta = BatchMeta { labels: &labels2[..512], sensitive: &train_s[..512] };
    let mut batch = Matrix::zeros(0, 0);
    for i in 0..512 {
        batch.push_row(train_x.row(i)).unwrap();
    }
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let train = time_stage("train_step_512", reps, 4, || {
        std::hint::black_box(mlp.train_step_with(&batch, &meta, &CrossEntropyLoss, &mut opt, &mut ws));
    });
    stages.push(train);

    // --- Full FACTION selection round ------------------------------------
    let exp_cfg = ExperimentConfig::quick();
    let mut model = OnlineModel::new(&arch, &exp_cfg, 37);
    let mut pool = LabeledPool::new();
    for i in 0..300 {
        pool.push(train_x.row(i).to_vec(), labels2[i], train_s[i]);
    }
    model.retrain(&pool, &CrossEntropyLoss);
    let mut strategy = Faction::new(FactionParams::default());
    let cand_sens: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    let mut round_rng = SeedRng::new(41);
    let round = time_stage("faction_round_1000", reps, 1, || {
        let ctx = SelectionContext {
            model: &model,
            pool: &pool,
            candidates: &cand_x,
            candidate_sensitives: &cand_sens,
            num_classes: 2,
        };
        std::hint::black_box(strategy.desirability(&ctx, &mut round_rng));
    });
    stages.push(round);

    // --- PR6: per-round cost vs pool size (incremental vs full refit) ----
    // A sliding window holds the pool at each target size; every timed
    // round pushes 8 fresh labels (8 adds + 8 evictions through the delta
    // log) and scores a small candidate batch, so the candidate-side cost
    // is constant and the refit cost is what varies. Under full refit a
    // round re-extracts and refits the whole pool (linear in pool size);
    // under incremental refit it replays 16 rank-1 up/downdates (flat).
    let pr6_sizes = [250usize, 1000, 4000];
    let pr6_reps = if quick { 5 } else { 15 };
    let (pr6_cands, _, _) = synthetic(16, d, 2, 53);
    let pr6_cand_sens: Vec<i8> = (0..16).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    let mut pr6_rounds: Vec<RoundCostRow> = Vec::new();
    for &size in &pr6_sizes {
        let mut mode_ns = [0u64; 2];
        for (slot, refit) in [
            RefitMode::Full,
            RefitMode::Incremental { reanchor_every: 64 },
        ]
        .into_iter()
        .enumerate()
        {
            let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(size), 47);
            let mut next = 0usize;
            let mut push_rows = |pool: &mut LabeledPool, count: usize| {
                for _ in 0..count {
                    let i = next % train_x.rows();
                    pool.push(train_x.row(i).to_vec(), labels2[i], train_s[i]);
                    next += 1;
                }
            };
            push_rows(&mut pool, size);
            let strategy = Faction::new(FactionParams { refit, ..Default::default() });
            // Warm-up round: anchors the incremental state (and reaches the
            // scratch high-water mark) so the timed rounds are steady-state.
            {
                let ctx = SelectionContext {
                    model: &model,
                    pool: &pool,
                    candidates: &pr6_cands,
                    candidate_sensitives: &pr6_cand_sens,
                    num_classes: 2,
                };
                std::hint::black_box(strategy.raw_scores(&ctx));
            }
            let label = if slot == 0 { "full" } else { "incremental" };
            let timing =
                time_stage(&format!("pr6_round_{label}_{size}"), pr6_reps, 1, || {
                    push_rows(&mut pool, 8);
                    let ctx = SelectionContext {
                        model: &model,
                        pool: &pool,
                        candidates: &pr6_cands,
                        candidate_sensitives: &pr6_cand_sens,
                        num_classes: 2,
                    };
                    std::hint::black_box(strategy.raw_scores(&ctx));
                });
            mode_ns[slot] = timing.median_ns;
        }
        pr6_rounds.push(RoundCostRow {
            pool_size: size,
            full_refit_round_ns: mode_ns[0],
            incremental_round_ns: mode_ns[1],
        });
    }
    let incremental_growth = pr6_rounds[pr6_rounds.len() - 1].incremental_round_ns as f64
        / pr6_rounds[0].incremental_round_ns as f64;
    let full_refit_growth = pr6_rounds[pr6_rounds.len() - 1].full_refit_round_ns as f64
        / pr6_rounds[0].full_refit_round_ns as f64;
    let pr6_gate = if incremental_growth <= 1.5 && full_refit_growth >= 3.0 {
        format!(
            "pass: incremental round cost grows {incremental_growth:.2}x from pool 250 to 4000 \
             (gate: <=1.5x) while full refit grows {full_refit_growth:.2}x (gate: >=3x)"
        )
    } else {
        format!(
            "fail: incremental round cost grows {incremental_growth:.2}x from pool 250 to 4000 \
             (gate: <=1.5x) while full refit grows {full_refit_growth:.2}x (gate: >=3x)"
        )
    };
    let bench6 = Bench6Report {
        report: "BENCH_PR6".into(),
        quick,
        rounds: pr6_rounds,
        incremental_growth,
        full_refit_growth,
        gate: pr6_gate.clone(),
    };

    // --- PR7: steady-state eviction cost + analyzer self-scan ------------
    // The sliding-window pool holds each target size, so every timed push
    // is one back append plus one front eviction. With the tombstone head
    // this is O(d) regardless of pool size; the old path memmoved the full
    // feature buffer, growing linearly over this range.
    //
    // The harness lives two levels below the repo root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits at <root>/crates/bench")
        .to_path_buf();
    let pr7_sizes = [250usize, 1000, 4000];
    let pr7_reps = if quick { 5 } else { 15 };
    let mut evictions: Vec<EvictionCostRow> = Vec::new();
    for &size in &pr7_sizes {
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(size), 61);
        let mut next = 0usize;
        while pool.len() < size {
            let i = next % train_x.rows();
            pool.push(train_x.row(i).to_vec(), labels2[i], train_s[i]);
            next += 1;
        }
        let timing = time_stage(&format!("pr7_push_evict_{size}"), pr7_reps, 64, || {
            let i = next % train_x.rows();
            pool.push(train_x.row(i).to_vec(), labels2[i], train_s[i]);
            next += 1;
        });
        evictions.push(EvictionCostRow { pool_size: size, push_evict_ns: timing.median_ns });
    }
    let eviction_growth = evictions[evictions.len() - 1].push_evict_ns as f64
        / evictions[0].push_evict_ns.max(1) as f64;

    // Analyzer self-scan: median-of-three full-workspace passes, recorded
    // so bench_trend can flag a creeping slowdown as rules accumulate.
    let mut scan_ns: Vec<u64> = Vec::new();
    let mut scan_report = None;
    for _ in 0..3 {
        let start = Instant::now();
        let rep = faction_analyzer::analyze_workspace(&root).expect("workspace self-scan");
        scan_ns.push(start.elapsed().as_nanos() as u64);
        scan_report = Some(rep);
    }
    scan_ns.sort_unstable();
    let scan_report = scan_report.expect("at least one scan ran");
    let analyzer_self_scan_ms = scan_ns[scan_ns.len() / 2] / 1_000_000;
    let pr7_gate = if eviction_growth <= 2.0 && scan_report.findings.is_empty() {
        format!(
            "pass: push+evict cost grows {eviction_growth:.2}x from pool 250 to 4000 \
             (gate: <=2.0x) and the analyzer self-scan is clean"
        )
    } else {
        format!(
            "fail: push+evict cost grows {eviction_growth:.2}x from pool 250 to 4000 \
             (gate: <=2.0x); analyzer self-scan findings: {}",
            scan_report.findings.len()
        )
    };
    let bench7 = Bench7Report {
        report: "BENCH_PR7".into(),
        quick,
        evictions,
        eviction_growth,
        analyzer_self_scan_ms,
        analyzer_files_scanned: scan_report.files_scanned,
        analyzer_findings: scan_report.findings.len(),
        gate: pr7_gate.clone(),
    };

    // --- PR8: multi-tenant serve throughput + feed latency ----------------
    // Each scale drives N sessions (4 tenants, cheap single-task streams)
    // through the full SessionManager wave machinery: open, one task, two
    // acquisition rounds, close. Throughput is end-to-end sessions/sec;
    // latency is the per-call `serve.feed_ns` histogram the manager records
    // around `OnlineSession::feed`.
    let serve_workers = faction_engine::resolve_workers(None);
    let pr8_scales: &[usize] = if quick { &[16, 64, 256] } else { &[64, 512, 2048] };
    let mut serve_scales: Vec<ServeScaleRow> = Vec::new();
    for &sessions in pr8_scales {
        let mut w = String::new();
        for i in 0..sessions {
            w += &format!(
                "open s{i} tenant=t{} dataset=rcmnist strategy=random seed={} \
                 tasks=1 samples=40 budget=4 batch=2 warm=8\n",
                i % 4,
                100 + i
            );
        }
        w += "drain\n";
        for i in 0..sessions {
            w += &format!("task s{i} 0\nround s{i}\nround s{i}\n");
        }
        for i in 0..sessions {
            w += &format!("close s{i}\n");
        }
        let requests = parse_workload(&w, &ExperimentConfig::quick()).expect("pr8 workload parses");
        let serve_registry = Arc::new(Registry::new());
        let mut manager = SessionManager::new(ServeConfig {
            workers: serve_workers,
            max_sessions: sessions,
            recorder: Handle::from(serve_registry.clone()),
            ..ServeConfig::default()
        });
        let start = Instant::now();
        manager.run(&requests);
        let wall = start.elapsed();
        let snapshot = serve_registry.snapshot();
        assert_eq!(
            snapshot.counter("serve.sessions.closed"),
            Some(sessions as u64),
            "pr8 workload must complete every session"
        );
        let feed = snapshot.histogram("serve.feed_ns").expect("serve.feed_ns recorded");
        serve_scales.push(ServeScaleRow {
            sessions,
            wall_ms: wall.as_millis() as u64,
            sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
            feed_p99_ns: histogram_p99(feed),
            feeds: feed.count,
        });
    }
    let throughput_ratio = serve_scales[serve_scales.len() - 1].sessions_per_sec
        / serve_scales[0].sessions_per_sec.max(f64::MIN_POSITIVE);
    let (lo, hi) = (serve_scales[0].sessions, serve_scales[serve_scales.len() - 1].sessions);
    let pr8_gate = if serve_workers < 2 {
        "not-applicable: single-core host — serve wave fan-out has no parallelism to scale".into()
    } else if throughput_ratio >= 2.0 {
        format!(
            "ok: serve throughput scales {throughput_ratio:.2}x from {lo} to {hi} concurrent \
             sessions on {serve_workers} workers (gate: >=2x)"
        )
    } else {
        format!(
            "not-applicable: per-wave parallelism is already saturated at {lo} sessions on \
             {serve_workers} workers — throughput ratio {lo}→{hi} is {throughput_ratio:.2}x, \
             per-session cost is constant by design (recorded honestly, not gated)"
        )
    };
    let bench8 = Bench8Report {
        report: "BENCH_PR8".into(),
        quick,
        workers: serve_workers,
        scales: serve_scales,
        throughput_ratio,
        gate: pr8_gate.clone(),
    };

    // --- PR9: kernel backend lineup ---------------------------------------
    // All three GEMM entry points are timed through their facade-free raw
    // interfaces so the measurement pins a *backend*, not whatever the
    // process-global dispatch happens to hold. The rows take the full run's
    // sample count even under --quick: a median of three ~2 ms samples
    // swings by more than the gated ratio's 10% band on a shared host.
    let gemm_reps = reps.max(11);
    let pr9_dims = [64usize, 256, 512];
    let mut gemm_rows: Vec<GemmBackendRow> = Vec::new();
    let mut pr9_rng = SeedRng::new(71);
    for &dim in &pr9_dims {
        let a: Vec<f64> = (0..dim * dim).map(|_| pr9_rng.uniform_range(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..dim * dim).map(|_| pr9_rng.uniform_range(-1.0, 1.0)).collect();
        let mut out = vec![0.0; dim * dim];
        let naive = time_stage(&format!("pr9_gemm_naive_{dim}"), gemm_reps, 1, || {
            matmul_simple(&a, &b, &mut out, dim, dim, dim);
            std::hint::black_box(&out);
        });
        let blocked = time_stage(&format!("pr9_gemm_blocked_{dim}"), gemm_reps, 1, || {
            matmul_blocked(&a, &b, &mut out, dim, dim, dim);
            std::hint::black_box(&out);
        });
        let simd = time_stage(&format!("pr9_gemm_simd_{dim}"), gemm_reps, 1, || {
            matmul_simd_into(&a, &b, &mut out, dim, dim, dim);
            std::hint::black_box(&out);
        });
        gemm_rows.push(GemmBackendRow {
            dim,
            naive_ns: naive.median_ns,
            blocked_ns: blocked.median_ns,
            simd_ns: simd.median_ns,
        });
    }
    let row256 = &gemm_rows[1];
    let simd_vs_blocked_256 = row256.blocked_ns as f64 / row256.simd_ns.max(1) as f64;

    // Batched GDA scoring per backend (the dispatch facade is what the
    // scoring pipeline actually routes through).
    let prev_backend = dispatch::active_backend();
    dispatch::set_active_backend(KernelBackend::Scalar);
    let score_scalar = time_stage("pr9_score_f64_scalar", reps, 2, || {
        est.score_batch_into(&cand_x, &mut scratch, &mut log_density, &mut gaps).unwrap();
        std::hint::black_box(&log_density);
    });
    dispatch::set_active_backend(KernelBackend::Simd);
    let score_simd = time_stage("pr9_score_f64_simd", reps, 2, || {
        est.score_batch_into(&cand_x, &mut scratch, &mut log_density, &mut gaps).unwrap();
        std::hint::black_box(&log_density);
    });
    dispatch::set_active_backend(prev_backend);

    let simd_live = faction_linalg::dispatch::simd_available();
    let pr9_gate = if !simd_live {
        format!(
            "not-applicable: host lacks AVX2 — simd rows fell back to the scalar tile \
             (measured simd {simd_vs_blocked_256:.2}x vs scalar blocked at 256)"
        )
    } else if simd_vs_blocked_256 >= 0.9 {
        format!(
            "ok: simd micro-kernel {simd_vs_blocked_256:.2}x vs the target-cpu=native \
             autovectorized scalar blocked path at 256 (gate: >=0.9x)"
        )
    } else {
        format!(
            "fail: simd micro-kernel {simd_vs_blocked_256:.2}x vs the target-cpu=native \
             autovectorized scalar blocked path at 256 (gate: >=0.9x)"
        )
    };
    let bench9 = Bench9Report {
        report: "BENCH_PR9".into(),
        quick,
        simd_available: simd_live,
        gemm: gemm_rows,
        simd_vs_blocked_256,
        score_f64_scalar_ns: score_scalar.median_ns,
        score_f64_simd_ns: score_simd.median_ns,
        gate: pr9_gate.clone(),
    };

    // --- PR 10: wire persistence — checkpoint bytes + codec cost ---------
    // The durable-persistence claim: the versioned binary container must be
    // at least 3x smaller than the pretty JSON debug export at pool 4000.
    // Problem sizes are fixed (size ratios are what bench_trend gates);
    // --quick only shrinks the timing repetitions.
    let pr10_reps = if quick { 3 } else { 9 };
    let pr10_pools: &[usize] = &[250, 1000, 4000];
    let mut pr10_rows: Vec<WireSizeRow> = Vec::new();
    for &pool_size in pr10_pools {
        let mut rng = SeedRng::new(0xF10 + pool_size as u64);
        let mut pool = LabeledPool::new();
        for i in 0..pool_size {
            let y = i % 2;
            let mut x = rng.standard_normal_vec(16);
            x[0] += 2.0 * y as f64;
            pool.push(x, y, if i % 3 == 0 { 1 } else { -1 });
        }
        let mlp = Mlp::new(&MlpConfig::new(vec![16, 32, 2], 7));
        let ckpt = Checkpoint::capture(&mlp, &pool, pool_size);
        let wire = to_wire(PayloadKind::Checkpoint, &ckpt).expect("checkpoint encodes");
        let compact = serde_json::to_string(&ckpt).expect("checkpoint renders");
        let pretty = serde_json::to_string_pretty(&ckpt).expect("checkpoint renders");
        let mut sink = 0usize;
        let encode = time_stage("wire_encode", pr10_reps, 1, || {
            sink += to_wire(PayloadKind::Checkpoint, &ckpt).unwrap().len();
        });
        let decode = time_stage("wire_decode", pr10_reps, 1, || {
            let decoded: Checkpoint =
                from_wire(PayloadKind::Checkpoint, &wire).unwrap();
            sink += std::hint::black_box(&decoded).next_task;
        });
        let json_encode = time_stage("json_encode", pr10_reps, 1, || {
            sink += serde_json::to_string(&ckpt).unwrap().len();
        });
        std::hint::black_box(sink);
        pr10_rows.push(WireSizeRow {
            pool_size,
            wire_bytes: wire.len(),
            compact_json_bytes: compact.len(),
            pretty_json_bytes: pretty.len(),
            encode_ns: encode.median_ns,
            decode_ns: decode.median_ns,
            json_encode_ns: json_encode.median_ns,
            compact_ratio: compact.len() as f64 / wire.len() as f64,
            pretty_ratio: pretty.len() as f64 / wire.len() as f64,
        });
    }
    let pr10_last = pr10_rows.last().expect("pr10 rows nonempty");
    let compact_ratio_4000 = pr10_last.compact_ratio;
    let pretty_ratio_4000 = pr10_last.pretty_ratio;
    let pr10_gate = if pretty_ratio_4000 >= 3.0 {
        format!(
            "ok: wire checkpoint at pool 4000 is {pretty_ratio_4000:.2}x smaller than its \
             pretty debug export ({compact_ratio_4000:.2}x vs compact JSON; gate: >=3x vs pretty)"
        )
    } else {
        format!(
            "fail: wire checkpoint at pool 4000 is only {pretty_ratio_4000:.2}x smaller than \
             its pretty debug export ({compact_ratio_4000:.2}x vs compact JSON; gate: >=3x vs \
             pretty)"
        )
    };
    let bench10 = Bench10Report {
        report: "BENCH_PR10".into(),
        quick,
        checkpoints: pr10_rows,
        compact_ratio_4000,
        pretty_ratio_4000,
        gate: pr10_gate.clone(),
    };

    // --- Phase coverage: instrumented end-to-end run ---------------------
    // One FACTION job through the engine with a live registry; the runner's
    // top-level phase spans (eval/selection/train — score and acquire nest
    // inside selection and are not double-counted) must account for nearly
    // all of the runner's own wall clock, or the Fig. 5 runtime
    // decomposition is missing a phase.
    let phase_registry = Arc::new(Registry::new());
    let engine = Engine::new(EngineConfig {
        workers: 1,
        max_retries: 0,
        checkpoint_dir: None,
        recorder: Handle::from(phase_registry.clone()),
        chaos: None,
        ..EngineConfig::default()
    });
    let cov_cfg = ExperimentConfig {
        budget: 40,
        acquisition_batch: 10,
        warm_start: 40,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    };
    let mut cov_job = ExperimentJob::new(Dataset::Rcmnist, "faction", 0, cov_cfg, Scale::Quick);
    cov_job.arch = faction_engine::ArchPreset::Tiny;
    cov_job.truncate_tasks = Some(3);
    cov_job.truncate_samples = Some(250);
    let cov_outcome = engine.run_grid(std::slice::from_ref(&cov_job));
    assert!(cov_outcome.failures.is_empty(), "coverage job failed: {:?}", cov_outcome.failures);
    let end_to_end_ns = (cov_outcome.records[0]
        .as_ref()
        .expect("coverage job completed")
        .total_seconds
        * 1e9) as u64;
    let cov_snapshot = phase_registry.snapshot();
    let phases: Vec<pr4::PhaseEntry> =
        ["core.runner.eval_ns", "core.runner.selection_ns", "core.runner.train_ns"]
            .iter()
            .map(|&name| {
                let h = cov_snapshot
                    .histogram(name)
                    .unwrap_or_else(|| panic!("phase histogram {name} missing"));
                pr4::PhaseEntry { name: name.into(), sum_ns: h.sum, count: h.count }
            })
            .collect();
    let phase_sum_ns: u64 = phases.iter().map(|p| p.sum_ns).sum();
    let coverage = phase_sum_ns as f64 / end_to_end_ns as f64;
    let phase_coverage = pr4::PhaseCoverageSection {
        end_to_end_ns,
        phase_sum_ns,
        coverage,
        phases,
        gate: if coverage >= 0.9 {
            format!("pass: phase spans cover {:.1}% of the runner wall clock (gate: >=90%)", coverage * 100.0)
        } else {
            format!("fail: phase spans cover {:.1}% of the runner wall clock (gate: >=90%)", coverage * 100.0)
        },
    };

    let report = PerfReport {
        report: "BENCH_PR1".into(),
        quick,
        stages,
        gda_batch_speedup,
        matmul_256_speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = root.join("BENCH_PR1.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_PR1.json");

    let json6 = serde_json::to_string_pretty(&bench6).expect("bench6 serializes");
    let out6 = root.join("BENCH_PR6.json");
    std::fs::write(&out6, format!("{json6}\n")).expect("write BENCH_PR6.json");

    let json7 = serde_json::to_string_pretty(&bench7).expect("bench7 serializes");
    let out7 = root.join("BENCH_PR7.json");
    std::fs::write(&out7, format!("{json7}\n")).expect("write BENCH_PR7.json");

    let json8 = serde_json::to_string_pretty(&bench8).expect("bench8 serializes");
    let out8 = root.join("BENCH_PR8.json");
    std::fs::write(&out8, format!("{json8}\n")).expect("write BENCH_PR8.json");

    let json9 = serde_json::to_string_pretty(&bench9).expect("bench9 serializes");
    let out9 = root.join("BENCH_PR9.json");
    std::fs::write(&out9, format!("{json9}\n")).expect("write BENCH_PR9.json");

    let json10 = serde_json::to_string_pretty(&bench10).expect("bench10 serializes");
    let out10 = root.join("BENCH_PR10.json");
    std::fs::write(&out10, format!("{json10}\n")).expect("write BENCH_PR10.json");

    // Merge this harness's sections into BENCH_PR4.json, preserving the
    // scheduler section engine_scaling maintains.
    let pr4_root = pr4::repo_root();
    let mut bench4 = pr4::load(&pr4_root);
    let overhead_gate = telemetry_overhead.gate.clone();
    let coverage_gate = phase_coverage.gate.clone();
    bench4.telemetry_overhead = telemetry_overhead;
    bench4.phase_coverage = phase_coverage;
    let pr4_out = pr4::save(&pr4_root, &bench4);

    println!("wrote {}", out.display());
    println!("wrote {}", out6.display());
    println!("wrote {}", out7.display());
    println!("wrote {}", out8.display());
    println!("wrote {}", out9.display());
    println!("wrote {}", out10.display());
    println!("wrote {}", pr4_out.display());
    for t in &report.stages {
        println!("{:<32} median {:>12} ns", t.name, t.median_ns);
    }
    for r in &bench6.rounds {
        println!(
            "pr6_round pool={:<5} full {:>12} ns   incremental {:>12} ns",
            r.pool_size, r.full_refit_round_ns, r.incremental_round_ns
        );
    }
    for r in &bench7.evictions {
        println!(
            "pr7_push_evict pool={:<5} {:>8} ns/push",
            r.pool_size, r.push_evict_ns
        );
    }
    println!(
        "pr7_analyzer_self_scan {} ms over {} files ({} findings)",
        bench7.analyzer_self_scan_ms, bench7.analyzer_files_scanned, bench7.analyzer_findings
    );
    for r in &bench8.scales {
        println!(
            "pr8_serve sessions={:<5} {:>9.1} sessions/s   feed p99 {:>10} ns ({} feeds)",
            r.sessions, r.sessions_per_sec, r.feed_p99_ns, r.feeds
        );
    }
    for r in &bench9.gemm {
        println!(
            "pr9_gemm dim={:<4} naive {:>12} ns   blocked {:>12} ns   simd {:>12} ns",
            r.dim, r.naive_ns, r.blocked_ns, r.simd_ns
        );
    }
    println!(
        "pr9_score f64(scalar) {} ns   f64(simd) {} ns",
        bench9.score_f64_scalar_ns, bench9.score_f64_simd_ns
    );
    for r in &bench10.checkpoints {
        println!(
            "pr10_checkpoint pool={:<5} wire {:>9} B   compact {:>9} B   pretty {:>9} B   \
             encode {:>9} ns   decode {:>9} ns",
            r.pool_size,
            r.wire_bytes,
            r.compact_json_bytes,
            r.pretty_json_bytes,
            r.encode_ns,
            r.decode_ns
        );
    }
    println!("gda_batch_speedup   {gda_batch_speedup:.2}x");
    println!("matmul_256_speedup  {matmul_256_speedup:.2}x");
    println!("{overhead_gate}");
    println!("{coverage_gate}");
    println!("{pr6_gate}");
    println!("{pr7_gate}");
    println!("{pr8_gate}");
    println!("{pr9_gate}");
    println!("{pr10_gate}");
}
