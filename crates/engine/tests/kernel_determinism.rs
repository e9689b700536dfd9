//! Kernel-backend determinism suite: the end-to-end half of the dispatch
//! facade's bit-identity contract.
//!
//! An 8-strategy lineup produces canonically identical `RunRecord`s whether
//! the GEMMs run on the scalar blocked kernel, the AVX2 tiles or the AVX2
//! tiles plus the AVX-512 pair tile — every backend this host can run; the
//! others are named on stderr as skipped. The backend is pinned per run
//! through the `set_active_backend` test seam, and the pinned backend's name
//! is recorded in the (non-canonical) `kernel_backend` field.
//!
//! `scripts/check.sh` runs this suite in its workspace test stage; the
//! GEMM-level property suite is `crates/linalg/tests/kernel_equivalence.rs`.

use faction_core::ExperimentConfig;
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::job::ArchPreset;
use faction_engine::ExperimentJob;
use faction_linalg::{dispatch, KernelBackend};

/// The 8-strategy end-to-end lineup: every acquisition family in the
/// registry (full FACTION, its incremental variant, both FAL baselines'
/// representative, the decoupled baseline, QuFur, DDU, and the
/// entropy/random controls).
const LINEUP: [&str; 8] = [
    "faction",
    "faction-incremental",
    "fal",
    "decoupled",
    "qufur",
    "ddu",
    "entropy",
    "random",
];

fn lineup_job(strategy: &str) -> ExperimentJob {
    let cfg = ExperimentConfig {
        budget: 20,
        acquisition_batch: 10,
        warm_start: 20,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    };
    let mut job = ExperimentJob::new(Dataset::Rcmnist, strategy, 1, cfg, Scale::Quick);
    job.arch = ArchPreset::Tiny;
    job.truncate_tasks = Some(2);
    job.truncate_samples = Some(80);
    job
}

/// Runs the lineup job for `strategy` with the process-global GEMM
/// backend pinned to `backend`. This is the suite's only test, so nothing
/// else in the process flips the backend mid-run.
fn run_on(strategy: &str, backend: KernelBackend) -> faction_core::RunRecord {
    dispatch::set_active_backend(backend);
    lineup_job(strategy).run().unwrap_or_else(|e| panic!("{strategy} {backend}: {e}"))
}

#[test]
fn lineup_is_canonically_identical_on_every_backend() {
    let prev = dispatch::active_backend();
    let (backends, skipped): (Vec<_>, Vec<_>) =
        KernelBackend::ALL.into_iter().partition(|b| b.available());
    for b in skipped {
        eprintln!("kernel_determinism: skipped backend {b}: this host lacks its CPU features");
    }
    for strategy in LINEUP {
        let mut canonical = Vec::new();
        for &backend in &backends {
            let record = run_on(strategy, backend);
            // The pinned backend is recorded as machine provenance…
            assert_eq!(record.kernel_backend, backend.as_str(), "{strategy}");
            // …and stripped from the canonical form, which must then be
            // byte-identical: every tile set preserves the exact
            // per-element ascending-k accumulation order.
            let json = serde_json::to_string(&record.canonicalized()).unwrap();
            assert!(
                !json.contains("kernel_backend"),
                "{strategy}: canonical form leaks provenance"
            );
            canonical.push((backend, json));
        }
        let (first, want) = &canonical[0];
        for (backend, got) in &canonical[1..] {
            assert_eq!(want, got, "{strategy}: {first} vs {backend} canonical records diverged");
        }
    }
    dispatch::set_active_backend(prev);
}
