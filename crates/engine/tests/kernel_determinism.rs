//! Kernel-backend determinism suite: the end-to-end half of the dispatch
//! facade's bit-identity contract.
//!
//! An 8-strategy lineup produces canonically identical `RunRecord`s whether
//! the GEMMs run on the scalar blocked kernel or the AVX2 micro-kernel. The
//! backend is pinned per run through the `set_active_backend` test seam,
//! and the resolved backend is recorded in the (non-canonical)
//! `kernel_backend` field.
//!
//! `check.sh` runs this suite as the blocking `kernel-determinism` stage;
//! the GEMM-level property suite is the `kernel-equivalence` stage.

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
fn lineup_is_canonically_identical_scalar_vs_simd() {
    let prev = dispatch::active_backend();
    for strategy in LINEUP {
        let scalar = run_on(strategy, KernelBackend::Scalar);
        let simd = run_on(strategy, KernelBackend::Simd);

        // The resolved backend is recorded as machine provenance…
        assert_eq!(scalar.kernel_backend, "scalar", "{strategy}");
        assert_eq!(simd.kernel_backend, "simd", "{strategy}");
        // …and stripped from the canonical form, which must then be
        // byte-identical: vectorizing across the j lanes preserves the
        // exact per-element ascending-k accumulation order.
        let a = serde_json::to_string(&scalar.canonicalized()).unwrap();
        let b = serde_json::to_string(&simd.canonicalized()).unwrap();
        assert!(!a.contains("kernel_backend"), "{strategy}: canonical form leaks provenance");
        assert_eq!(a, b, "{strategy}: scalar vs simd canonical records diverged");
    }
    dispatch::set_active_backend(prev);
}
