//! The observability layer's headline guarantee: **recording never changes
//! results**. A grid run with a live [`Registry`] installed must produce
//! canonical output byte-identical to the same grid with the no-op
//! recorder, at every worker count, with checkpoint/resume in the loop.
//!
//! The dual guarantee — that the *metrics themselves* are deterministic —
//! is covered by `snapshots_are_schedule_independent`: two identical
//! single-worker runs yield byte-identical canonicalized snapshots.

use std::sync::Arc;

use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::job::ArchPreset;
use faction_engine::{Engine, EngineConfig, ExperimentJob};
use faction_telemetry::{Handle, Registry};

fn tiny_cfg() -> faction_core::ExperimentConfig {
    faction_core::ExperimentConfig {
        budget: 20,
        acquisition_batch: 10,
        warm_start: 20,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..faction_core::ExperimentConfig::quick()
    }
}

fn tiny_job(dataset: Dataset, strategy: &str, seed: u64) -> ExperimentJob {
    let mut job = ExperimentJob::new(dataset, strategy, seed, tiny_cfg(), Scale::Quick);
    job.arch = ArchPreset::Tiny;
    job.truncate_tasks = Some(2);
    job.truncate_samples = Some(80);
    job
}

/// A grid that exercises the full instrumented stack: the faction strategy
/// touches the GDA fit/score spans and fairness counters, entropy/random
/// cover the plain paths.
fn tiny_grid() -> Vec<ExperimentJob> {
    let mut jobs = Vec::new();
    for dataset in [Dataset::Rcmnist, Dataset::Nysf] {
        for strategy in ["faction", "entropy", "random"] {
            jobs.push(tiny_job(dataset, strategy, 0));
        }
    }
    jobs
}

fn engine(workers: usize, recorder: Handle) -> Engine {
    Engine::new(EngineConfig { workers, recorder, ..EngineConfig::default() })
}

#[test]
fn recording_on_and_off_are_byte_identical_across_worker_counts() {
    let grid = tiny_grid();
    let baseline = engine(1, Handle::noop()).run_grid(&grid);
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);
    let expected = baseline.canonical_json().unwrap();
    assert!(!expected.is_empty());

    for workers in [1usize, 8] {
        let registry = Arc::new(Registry::new());
        let recorded = engine(workers, Handle::from(registry.clone())).run_grid(&grid);
        assert!(recorded.failures.is_empty(), "{:?}", recorded.failures);
        assert_eq!(
            recorded.canonical_json().unwrap(),
            expected,
            "results must not depend on recording (workers = {workers})"
        );
        // The registry must actually have been live — a vacuous pass here
        // would mean the engine never installed the recorder scope.
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("engine.pool.jobs_completed"), Some(grid.len() as u64));
        assert!(snapshot.counter("core.runner.rounds").unwrap_or(0) > 0);
        assert!(snapshot.histogram("core.runner.selection_ns").is_some());
    }
}

#[test]
fn recording_is_inert_through_checkpoint_and_resume() {
    let dir = std::env::temp_dir()
        .join(format!("faction_telemetry_inertness_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let grid = vec![
        tiny_job(Dataset::Nysf, "faction", 0),
        tiny_job(Dataset::Nysf, "random", 0),
        tiny_job(Dataset::Rcmnist, "entropy", 1),
    ];

    // Cold run without recording, checkpointing as it goes.
    let cold = Engine::new(EngineConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .run_grid(&grid);
    assert!(cold.failures.is_empty(), "{:?}", cold.failures);
    assert_eq!(cold.resumed, 0);

    // Warm run with a live registry: every job resumes from its checkpoint
    // and the canonical output still matches byte for byte.
    let registry = Arc::new(Registry::new());
    let warm = Engine::new(EngineConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        recorder: Handle::from(registry.clone()),
        ..EngineConfig::default()
    })
    .run_grid(&grid);
    assert!(warm.failures.is_empty(), "{:?}", warm.failures);
    assert_eq!(warm.resumed, grid.len());
    assert_eq!(
        cold.canonical_json().unwrap(),
        warm.canonical_json().unwrap(),
        "recording must be inert across checkpoint/resume"
    );
    assert_eq!(
        registry.snapshot().counter("engine.checkpoint.salvaged"),
        Some(grid.len() as u64)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_are_schedule_independent() {
    // With a fixed schedule (one worker) the metrics themselves are a pure
    // function of the grid: two runs must produce byte-identical reports
    // once timing histograms are canonicalized (counts kept, durations
    // zeroed).
    let grid = tiny_grid();
    let reports: Vec<String> = (0..2)
        .map(|_| {
            let registry = Arc::new(Registry::new());
            let outcome = engine(1, Handle::from(registry.clone())).run_grid(&grid);
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            registry.snapshot().canonicalized().to_json()
        })
        .collect();
    assert!(!reports[0].is_empty());
    assert_eq!(reports[0], reports[1], "canonicalized snapshots must be reproducible");
}

#[test]
fn canonicalized_snapshots_agree_across_worker_counts() {
    // Counters and non-timing histograms are schedule-independent merges,
    // so even at different worker counts the work-shaped metrics agree;
    // scheduling metrics (waits, requeues, queue depth) are engine-internal
    // and explicitly excluded.
    let grid = tiny_grid();
    let snap_of = |workers: usize| {
        let registry = Arc::new(Registry::new());
        let outcome = engine(workers, Handle::from(registry.clone())).run_grid(&grid);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        registry.snapshot()
    };
    let one = snap_of(1);
    let eight = snap_of(8);
    for key in [
        "core.runner.runs",
        "core.runner.rounds",
        "core.runner.tasks",
        "core.oracle.queries",
        "core.model.retrains",
        "density.gda.fits",
        "density.gda.cholesky_factors",
        "nn.train.steps",
        "engine.pool.jobs_completed",
    ] {
        assert_eq!(one.counter(key), eight.counter(key), "counter {key} must not depend on schedule");
        assert!(one.counter(key).unwrap_or(0) > 0, "counter {key} must be live");
    }
    let fairness_keys = |s: &faction_telemetry::Snapshot| {
        s.filter_prefix("core.fairness.")
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(fairness_keys(&one), fairness_keys(&eight));
    assert!(!fairness_keys(&one).is_empty(), "fairness pair counters must be live");
}
