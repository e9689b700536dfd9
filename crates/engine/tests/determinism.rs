//! The engine's headline guarantee: the same grid produces byte-identical
//! canonical output at `--jobs 1` and `--jobs 8`, and both match the plain
//! sequential (non-engine) code path.

use faction_core::{run_experiment, ExperimentConfig, PoolPolicy, RunRecord};
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::job::ArchPreset;
use faction_engine::{build_strategy, Engine, EngineConfig, ExperimentJob};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        budget: 20,
        acquisition_batch: 10,
        warm_start: 20,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    }
}

fn tiny_job(dataset: Dataset, strategy: &str, seed: u64) -> ExperimentJob {
    let mut job = ExperimentJob::new(dataset, strategy, seed, tiny_cfg(), Scale::Quick);
    job.arch = ArchPreset::Tiny;
    job.truncate_tasks = Some(2);
    job.truncate_samples = Some(80);
    job
}

fn tiny_grid() -> Vec<ExperimentJob> {
    let mut jobs = Vec::new();
    for dataset in [Dataset::Rcmnist, Dataset::Nysf] {
        for strategy in ["entropy", "random"] {
            for seed in 0..2u64 {
                jobs.push(tiny_job(dataset, strategy, seed));
            }
        }
    }
    jobs
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let grid = tiny_grid();
    let sequential = Engine::with_workers(1).run_grid(&grid);
    let parallel = Engine::with_workers(8).run_grid(&grid);
    assert!(sequential.failures.is_empty(), "{:?}", sequential.failures);
    assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
    assert_eq!(sequential.stats.workers, 1);
    assert_eq!(parallel.stats.workers, 8);

    let a = sequential.canonical_json().unwrap();
    let b = parallel.canonical_json().unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "canonical grid output must not depend on worker count");
}

#[test]
fn bounded_pools_and_incremental_refit_stay_byte_identical_across_workers() {
    // Eviction order is a pure function of (stream, policy), and the
    // incremental GDA state is per-job, so bounded-pool grids must stay
    // scheduler-independent too.
    let mut grid = Vec::new();
    for seed in 0..2u64 {
        let mut cfg = tiny_cfg();
        cfg.pool_policy = PoolPolicy::SlidingWindow(40);
        let mut job =
            ExperimentJob::new(Dataset::Nysf, "faction-incremental", seed, cfg, Scale::Quick);
        job.arch = ArchPreset::Tiny;
        job.truncate_tasks = Some(2);
        job.truncate_samples = Some(80);
        grid.push(job);
    }
    let sequential = Engine::with_workers(1).run_grid(&grid);
    let parallel = Engine::with_workers(8).run_grid(&grid);
    assert!(sequential.failures.is_empty(), "{:?}", sequential.failures);
    assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
    let a = sequential.canonical_json().unwrap();
    let b = parallel.canonical_json().unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "bounded-pool output must not depend on worker count");
}

#[test]
fn engine_matches_the_sequential_code_path() {
    // The engine must be a scheduler, not a semantics change: its records
    // must equal what a hand-written sequential loop over the same grid
    // produces.
    let grid = tiny_grid();
    let engine_records = Engine::with_workers(4).run_grid(&grid);
    assert!(engine_records.failures.is_empty());

    let by_hand: Vec<RunRecord> = grid
        .iter()
        .map(|job| {
            let mut strategy =
                build_strategy(&job.strategy, job.cfg.loss, job.lambda, job.quick_knobs).unwrap();
            let stream = job.dataset.stream_prefix(job.seed, job.scale, Some(2), Some(80));
            let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, job.seed);
            run_experiment(&stream, strategy.as_mut(), &arch, &job.cfg, job.seed)
        })
        .collect();

    let canonical_by_hand: Vec<RunRecord> = by_hand.iter().map(RunRecord::canonicalized).collect();
    assert_eq!(
        engine_records.canonical_json().unwrap(),
        serde_json::to_string(&canonical_by_hand).unwrap(),
        "engine output must match the plain sequential loop byte for byte"
    );
}

#[test]
fn grid_resumes_from_checkpoints_without_rerunning() {
    // Deliberately nested and not pre-created: the engine must create the
    // checkpoint directory itself (regression — every save used to fail
    // with NotFound when the CLI passed a fresh --checkpoint-dir).
    let dir = std::env::temp_dir()
        .join(format!("faction_engine_resume_{}", std::process::id()))
        .join("nested");
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();

    let grid: Vec<ExperimentJob> = vec![
        tiny_job(Dataset::Nysf, "random", 0),
        tiny_job(Dataset::Nysf, "entropy", 0),
        tiny_job(Dataset::Rcmnist, "random", 1),
    ];
    let engine = Engine::new(EngineConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });

    let first = engine.run_grid(&grid);
    assert!(first.failures.is_empty());
    assert_eq!(first.resumed, 0);
    for job in &grid {
        assert!(
            dir.join(format!("{}.run.wire", job.key())).exists(),
            "missing checkpoint for {}",
            job.key()
        );
    }

    let second = engine.run_grid(&grid);
    assert!(second.failures.is_empty());
    assert_eq!(second.resumed, grid.len(), "every job should resume from its checkpoint");
    assert_eq!(
        first.canonical_json().unwrap(),
        second.canonical_json().unwrap(),
        "resumed output must equal the original run"
    );
    assert!(second.summary.wall_seconds < first.summary.wall_seconds,
        "resume should skip the actual work");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_reconstructs_the_run() {
    let grid = tiny_grid();
    let outcome = Engine::with_workers(2).run_grid(&grid);
    assert!(outcome.failures.is_empty());

    let events = outcome.journal.events();
    // 8 jobs × (started + finished).
    assert_eq!(events.len(), grid.len() * 2);
    for job in &grid {
        let key = job.key();
        assert!(events.iter().any(|e| e.job == key && e.kind == "started"), "no start for {key}");
        let done = events.iter().find(|e| e.job == key && e.kind == "finished");
        assert!(done.is_some_and(|e| e.seconds >= 0.0), "no finish for {key}");
    }
    let summary = &outcome.summary;
    assert_eq!(summary.jobs, grid.len());
    assert_eq!(summary.finished, grid.len());
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.workers, 2);
    assert!(summary.queue_depth_high_water >= grid.len() - 1);
    assert!(summary.wall_seconds > 0.0);
}
