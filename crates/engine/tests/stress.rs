//! Stress: a 200-job batch with deterministic injected panics, plus a grid
//! resume over a corrupted checkpoint directory. Every failure-path ledger —
//! the event journal, the telemetry counters, the failure list, and the
//! attempt bookkeeping — must tell the same story.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::job::ArchPreset;
use faction_engine::{Engine, EngineConfig, ExperimentJob, JobEvent};
use faction_telemetry::{Handle, Registry};

/// Panics on every attempt: exhausts the retry bound and fails.
fn doomed(i: usize) -> bool {
    i % 31 == 5
}

/// Panics on the first attempt only: succeeds after one retry.
fn flaky(i: usize) -> bool {
    i.is_multiple_of(7) && !doomed(i)
}

#[test]
fn stress_batch_journal_counters_and_results_agree() {
    const JOBS: usize = 200;
    const MAX_RETRIES: u32 = 2;
    let doomed_count = (0..JOBS).filter(|&i| doomed(i)).count();
    let flaky_count = (0..JOBS).filter(|&i| flaky(i)).count();
    assert!(doomed_count > 0 && flaky_count > 0, "stress fixture lost its failure mix");
    let expected_retries = flaky_count + doomed_count * MAX_RETRIES as usize;
    let expected_started = JOBS + expected_retries;
    let expected_completed = JOBS - doomed_count;

    let registry = Arc::new(Registry::new());
    let engine = Engine::new(EngineConfig {
        workers: 4,
        max_retries: MAX_RETRIES,
        recorder: Handle::from(registry.clone()),
        ..EngineConfig::default()
    });
    let attempts: Vec<AtomicU32> = (0..JOBS).map(|_| AtomicU32::new(0)).collect();
    let jobs: Vec<usize> = (0..JOBS).collect();
    let outcome = engine.run_batch(&jobs, |&i| {
        let attempt = attempts[i].fetch_add(1, Ordering::SeqCst) + 1;
        if doomed(i) || (flaky(i) && attempt == 1) {
            panic!("injected panic: job {i} attempt {attempt}");
        }
        Ok::<usize, String>(i * i)
    });

    // Results: failed slots empty, surviving slots correct.
    for (i, slot) in outcome.results.iter().enumerate() {
        if doomed(i) {
            assert!(slot.is_none(), "doomed job {i} must not produce a result");
        } else {
            assert_eq!(*slot, Some(i * i), "job {i}");
        }
    }
    assert_eq!(outcome.failures.len(), doomed_count);
    for failure in &outcome.failures {
        assert!(doomed(failure.index));
        assert_eq!(failure.attempts, MAX_RETRIES + 1);
        assert!(failure.message.contains("injected panic"), "{}", failure.message);
    }

    // Attempt bookkeeping: the test's own ledger of executions.
    let total_attempts: u32 = attempts.iter().map(|a| a.load(Ordering::SeqCst)).sum();
    assert_eq!(total_attempts as usize, expected_started);

    // Journal events agree with the ledger.
    let events = outcome.journal.events();
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count("started"), expected_started);
    assert_eq!(count("retried"), expected_retries);
    assert_eq!(count("failed"), doomed_count);
    assert_eq!(count("finished"), expected_completed);
    let summary = outcome.journal.summarize(JOBS, outcome.stats);
    assert_eq!(summary.failed, doomed_count);
    assert_eq!(summary.retries as usize, expected_retries);
    assert_eq!(summary.finished, expected_completed);

    // Telemetry counters agree with the journal.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("engine.pool.jobs_started"), Some(expected_started as u64));
    assert_eq!(snapshot.counter("engine.pool.jobs_retried"), Some(expected_retries as u64));
    assert_eq!(snapshot.counter("engine.pool.jobs_failed"), Some(doomed_count as u64));
    assert_eq!(snapshot.counter("engine.pool.jobs_completed"), Some(expected_completed as u64));
    // Every retry is one push to the back of the run queue.
    assert_eq!(snapshot.counter("engine.pool.requeues"), Some(expected_retries as u64));
    let run_hist = snapshot.histogram("engine.pool.job_run_ns").expect("job duration histogram");
    assert_eq!(run_hist.count as usize, expected_started);
}

fn tiny_job(dataset: Dataset, strategy: &str, seed: u64) -> ExperimentJob {
    let cfg = faction_core::ExperimentConfig {
        budget: 20,
        acquisition_batch: 10,
        warm_start: 20,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..faction_core::ExperimentConfig::quick()
    };
    let mut job = ExperimentJob::new(dataset, strategy, seed, cfg, Scale::Quick);
    job.arch = ArchPreset::Tiny;
    job.truncate_tasks = Some(2);
    job.truncate_samples = Some(80);
    job
}

#[test]
fn grid_resume_over_corrupt_checkpoint_reconciles_all_ledgers() {
    let dir = std::env::temp_dir().join(format!("faction_engine_stress_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let grid = vec![
        tiny_job(Dataset::Nysf, "random", 0),
        tiny_job(Dataset::Nysf, "entropy", 0),
        tiny_job(Dataset::Rcmnist, "random", 1),
    ];
    let config = |recorder: Handle| EngineConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        recorder,
        ..EngineConfig::default()
    };

    let first = Engine::new(config(Handle::noop())).run_grid(&grid);
    assert!(first.failures.is_empty(), "{:?}", first.failures);

    // Corrupt one checkpoint the nasty way: keep the fully valid wire
    // record and append garbage, as an interrupted rewrite-in-place would.
    // Strict single-record reads must reject trailing bytes.
    let victim = dir.join(format!("{}.run.wire", grid[1].key()));
    let mut valid = std::fs::read(&victim).unwrap();
    valid.extend_from_slice(b"garbage tail");
    std::fs::write(&victim, &valid).unwrap();

    let registry = Arc::new(Registry::new());
    let second = Engine::new(config(Handle::from(registry.clone()))).run_grid(&grid);
    assert!(second.failures.is_empty(), "{:?}", second.failures);

    // Checkpoint state: two jobs resumed, the corrupted one re-ran.
    assert_eq!(second.resumed, grid.len() - 1);
    assert_eq!(second.summary.resumed, grid.len() - 1);
    assert_eq!(second.summary.finished, grid.len());

    // Journal: exactly one corruption event, naming the victim job.
    let corrupt_events: Vec<JobEvent> = second
        .journal
        .events()
        .into_iter()
        .filter(|e| e.kind == "checkpoint-corrupt")
        .collect();
    assert_eq!(corrupt_events.len(), 1);
    assert_eq!(corrupt_events[0].job, grid[1].key());
    assert!(corrupt_events[0].detail.contains("corrupt"), "{}", corrupt_events[0].detail);

    // Telemetry agrees with both.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("engine.checkpoint.salvaged"), Some((grid.len() - 1) as u64));
    assert_eq!(snapshot.counter("engine.checkpoint.corrupt"), Some(1));
    assert_eq!(snapshot.counter("engine.pool.jobs_completed"), Some(1));

    // And the re-run healed the checkpoint: a third run resumes everything.
    let third = Engine::new(config(Handle::noop())).run_grid(&grid);
    assert_eq!(third.resumed, grid.len());
    assert_eq!(
        first.canonical_json().unwrap(),
        third.canonical_json().unwrap(),
        "corruption recovery must not change results"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_batch_journal_replays_valid_prefix_at_every_truncation() {
    // The crash-safety claim of the streaming journal, end to end: run a
    // real grid with a streamed journal, then simulate a kill at *every*
    // byte length of the file. Replay must never error, must return events
    // in append order, and must yield every completed event once the cut
    // passes its record — the old end-of-batch render lost all of them.
    let dir = std::env::temp_dir().join(format!("faction_engine_journal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("grid.journal.wire");

    let grid = vec![tiny_job(Dataset::Nysf, "random", 0), tiny_job(Dataset::Nysf, "entropy", 0)];
    let engine = Engine::new(EngineConfig {
        workers: 2,
        journal_path: Some(journal_path.clone()),
        ..EngineConfig::default()
    });
    let outcome = engine.run_grid(&grid);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    // The completed file replays fully: all events plus the summary.
    let full = std::fs::read(&journal_path).unwrap();
    let clean = faction_engine::Journal::replay_bytes(&full).unwrap();
    assert!(clean.dropped.is_none());
    let summary = clean.summary.expect("finished batch persists its summary");
    assert_eq!(summary.jobs, grid.len());
    assert_eq!(summary.finished, grid.len());
    assert_eq!(clean.events.len(), outcome.journal.events().len());
    let expect_kinds: Vec<&str> = clean.events.iter().map(|e| e.kind.as_str()).collect();
    assert!(expect_kinds.contains(&"started") && expect_kinds.contains(&"finished"));

    // Kill simulation: truncate at every byte boundary.
    let mut prefix_lengths = std::collections::BTreeSet::new();
    for cut in 0..=full.len() {
        match faction_engine::Journal::replay_bytes(&full[..cut]) {
            Ok(replay) => {
                // The salvaged events are exactly a prefix of the clean log.
                for (i, event) in replay.events.iter().enumerate() {
                    assert_eq!(event.kind, clean.events[i].kind, "cut {cut} event {i}");
                    assert_eq!(event.job, clean.events[i].job, "cut {cut} event {i}");
                }
                if replay.summary.is_none() {
                    assert!(replay.events.len() <= clean.events.len());
                }
                prefix_lengths.insert(replay.events.len());
            }
            Err(e) => {
                // Only sub-header cuts may error (nothing to identify).
                assert!(cut < faction_wire::HEADER_LEN, "cut {cut} errored: {e}");
            }
        }
    }
    // Every completed-event prefix is reachable: each event append was an
    // individually flushed record.
    assert_eq!(prefix_lengths, (0..=clean.events.len()).collect());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_ignores_legacy_json_checkpoints() {
    // A JSON checkpoint as JSON-era builds wrote it, beside where the wire
    // file belongs, is not a checkpoint: the job re-runs and returns the
    // same records.
    let dir = std::env::temp_dir().join(format!("faction_engine_legacy_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let job = tiny_job(Dataset::Nysf, "random", 0);
    let config = |recorder: Handle| EngineConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        recorder,
        ..EngineConfig::default()
    };
    let first = Engine::new(config(Handle::noop())).run_grid(std::slice::from_ref(&job));
    assert!(first.failures.is_empty(), "{:?}", first.failures);

    // Rewrite the checkpoint as a JSON-era build would have left it.
    let wire_path = dir.join(format!("{}.run.wire", job.key()));
    let json_path = wire_path.with_extension("json");
    let ckpt = faction_core::checkpoint::RunCheckpoint::load(&wire_path).unwrap();
    std::fs::write(&json_path, serde_json::to_string_pretty(&ckpt).unwrap()).unwrap();
    std::fs::remove_file(&wire_path).unwrap();

    let registry = Arc::new(Registry::new());
    let second =
        Engine::new(config(Handle::from(registry.clone()))).run_grid(std::slice::from_ref(&job));
    assert!(second.failures.is_empty(), "{:?}", second.failures);
    assert_eq!(second.resumed, 0, "a JSON checkpoint must not resume");
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("engine.checkpoint.salvaged"), None);
    assert_eq!(snapshot.counter("engine.pool.jobs_completed"), Some(1), "the job re-ran");
    assert_eq!(
        first.canonical_json().unwrap(),
        second.canonical_json().unwrap(),
        "the re-run must return the same records"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_resume_names_both_jobs_on_checkpoint_identity_mismatch() {
    // A checkpoint parked at this job's key but holding a *different* run
    // (foreign grid sharing the directory) must not be silently re-run:
    // the journal names both the claiming job and what the file holds.
    let dir =
        std::env::temp_dir().join(format!("faction_engine_mismatch_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let foreign = tiny_job(Dataset::Rcmnist, "random", 3);
    let claiming = tiny_job(Dataset::Nysf, "random", 0);

    // Park the foreign job's finished record at the *claiming* job's path.
    let config = |recorder: Handle| EngineConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        recorder,
        ..EngineConfig::default()
    };
    let seeded = Engine::new(config(Handle::noop())).run_grid(std::slice::from_ref(&foreign));
    assert!(seeded.failures.is_empty(), "{:?}", seeded.failures);
    std::fs::rename(
        dir.join(format!("{}.run.wire", foreign.key())),
        dir.join(format!("{}.run.wire", claiming.key())),
    )
    .unwrap();

    let registry = Arc::new(Registry::new());
    let outcome = Engine::new(config(Handle::from(registry.clone())))
        .run_grid(std::slice::from_ref(&claiming));
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.resumed, 0, "a mismatched checkpoint must not resume");
    assert_eq!(outcome.records.len(), 1);
    assert_eq!(outcome.records[0].as_ref().unwrap().dataset, "NYSF", "the claiming job re-ran");

    let mismatch_events: Vec<JobEvent> = outcome
        .journal
        .events()
        .into_iter()
        .filter(|e| e.kind == "checkpoint-mismatch")
        .collect();
    assert_eq!(mismatch_events.len(), 1);
    assert_eq!(mismatch_events[0].job, claiming.key());
    let detail = &mismatch_events[0].detail;
    assert!(detail.contains(&claiming.key()), "detail must name the claiming job: {detail}");
    assert!(
        detail.contains("RCMNIST-Random-s3"),
        "detail must name what the file holds: {detail}"
    );
    assert_eq!(registry.snapshot().counter("engine.checkpoint.mismatch"), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_job_bodies_on_two_workers_run_at_once() {
    // The engine's per-job bookkeeping (attempt count, journal, result
    // slot, failure list) must hold no lock across `exec`: two job bodies
    // that wait for each other at a rendezvous both finish only if they
    // run at the same time. The batch runs on a helper thread so an engine
    // that serializes its job bodies fails this test on the timeout
    // instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let rendezvous = std::sync::Barrier::new(2);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            recorder: Handle::from(Arc::new(Registry::new())),
            ..EngineConfig::default()
        });
        let outcome = engine.run_batch(&[0usize, 1], |&job| {
            rendezvous.wait();
            Ok(job)
        });
        let _ = tx.send((outcome.results, outcome.failures.len()));
    });
    let (results, failures) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("two job bodies at a rendezvous must both finish, not block each other");
    assert_eq!(failures, 0);
    assert_eq!(results, [Some(0), Some(1)]);
}
