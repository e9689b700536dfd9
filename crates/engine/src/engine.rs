//! The batch executor: panic isolation, bounded retry, ordered collection,
//! checkpoint/resume, and the event journal — on top of the one-queue pool
//! in [`crate::pool`].
//!
//! Failure semantics: a job that **panics** is caught with
//! [`std::panic::catch_unwind`], journaled, and requeued up to
//! [`EngineConfig::max_retries`] times; when the bound is exhausted it
//! surfaces as a structured [`JobFailure`] — one failed job never kills the
//! process or any other in-flight job. A job that returns `Err` fails
//! immediately without retry: structured errors (an unknown strategy name,
//! a malformed config) are deterministic, so re-running them only wastes a
//! worker.
//!
//! Ordered collection: results land in a slot table indexed by submission
//! position, so the output order of a batch is its submission order for
//! every worker count — the property the `jobs=1 ≡ jobs=8` determinism test
//! locks in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use faction_core::checkpoint::{CheckpointError, RunCheckpoint};
use faction_core::RunRecord;
use faction_telemetry::Handle;

use crate::job::ExperimentJob;
use crate::journal::{Journal, JournalSummary};
use crate::pool::{lock, resolve_workers, run_indexed, ChaosSchedule, PoolStats};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (`--jobs`); see [`resolve_workers`].
    pub workers: usize,
    /// How many times a *panicking* job is requeued before it becomes a
    /// [`JobFailure`] (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// When set, completed grid jobs are checkpointed here as
    /// `<key>.run.wire` (binary wire containers) and finished work is
    /// skipped on the next run.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, `run_grid` streams its journal here as CRC-framed wire
    /// records, one fsync-backed append per event — a killed batch leaves
    /// a salvageable prefix ([`Journal::replay`]). `None` keeps the
    /// journal in memory only ([`GridOutcome::journal`]).
    pub journal_path: Option<PathBuf>,
    /// Telemetry sink. The default is the no-op recorder; install a
    /// `faction_telemetry::Registry` handle to collect engine counters and
    /// the per-phase histograms recorded inside job bodies (the engine
    /// installs this handle as the ambient scope around each job).
    pub recorder: Handle,
    /// Deterministic schedule-chaos mode for the determinism sanitizer:
    /// when set, the pool draws which end of its run queue each pop takes
    /// and injects bounded forced requeues, all seeded. Results must stay
    /// byte-identical — see [`ChaosSchedule`].
    pub chaos: Option<ChaosSchedule>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: resolve_workers(None),
            max_retries: 1,
            checkpoint_dir: None,
            journal_path: None,
            recorder: Handle::noop(),
            chaos: None,
        }
    }
}

/// A job that exhausted its retry bound or returned a structured error.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Job key / label.
    pub key: String,
    /// Attempts consumed (0 when the job was rejected before scheduling).
    pub attempts: u32,
    /// The panic message or error string of the final attempt.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} ({}) failed after {} attempt(s): {}", self.index, self.key, self.attempts, self.message)
    }
}

/// Outcome of one generic batch.
#[derive(Debug)]
pub struct BatchOutcome<R> {
    /// Per-job results in submission order; `None` where the job failed.
    pub results: Vec<Option<R>>,
    /// Failures in submission order.
    pub failures: Vec<JobFailure>,
    /// Pool statistics (workers, queue-depth high-water mark).
    pub stats: PoolStats,
    /// The event journal of this batch.
    pub journal: Journal,
}

/// Outcome of an [`Engine::run_grid`] call.
#[derive(Debug)]
pub struct GridOutcome {
    /// Per-job run records in grid submission order; `None` where failed.
    pub records: Vec<Option<RunRecord>>,
    /// Failures in submission order.
    pub failures: Vec<JobFailure>,
    /// Jobs restored from checkpoints instead of executed.
    pub resumed: usize,
    /// Pool statistics of the executed (non-resumed) portion.
    pub stats: PoolStats,
    /// Batch summary (job counts, retries, wall seconds, queue depth).
    pub summary: JournalSummary,
    /// The event journal of this grid (resumes, checkpoint problems and
    /// every executed attempt).
    pub journal: Journal,
}

impl GridOutcome {
    /// Completed records in submission order (failures skipped).
    pub fn completed(&self) -> Vec<&RunRecord> {
        self.records.iter().flatten().collect()
    }

    /// Canonical JSON of the completed records: wall-clock timing fields
    /// zeroed via [`RunRecord::canonicalized`], so the same grid serializes
    /// byte-identically at any worker count.
    pub fn canonical_json(&self) -> Result<String, serde_json::Error> {
        let canonical: Vec<RunRecord> =
            self.records.iter().flatten().map(RunRecord::canonicalized).collect();
        serde_json::to_string(&canonical)
    }
}

/// Converts a measured duration to nanoseconds for histogram recording
/// (`as` casts from `f64` saturate, so out-of-range values clamp safely).
fn seconds_to_ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The deterministic parallel execution engine.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        Engine { config }
    }

    /// Convenience constructor: `workers` threads, default retry bound, no
    /// checkpointing.
    pub fn with_workers(workers: usize) -> Engine {
        Engine::new(EngineConfig { workers: workers.max(1), ..EngineConfig::default() })
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs `exec` over every job with panic isolation, bounded retry and
    /// ordered collection. `label` names jobs for the journal and failure
    /// reports.
    pub fn run_batch_labeled<J, R, L, F>(&self, jobs: &[J], label: L, exec: F) -> BatchOutcome<R>
    where
        J: Sync,
        R: Send,
        L: Fn(usize) -> String + Sync,
        F: Fn(&J) -> Result<R, String> + Sync,
    {
        let journal = Journal::start();
        let (results, failures, stats) = self.run_batch_into(&journal, jobs, label, exec);
        BatchOutcome { results, failures, stats, journal }
    }

    /// The batch body, journaling into a caller-owned [`Journal`] — so
    /// `run_grid` can stream resume-scan and execution events through one
    /// sink as they happen, instead of splicing a nested journal in after
    /// the fact (which would buffer events in memory until batch end,
    /// losing them all on a crash).
    fn run_batch_into<J, R, L, F>(
        &self,
        journal: &Journal,
        jobs: &[J],
        label: L,
        exec: F,
    ) -> (Vec<Option<R>>, Vec<JobFailure>, PoolStats)
    where
        J: Sync,
        R: Send,
        L: Fn(usize) -> String + Sync,
        F: Fn(&J) -> Result<R, String> + Sync,
    {
        let results: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let failures: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());
        let attempts: Vec<AtomicU32> = jobs.iter().map(|_| AtomicU32::new(0)).collect();
        let recorder = &self.config.recorder;

        let stats = run_indexed(self.config.workers, jobs.len(), recorder, self.config.chaos, |ctx, idx| {
            // Install the engine's recorder as the ambient telemetry scope
            // for the job body: leaf code (runner phases, GDA scoring, NN
            // training) records through the free functions without any
            // handle threading. Dropped before journal bookkeeping ends so
            // a panic cannot leak the scope onto the worker.
            let scope = recorder.enter();
            let attempt = attempts[idx].fetch_add(1, Ordering::SeqCst) + 1;
            let key = label(idx);
            recorder.counter_add("engine.pool.jobs_started", 1);
            journal.record(&key, "started", attempt, ctx.worker, 0.0, "");
            let t0 = journal.elapsed_seconds();
            let outcome = catch_unwind(AssertUnwindSafe(|| exec(&jobs[idx])));
            let seconds = journal.elapsed_seconds() - t0;
            drop(scope);
            recorder.observe("engine.pool.job_run_ns", seconds_to_ns(seconds));
            match outcome {
                Ok(Ok(result)) => {
                    // analyzer:allow(blocking-in-worker): per-job slot mutex; each index is written once, so contention is zero
                    *lock(&results[idx]) = Some(result);
                    recorder.counter_add("engine.pool.jobs_completed", 1);
                    journal.record(&key, "finished", attempt, ctx.worker, seconds, "");
                }
                Ok(Err(message)) => {
                    // Structured errors are deterministic: fail immediately.
                    recorder.counter_add("engine.pool.jobs_failed", 1);
                    journal.record(&key, "failed", attempt, ctx.worker, seconds, &message);
                    // analyzer:allow(blocking-in-worker): failure list is cold (held for one push on the error path)
                    lock(&failures).push(JobFailure { index: idx, key, attempts: attempt, message });
                }
                Err(payload) => {
                    let message = panic_message(payload);
                    if attempt <= self.config.max_retries {
                        recorder.counter_add("engine.pool.jobs_retried", 1);
                        journal.record(&key, "retried", attempt, ctx.worker, seconds, &message);
                        ctx.requeue_current(idx);
                    } else {
                        recorder.counter_add("engine.pool.jobs_failed", 1);
                        journal.record(&key, "failed", attempt, ctx.worker, seconds, &message);
                        // analyzer:allow(blocking-in-worker): failure list is cold (held for one push on the error path)
                        lock(&failures)
                            .push(JobFailure { index: idx, key, attempts: attempt, message });
                    }
                }
            }
        });

        let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
        failures.sort_by_key(|f| f.index);
        let results = results
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();
        (results, failures, stats)
    }

    /// [`Self::run_batch_labeled`] with index labels.
    pub fn run_batch<J, R, F>(&self, jobs: &[J], exec: F) -> BatchOutcome<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> Result<R, String> + Sync,
    {
        self.run_batch_labeled(jobs, |idx| format!("job-{idx}"), exec)
    }

    /// The `engine.*` slice of the configured recorder's snapshot as a JSON
    /// value for the journal summary (`Null` with the no-op recorder).
    /// Grid-end reporting only — never called on the job result path.
    fn engine_metrics(&self) -> serde_json::Value {
        // analyzer:allow(telemetry-on-hot-path): report-time snapshot at grid end, not on a hot path
        let Some(snapshot) = self.config.recorder.snapshot() else {
            return serde_json::Value::Null;
        };
        let engine_slice = snapshot.filter_prefix("engine.");
        if engine_slice.is_empty() {
            return serde_json::Value::Null;
        }
        serde_json::parse_value(&engine_slice.to_json()).unwrap_or(serde_json::Value::Null)
    }

    /// Runs an experiment grid: validates strategy names up front, resumes
    /// finished jobs from the checkpoint directory, executes the rest in
    /// parallel, checkpoints each completion crash-safely, and returns
    /// records in grid submission order.
    pub fn run_grid(&self, jobs: &[ExperimentJob]) -> GridOutcome {
        let journal = match &self.config.journal_path {
            Some(path) => Journal::start_streaming(path).unwrap_or_else(|e| {
                // A journal that cannot open must not fail the batch: fall
                // back to in-memory collection, but say so.
                eprintln!(
                    "warning: journal stream {} could not open ({e}); \
                     events will only be available in memory",
                    path.display()
                );
                self.config.recorder.counter_add("engine.journal.open_errors", 1);
                Journal::start()
            }),
            None => Journal::start(),
        };
        let mut records: Vec<Option<RunRecord>> = jobs.iter().map(|_| None).collect();
        let mut failures: Vec<JobFailure> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut resumed = 0usize;

        if let Some(dir) = &self.config.checkpoint_dir {
            // Create the directory up front so every job doesn't fail on
            // its first save; a failure here surfaces per-job below.
            let _ = std::fs::create_dir_all(dir);
        }

        for (idx, job) in jobs.iter().enumerate() {
            let key = job.key();
            if !job.strategy_known() {
                let message = format!("unknown strategy '{}'", job.strategy);
                journal.record(&key, "failed", 0, 0, 0.0, &message);
                failures.push(JobFailure { index: idx, key, attempts: 0, message });
                continue;
            }
            if let Some(dir) = &self.config.checkpoint_dir {
                match RunCheckpoint::load(&dir.join(format!("{key}.run.wire"))) {
                    Ok(ckpt) => {
                        // Guard against key collisions from a foreign grid
                        // sharing the directory.
                        if ckpt.record.dataset == job.dataset.name() && ckpt.record.seed == job.seed
                        {
                            journal.record(&key, "resumed", 0, 0, 0.0, "");
                            self.config.recorder.counter_add("engine.checkpoint.salvaged", 1);
                            records[idx] = Some(ckpt.record);
                            resumed += 1;
                            continue;
                        }
                        // Identity mismatch: the file at this job's key
                        // belongs to a different run. Name *both* sides —
                        // the claiming job and what the file actually holds
                        // — so the operator can tell a foreign grid sharing
                        // the directory from a renamed dataset; the job
                        // then re-runs from scratch.
                        let found = format!(
                            "{}-{}-s{}",
                            ckpt.record.dataset, ckpt.record.strategy, ckpt.record.seed
                        );
                        journal.record(
                            &key,
                            "checkpoint-mismatch",
                            0,
                            0,
                            0.0,
                            &format!("expected job `{key}`, found `{found}`; re-running"),
                        );
                        self.config.recorder.counter_add("engine.checkpoint.mismatch", 1);
                    }
                    Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                        // First run of this job: nothing to resume.
                    }
                    Err(e) => {
                        // A present-but-unreadable checkpoint (truncated
                        // write, version skew, garbage) is worth surfacing:
                        // the job silently re-runs, but the journal and the
                        // `engine.checkpoint.corrupt` counter record why.
                        journal.record(&key, "checkpoint-corrupt", 0, 0, 0.0, &e.to_string());
                        self.config.recorder.counter_add("engine.checkpoint.corrupt", 1);
                    }
                }
            }
            pending.push(idx);
        }

        let checkpoint_dir = self.config.checkpoint_dir.clone();
        // Execution journals directly into the grid journal: events hit
        // the streaming sink (when configured) the moment they happen, so
        // a killed batch's journal file already holds everything that
        // completed — no end-of-grid splice, no in-memory-only window.
        let (results, batch_failures, stats) = self.run_batch_into(
            &journal,
            &pending,
            |pos| jobs[pending[pos]].key(),
            |&idx| {
                let job = &jobs[idx];
                let record = job.run()?;
                if let Some(dir) = &checkpoint_dir {
                    let ckpt = RunCheckpoint::capture(&record);
                    let path = dir.join(format!("{}.run.wire", job.key()));
                    if let Err(e) = ckpt.save(&path) {
                        return Err(format!("run succeeded but checkpoint save failed: {e}"));
                    }
                }
                Ok(record)
            },
        );

        for (pos, result) in results.into_iter().enumerate() {
            records[pending[pos]] = result;
        }
        for failure in batch_failures {
            let index = pending[failure.index];
            failures.push(JobFailure { index, ..failure });
        }
        failures.sort_by_key(|f| f.index);

        let event_count = u64::try_from(journal.events().len()).unwrap_or(u64::MAX);
        self.config.recorder.counter_add("engine.journal.events", event_count);
        let summary = journal.summarize_with_metrics(jobs.len(), stats, self.engine_metrics());
        if !journal.finish_stream(&summary) {
            eprintln!("warning: journal stream did not persist cleanly");
        }
        let sink_errors = journal.sink_errors();
        if sink_errors > 0 {
            self.config.recorder.counter_add("engine.journal.write_errors", sink_errors);
        }
        GridOutcome {
            records,
            failures,
            resumed,
            stats,
            summary,
            journal,
        }
    }
}
