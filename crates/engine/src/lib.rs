//! `faction-engine` — a deterministic parallel execution engine for
//! multi-run / multi-stream FACTION workloads.
//!
//! The paper's evaluation is an embarrassingly parallel grid — strategies ×
//! datasets × seeds (Tables I–III, Fig. 5) — yet a naive parallel runner
//! destroys the one property a reproduction lives on: replayability. This
//! crate provides the missing substrate:
//!
//! * [`pool`] — a hand-rolled work-stealing thread pool (std-only):
//!   per-worker deques, a global injector for retries, parked idle workers,
//!   and the [`pool::scoped_for_each`] primitive the bench crate uses to
//!   measure scaling;
//! * [`job`] — [`job::ExperimentJob`]: one `(dataset, strategy, seed)` grid
//!   cell whose execution is a pure function of the job value, plus the
//!   shared strategy registry;
//! * [`engine`] — the batch executor: `catch_unwind` panic isolation with
//!   bounded retry, structured [`engine::JobFailure`] reports, ordered
//!   result collection, and per-job checkpoint/resume through
//!   `faction_core::checkpoint`;
//! * [`journal`] — the per-job event journal (start/finish/retry/resume,
//!   durations, queue-depth high-water mark), streamed as CRC-framed wire
//!   records.
//!
//! ## Determinism contract
//!
//! Execution *order* across workers is scheduler-dependent; job *results*
//! are not. Every input an experiment consumes is derived from the job key,
//! so the canonical serialization of a grid's [`faction_core::RunRecord`]s
//! is byte-identical at `--jobs 1` and `--jobs 8` (enforced by this crate's
//! `determinism` integration test). Wall-clock timing fields are
//! measurement output, zeroed by `RunRecord::canonicalized` before
//! comparison. See `DESIGN.md` §8.
//!
//! ## Quickstart
//!
//! ```
//! use faction_engine::{Engine, EngineConfig, ExperimentJob};
//! use faction_core::ExperimentConfig;
//! use faction_data::{datasets::Dataset, Scale};
//!
//! let mut cfg = ExperimentConfig::quick();
//! cfg.budget = 10;
//! cfg.warm_start = 10;
//! let mut job = ExperimentJob::new(Dataset::Nysf, "random", 0, cfg, Scale::Quick);
//! job.truncate_tasks = Some(1);
//! job.truncate_samples = Some(40);
//! job.arch = faction_engine::job::ArchPreset::Tiny;
//! let outcome = Engine::with_workers(2).run_grid(&[job]);
//! assert!(outcome.failures.is_empty());
//! assert_eq!(outcome.completed().len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod job;
pub mod journal;
pub mod pool;

pub use engine::{BatchOutcome, Engine, EngineConfig, GridOutcome, JobFailure};
pub use job::{build_strategy, grid, ArchPreset, ExperimentJob, STRATEGY_NAMES};
pub use journal::{JobEvent, Journal, JournalReplay, JournalSummary};
pub use pool::{
    resolve_workers, scoped_for_each, scoped_for_each_chaos, scoped_for_each_chaos_recorded,
    ChaosSchedule, PoolStats,
};
