//! The `OnlineSession` state machine's two hard promises, checked end to
//! end:
//!
//! 1. **Crash-shaped resume is invisible** — a session snapshotted
//!    mid-stream and restored produces a byte-identical decision trace to
//!    one that never stopped, for every labeled-pool retention policy and
//!    the incremental-refit FACTION variant (the stateful-strategy worst
//!    case).
//! 2. **The session API is the runner** — replaying a `poison::havoc`
//!    lineup through `feed`/`apply_labels` by hand reproduces the batch
//!    runner's degraded rounds, containment counters, budget exhaustion,
//!    and per-task evaluations exactly.

use std::sync::Arc;

use faction_core::strategies::faction::{Faction, FactionParams, RefitMode};
use faction_core::{ExperimentConfig, OnlineSession, PoolPolicy, SessionSnapshot, Strategy};
use faction_data::datasets::Dataset;
use faction_data::poison::{poison, PoisonSpec};
use faction_data::{Oracle, Scale, TaskStream};
use faction_telemetry::{Handle, Registry};

fn stream(dataset: Dataset, seed: u64) -> TaskStream {
    let mut stream = dataset.stream(seed, Scale::Quick);
    stream.tasks.truncate(2);
    for (i, task) in stream.tasks.iter_mut().enumerate() {
        task.id = i;
    }
    for task in &mut stream.tasks {
        task.samples.truncate(80);
    }
    stream
}

fn cfg(policy: PoolPolicy) -> ExperimentConfig {
    ExperimentConfig {
        budget: 12,
        acquisition_batch: 4,
        warm_start: 16,
        epochs_per_iteration: 2,
        train_batch_size: 16,
        learning_rate: 0.05,
        pool_policy: policy,
        ..ExperimentConfig::quick()
    }
}

fn incremental(cfg: &ExperimentConfig) -> Faction {
    Faction::new(FactionParams {
        loss: cfg.loss,
        lambda: 1.0,
        refit: RefitMode::Incremental { reanchor_every: 64 },
        ..Default::default()
    })
}

/// Drives `session` over `stream` starting at `(start_task, mid_task)`,
/// granting every label directly, and renders one trace line per round.
/// `mid_task = true` means the current task was already begun (a restored
/// mid-task cursor) and must not be re-entered.
fn drive(
    session: &mut OnlineSession,
    strategy: &mut dyn Strategy,
    stream: &TaskStream,
    start_task: usize,
    mid_task: bool,
    mut at_round: impl FnMut(usize, &OnlineSession, &dyn Strategy),
) -> Vec<String> {
    let mut trace = Vec::new();
    let mut round = 0usize;
    for (t, task) in stream.tasks.iter().enumerate().skip(start_task) {
        if !(mid_task && t == start_task) {
            let eval = session.begin_task(task);
            trace.push(format!("task {t} acc={} ddp={}", eval.accuracy, eval.ddp));
        }
        while session.budget_remaining() > 0 && session.has_candidates() {
            let decisions = session.feed(task, strategy);
            let labels: Vec<Option<usize>> =
                decisions.picked.iter().map(|&g| Some(task.samples[g].label)).collect();
            let outcome = session.apply_labels(task, &labels);
            trace.push(format!(
                "round {round} t={t} picked={:?} granted={} loss={}",
                decisions.picked, outcome.granted, outcome.train_loss
            ));
            round += 1;
            at_round(round, session, strategy);
        }
    }
    trace
}

#[test]
fn snapshot_restore_mid_stream_is_byte_identical_for_every_pool_policy() {
    // Snapshot after round 4 — inside task 1 (3 rounds per task), so the
    // restored cursor resumes mid-task with a partially spent budget.
    const SNAP_AT: usize = 4;
    for policy in [PoolPolicy::Unbounded, PoolPolicy::SlidingWindow(24)] {
        let stream = stream(Dataset::Rcmnist, 5);
        let cfg = cfg(policy);
        let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 5);

        // Uninterrupted run, capturing the snapshot in passing.
        let mut strategy = incremental(&cfg);
        let mut session =
            OnlineSession::new(&arch, &cfg, 5, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        let mut stash: Option<(String, usize)> = None;
        let full = drive(&mut session, &mut strategy, &stream, 0, false, |round, s, strat| {
            if round == SNAP_AT {
                let json = serde_json::to_string(&s.snapshot(strat)).expect("snapshot serializes");
                stash = Some((json, 1));
            }
        });
        let (json, snap_task) = stash.expect("snapshot point was reached");
        let tail_uninterrupted: Vec<String> =
            full.iter().filter(|l| l.starts_with("round")).skip(SNAP_AT).cloned().collect();
        assert!(!tail_uninterrupted.is_empty(), "{policy:?}: snapshot must not be at the end");

        // Cold restart: fresh strategy, state restored from the JSON.
        let snapshot: SessionSnapshot = serde_json::from_str(&json).expect("snapshot decodes");
        let mut strategy2 = incremental(&cfg);
        let mut session2 =
            OnlineSession::restore(&snapshot, &cfg, &mut strategy2).expect("restore succeeds");
        let tail_restored: Vec<String> = drive(
            &mut session2,
            &mut strategy2,
            &stream,
            snap_task,
            true,
            |_, _, _| {},
        )
        .into_iter()
        .filter(|l| l.starts_with("round"))
        .collect();

        // The futures must agree byte for byte — picks, grants, losses —
        // modulo the round ordinal (the restored driver counts from 0).
        let strip = |l: &String| l.split_once(" t=").expect("round line shape").1.to_string();
        assert_eq!(
            tail_uninterrupted.iter().map(strip).collect::<Vec<_>>(),
            tail_restored.iter().map(strip).collect::<Vec<_>>(),
            "{policy:?}: restored session diverged from the uninterrupted one"
        );
    }
}

/// Replays the batch runner's exact protocol through the session API.
fn replay_by_hand(
    stream: &TaskStream,
    cfg: &ExperimentConfig,
    seed: u64,
) -> Vec<(f64, f64, f64, f64, f64, usize)> {
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, seed);
    let mut strategy = Faction::new(FactionParams { loss: cfg.loss, lambda: 1.0, ..Default::default() });
    let mut session =
        OnlineSession::new(&arch, cfg, seed, stream.num_classes, strategy.training_loss());
    if let Some(first) = stream.tasks.first() {
        session.warm_start(first);
    }
    let mut rows = Vec::new();
    for task in &stream.tasks {
        let eval = session.begin_task(task);
        let mut oracle = Oracle::new(task, cfg.budget);
        while oracle.remaining() > 0 && session.has_candidates() {
            let decisions = session.feed(task, &mut strategy);
            let labels: Vec<Option<usize>> =
                decisions.picked.iter().map(|&g| oracle.query(g)).collect();
            session.apply_labels(task, &labels);
        }
        rows.push((
            eval.accuracy,
            eval.ddp,
            eval.eod,
            eval.mi,
            eval.calibration_gap,
            oracle.queries_made(),
        ));
    }
    rows
}

#[test]
fn havoc_lineup_through_the_session_api_matches_the_runner_exactly() {
    let seed = 9;
    let clean = stream(Dataset::Nysf, seed);
    let havoc = poison(&clean, &PoisonSpec::havoc(seed));
    let cfg = cfg(PoolPolicy::Unbounded);
    let arch = faction_nn::presets::tiny(havoc.input_dim, havoc.num_classes, seed);

    // Path 1: the batch runner.
    let runner_registry = Arc::new(Registry::new());
    let record = {
        let _scope = Handle::from(runner_registry.clone()).enter();
        let mut strategy =
            Faction::new(FactionParams { loss: cfg.loss, lambda: 1.0, ..Default::default() });
        faction_core::run_experiment(&havoc, &mut strategy, &arch, &cfg, seed)
    };

    // Path 2: the same lineup replayed by hand through feed/apply_labels.
    let session_registry = Arc::new(Registry::new());
    let rows = {
        let _scope = Handle::from(session_registry.clone()).enter();
        replay_by_hand(&havoc, &cfg, seed)
    };

    // Per-task evaluations and budget exhaustion agree bit for bit.
    assert_eq!(record.records.len(), rows.len());
    for (r, (acc, ddp, eod, mi, cal, queries)) in record.records.iter().zip(&rows) {
        assert_eq!((r.accuracy, r.ddp, r.eod), (*acc, *ddp, *eod), "task {}", r.task_id);
        assert_eq!((r.mi, r.calibration_gap), (*mi, *cal), "task {}", r.task_id);
        assert_eq!(r.queries, *queries, "task {}: budget exhaustion must match", r.task_id);
    }

    // Degradation and containment ledgers agree counter for counter.
    let runner = runner_registry.snapshot();
    let by_hand = session_registry.snapshot();
    for key in [
        "core.runner.rounds",
        "core.runner.degraded_rounds",
        "core.runner.sanitized_values",
        "core.strategy.sanitized_scores",
        "core.oracle.queries",
        "core.pool.evictions",
        "density.gda.nonfinite_rows_skipped",
        "density.ridge_escalations",
        "density.fallback_components",
    ] {
        assert_eq!(runner.counter(key), by_hand.counter(key), "counter {key} diverged");
    }
    // The poison actually bit: containment is visible, not vacuous.
    assert!(
        by_hand.counter("core.runner.sanitized_values").unwrap_or(0) > 0,
        "havoc lineup must trip the sanitizer"
    );
}
