//! Incremental session state machine for the online protocol (DESIGN.md §13).
//!
//! [`OnlineSession`] is the per-round body of the protocol driver
//! ([`crate::runner::run_experiment`]) factored into an explicit state
//! machine: `feed` scores the remaining candidates and decides which to
//! query, `apply_labels` ingests whatever the oracle granted and retrains.
//! The runner is a thin loop over these two calls, and a serving layer can
//! drive thousands of interleaved sessions with the same byte-for-byte
//! decision stream a batch run would produce — determinism depends only on
//! (seed, config, the session's own input order), never on who else is
//! running.
//!
//! The split mirrors the protocol's natural transaction boundary: a round's
//! *decision* (which samples are worth the budget) is separated from its
//! *settlement* (which labels were actually granted), so an external oracle
//! — a human annotator, a tenant budget server — can sit between the two
//! calls without the session knowing or caring.
//!
//! [`SessionSnapshot`] captures the complete mid-stream state — model,
//! optimizer momentum, labeled pool, RNG position, per-task cursors, and
//! any strategy-internal state ([`Strategy::snapshot_state`]) — so a
//! restored session replays the exact byte stream an uninterrupted one
//! would. This is deliberately *stronger* than the engine's
//! job-granularity resume ([`crate::checkpoint::RunCheckpoint`], which only
//! ever persists completed runs): a live session cannot wait for the stream
//! to end.

use faction_data::{Sample, Task};
use faction_linalg::{vector, Matrix, SeedRng};
use faction_nn::{BatchLoss, MlpConfig};
use faction_telemetry::{self as telemetry, Clock};
use std::path::Path;

use crate::checkpoint::{self, CheckpointError};
use crate::config::ExperimentConfig;
use crate::pool::{LabeledPool, OnlineModel};
use crate::selection::acquire;
use crate::strategies::{SelectionContext, Strategy};

/// Metrics of the *previous* model on an incoming task (Algorithm 1,
/// line 4 — evaluation precedes adaptation).
#[derive(Debug, Clone, Copy)]
pub struct TaskEvaluation {
    /// Accuracy of `θ_{t−1}` on the full task.
    pub accuracy: f64,
    /// Demographic-parity difference.
    pub ddp: f64,
    /// Equalized-odds difference.
    pub eod: f64,
    /// Mutual information between predictions and the sensitive attribute.
    pub mi: f64,
    /// Group-calibration gap.
    pub calibration_gap: f64,
}

/// One round's acquisition decision: which task-global sample indices the
/// session wants labeled, in ascending order.
#[derive(Debug, Clone)]
pub struct AcquisitionDecisions {
    /// Task-global indices to query, sorted ascending. Empty when the
    /// session has no budget or no candidates left.
    pub picked: Vec<usize>,
    /// Whether the strategy forfeited this round (panic, wrong score count,
    /// non-finite scores) and the uniform-random fallback decided instead.
    pub degraded: bool,
}

/// The settlement of one round: what the oracle granted and how retraining
/// went.
#[derive(Debug, Clone, Copy)]
pub struct TrainOutcome {
    /// Labels actually granted (≤ the round's `picked` count; an exhausted
    /// or denying oracle grants fewer).
    pub granted: usize,
    /// Final epoch's mean training loss from the retrain.
    pub train_loss: f64,
}

/// Mid-task cursor state inside a [`SessionSnapshot`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct TaskCursor {
    task_id: usize,
    unlabeled: Vec<usize>,
    pending: Vec<usize>,
    queries_made: usize,
}

/// Complete serializable state of an [`OnlineSession`], versioned like
/// [`crate::checkpoint::RunCheckpoint`] and persisted through the same
/// crash-safe write path.
///
/// Unlike the job checkpoint — which stores only a *completed* run's
/// record, because a finished run never resumes mid-stream — a
/// session snapshot must capture everything that feeds future decisions:
/// restoring and continuing must be byte-identical to never stopping.
/// The experiment config is *not* embedded; the caller owns config
/// persistence (it is part of the session's identity, like the strategy)
/// and passes it back to [`OnlineSession::restore`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    seed: u64,
    num_classes: usize,
    rng: SeedRng,
    pool: LabeledPool,
    model: OnlineModel,
    warm_indices: Vec<usize>,
    task: Option<TaskCursor>,
    strategy_state: Option<serde::Value>,
}

impl SessionSnapshot {
    /// Writes the snapshot crash-safely in the wire binary format (staged
    /// `.tmp` sibling + atomic rename + directory fsync), like
    /// [`crate::checkpoint::RunCheckpoint::save`].
    ///
    /// # Errors
    /// Propagates filesystem and serialization failures.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::save_wire(path, faction_wire::PayloadKind::SessionSnapshot, self)
    }

    /// Reads a snapshot (wire binary format), rejecting torn files,
    /// non-wire files and newer format versions.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] for missing files, [`CheckpointError::Corrupt`]
    /// for unparseable ones, [`CheckpointError::UnsupportedVersion`] for
    /// newer formats.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let snap: SessionSnapshot =
            checkpoint::load_wire(path, faction_wire::PayloadKind::SessionSnapshot)?;
        if snap.version > checkpoint::CURRENT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(snap.version));
        }
        Ok(snap)
    }

    /// Serializes to in-memory wire bytes: the container [`Self::save`]
    /// writes, without the file. Serve's stash keeps the typed snapshot
    /// instead, so the callers are perfbench's codec probes and tests.
    #[expect(
        clippy::expect_used,
        reason = "the only encode error is a record above u32::MAX bytes; snapshots are megabytes at most"
    )]
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        faction_wire::to_wire(faction_wire::PayloadKind::SessionSnapshot, self)
            .expect("session snapshot payloads are far below the u32 record limit")
    }

    /// The length of [`Self::to_wire_bytes`], counted by the same payload
    /// encoder without writing, CRC-framing or copying a byte.
    pub fn wire_len(&self) -> usize {
        faction_wire::HEADER_LEN
            + faction_wire::RECORD_FRAME_LEN
            + faction_wire::encoded_len(&serde::Serialize::to_value(self))
    }

    /// Deserializes from in-memory wire bytes, checking CRC, container
    /// kind, and the snapshot's own format version.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] for damaged bytes,
    /// [`CheckpointError::UnsupportedVersion`] for newer formats.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let snap: SessionSnapshot =
            faction_wire::from_wire(faction_wire::PayloadKind::SessionSnapshot, bytes)
                .map_err(|e| checkpoint::wire_error(Path::new("<memory>"), e))?;
        if snap.version > checkpoint::CURRENT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(snap.version));
        }
        Ok(snap)
    }
}

/// The per-round protocol body as an explicit state machine. See the
/// module docs for the lifecycle; the exact operation and RNG order inside
/// each method is the historical `run_experiment` body, verbatim — the
/// engine's golden-fixture test pins the equivalence byte-for-byte.
pub struct OnlineSession {
    // Not `#[derive(Debug)]`: `dyn BatchLoss` has no Debug bound. The
    // manual impl below summarizes instead.
    cfg: ExperimentConfig,
    seed: u64,
    num_classes: usize,
    rng: SeedRng,
    pool: LabeledPool,
    model: OnlineModel,
    loss: Box<dyn BatchLoss>,
    warm_indices: Vec<usize>,
    /// `Some` once `begin_task` has run; `None` before the first task.
    task_id: Option<usize>,
    unlabeled: Vec<usize>,
    /// Indices decided by the last `feed`, awaiting `apply_labels`.
    pending: Vec<usize>,
    queries_made: usize,
    selection_seconds: f64,
    training_seconds: f64,
    // Buffers reused across every acquisition round of every task.
    candidates: Matrix,
    candidate_sensitives: Vec<i8>,
}

impl std::fmt::Debug for OnlineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineSession")
            .field("seed", &self.seed)
            .field("task_id", &self.task_id)
            .field("pool_len", &self.pool.len())
            .field("unlabeled", &self.unlabeled.len())
            .field("pending", &self.pending.len())
            .field("queries_made", &self.queries_made)
            .finish_non_exhaustive()
    }
}

impl OnlineSession {
    /// Creates a fresh session: protocol RNG, empty pool under the config's
    /// retention policy, freshly initialized model. `loss` is the training
    /// loss the driving strategy mandates ([`Strategy::training_loss`]).
    pub fn new(
        arch: &MlpConfig,
        cfg: &ExperimentConfig,
        seed: u64,
        num_classes: usize,
        loss: Box<dyn BatchLoss>,
    ) -> Self {
        OnlineSession {
            cfg: cfg.clone(),
            seed,
            num_classes,
            rng: SeedRng::new(seed ^ 0x5EED_F00D),
            pool: LabeledPool::with_policy(cfg.pool_policy),
            model: OnlineModel::new(arch, cfg, seed),
            loss,
            warm_indices: Vec::new(),
            task_id: None,
            unlabeled: Vec::new(),
            pending: Vec::new(),
            queries_made: 0,
            selection_seconds: 0.0,
            training_seconds: 0.0,
            candidates: Matrix::default(),
            candidate_sensitives: Vec::new(),
        }
    }

    /// Draws [`ExperimentConfig::warm_start`] random labeled samples from
    /// the first task into the pool and trains the initial model. The drawn
    /// indices are excluded from task 0's query candidates and do not count
    /// against its budget.
    pub fn warm_start(&mut self, first: &Task) {
        self.warm_indices =
            self.rng.sample_indices(first.len(), self.cfg.warm_start.min(first.len()));
        for &i in &self.warm_indices {
            let s = &first.samples[i];
            self.pool.push(sanitized_features(s), s.label, s.sensitive);
        }
        let warm_train = Clock::start();
        self.model.retrain(&self.pool, self.loss.as_ref());
        telemetry::observe_duration("core.runner.train_ns", warm_train.elapsed());
    }

    /// Starts a new task: evaluates the previous model on the *entire* task
    /// (Algorithm 1, line 4), then resets the per-task acquisition cursors.
    /// Warm-start samples are excluded from candidates on task 0.
    pub fn begin_task(&mut self, task: &Task) -> TaskEvaluation {
        telemetry::counter_add("core.runner.tasks", 1);
        let eval_clock = Clock::start();
        let (accuracy, ddp, eod, mi, calibration_gap) = evaluate(&self.model, task);
        telemetry::observe_duration("core.runner.eval_ns", eval_clock.elapsed());

        // A boolean mask keeps the warm exclusion O(n + w) — probing the
        // warm list per candidate made warm-up quadratic.
        self.unlabeled = if task.id == 0 {
            let mut is_warm = vec![false; task.len()];
            for &i in &self.warm_indices {
                is_warm[i] = true;
            }
            (0..task.len()).filter(|&i| !is_warm[i]).collect()
        } else {
            (0..task.len()).collect()
        };
        self.task_id = Some(task.id);
        self.pending.clear();
        self.queries_made = 0;
        self.selection_seconds = 0.0;
        self.training_seconds = 0.0;
        TaskEvaluation { accuracy, ddp, eod, mi, calibration_gap }
    }

    /// Unlabeled candidates remaining in the current task.
    pub fn has_candidates(&self) -> bool {
        !self.unlabeled.is_empty()
    }

    /// Label budget left for the current task under the session's own
    /// accounting (granted labels consumed so far vs. [`ExperimentConfig::budget`]).
    pub fn budget_remaining(&self) -> usize {
        self.cfg.budget.saturating_sub(self.queries_made)
    }

    /// Seconds spent in scoring + acquisition on the current task.
    pub fn selection_seconds(&self) -> f64 {
        self.selection_seconds
    }

    /// Seconds spent retraining on the current task.
    pub fn training_seconds(&self) -> f64 {
        self.training_seconds
    }

    /// Granted labels consumed on the current task.
    pub fn queries_made(&self) -> usize {
        self.queries_made
    }

    /// The labeled pool accumulated so far.
    pub fn pool(&self) -> &LabeledPool {
        &self.pool
    }

    /// The session's current model.
    pub fn model(&self) -> &OnlineModel {
        &self.model
    }

    /// One acquisition decision: scores the remaining candidates with the
    /// strategy (uniform-random fallback on a degraded round, DESIGN.md
    /// §10) and picks a batch. The decision is *pending* until the matching
    /// [`OnlineSession::apply_labels`] settles it. Returns an empty
    /// decision — without touching telemetry or the RNG — when the budget
    /// or the candidate set is exhausted.
    pub fn feed(&mut self, task: &Task, strategy: &mut dyn Strategy) -> AcquisitionDecisions {
        if self.budget_remaining() == 0 || self.unlabeled.is_empty() {
            return AcquisitionDecisions { picked: Vec::new(), degraded: false };
        }
        let select_start = Clock::start();
        telemetry::counter_add("core.runner.rounds", 1);
        let desirability;
        let picked_local;
        let mut degraded = false;
        {
            // Scoring sub-phase: feature extraction + strategy desirability
            // (for FACTION this nests the GDA fit/score spans recorded
            // inside the strategy itself). The candidate buffers are reused
            // across rounds — the unlabeled set only shrinks, so after
            // round one these fills allocate nothing.
            let _score_span = telemetry::span("core.runner.score_ns");
            task.features_of_into(&self.unlabeled, &mut self.candidates);
            let scrubbed = self.candidates.sanitize_non_finite();
            if scrubbed > 0 {
                telemetry::counter_add("core.runner.sanitized_values", scrubbed as u64);
            }
            self.candidate_sensitives.clear();
            self.candidate_sensitives
                .extend(self.unlabeled.iter().map(|&i| task.samples[i].sensitive));
            let ctx = SelectionContext {
                model: &self.model,
                pool: &self.pool,
                candidates: &self.candidates,
                candidate_sensitives: &self.candidate_sensitives,
                num_classes: self.num_classes,
            };
            // Degradation boundary (DESIGN.md §10): a strategy that panics,
            // returns the wrong number of scores, or emits non-finite
            // desirability forfeits *this round only* — the session falls
            // back to uniform-random desirability so the budget is still
            // spent, and the event is counted. The fallback draws from
            // `rng` only on the degraded branch, so healthy runs consume
            // the exact same random stream as before the guard existed.
            let rng = &mut self.rng;
            let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                strategy.desirability(&ctx, rng)
            }));
            desirability = match scored {
                Ok(w) if w.len() == self.unlabeled.len() && w.iter().all(|v| v.is_finite()) => w,
                _ => {
                    degraded = true;
                    telemetry::counter_add("core.runner.degraded_rounds", 1);
                    (0..self.unlabeled.len()).map(|_| self.rng.uniform()).collect()
                }
            };
        }
        let batch =
            self.cfg.acquisition_batch.min(self.budget_remaining()).min(self.unlabeled.len());
        {
            // Query-decision sub-phase: which candidates get the budget.
            let _acquire_span = telemetry::span("core.runner.acquire_ns");
            picked_local = acquire(&desirability, batch, strategy.mode(), &mut self.rng);
        }
        let select_elapsed = select_start.elapsed();
        self.selection_seconds += select_elapsed.as_secs_f64();
        telemetry::observe_duration("core.runner.selection_ns", select_elapsed);

        let mut picked_global: Vec<usize> =
            picked_local.iter().map(|&l| self.unlabeled[l]).collect();
        picked_global.sort_unstable();
        self.pending = picked_global.clone();
        AcquisitionDecisions { picked: picked_global, degraded }
    }

    /// Settles the last [`OnlineSession::feed`]: ingests granted labels
    /// into the pool (per-(class, group) fairness accounting included),
    /// removes the decided batch from the candidate set whether granted or
    /// not, and retrains on the enlarged pool (Algorithm 1, lines 7–8).
    ///
    /// `labels[i]` answers `feed`'s `picked[i]`: `Some(label)` when the
    /// oracle granted the query, `None` when it was denied (budget
    /// exhausted, tenant cap). Denied samples leave the candidate set too —
    /// the decision consumed the round either way.
    ///
    /// # Panics
    /// Panics when `labels.len()` does not match the pending decision.
    pub fn apply_labels(&mut self, task: &Task, labels: &[Option<usize>]) -> TrainOutcome {
        assert_eq!(
            labels.len(),
            self.pending.len(),
            "one label slot per pending acquisition decision"
        );
        let record_fairness = telemetry::recording();
        let mut granted = 0usize;
        for (&g, label) in self.pending.iter().zip(labels) {
            if let Some(label) = *label {
                granted += 1;
                let s = &task.samples[g];
                if record_fairness {
                    // Per-(class, sensitive-group) label accounting — the
                    // FairSBS-style decision-rate view of the acquired
                    // labels. Key formatting is gated on an enabled
                    // recorder so the no-op path allocates nothing.
                    telemetry::counter_add("core.oracle.queries", 1);
                    telemetry::counter_add(
                        &format!("core.fairness.labeled_y{}_s{}", label, s.sensitive),
                        1,
                    );
                }
                self.pool.push(sanitized_features(s), label, s.sensitive);
            }
        }
        // `unlabeled` is kept sorted ascending (it starts that way and
        // `retain` preserves order) and `pending` was sorted by `feed`, so
        // a two-pointer merge removes the batch in O(n + k).
        let pending = std::mem::take(&mut self.pending);
        let mut next_pick = 0usize;
        self.unlabeled.retain(|&i| {
            while next_pick < pending.len() && pending[next_pick] < i {
                next_pick += 1;
            }
            !(next_pick < pending.len() && pending[next_pick] == i)
        });
        self.queries_made += granted;

        let train_start = Clock::start();
        let train_loss = self.model.retrain(&self.pool, self.loss.as_ref());
        let train_elapsed = train_start.elapsed();
        self.training_seconds += train_elapsed.as_secs_f64();
        telemetry::observe_duration("core.runner.train_ns", train_elapsed);
        TrainOutcome { granted, train_loss }
    }

    /// Captures the session's complete state, including the driving
    /// strategy's internal state when it has any
    /// ([`Strategy::snapshot_state`]).
    pub fn snapshot(&self, strategy: &dyn Strategy) -> SessionSnapshot {
        SessionSnapshot {
            version: checkpoint::CURRENT_VERSION,
            seed: self.seed,
            num_classes: self.num_classes,
            rng: self.rng.clone(),
            pool: self.pool.clone(),
            model: self.model.clone(),
            warm_indices: self.warm_indices.clone(),
            task: self.task_id.map(|task_id| TaskCursor {
                task_id,
                unlabeled: self.unlabeled.clone(),
                pending: self.pending.clone(),
                queries_made: self.queries_made,
            }),
            strategy_state: strategy.snapshot_state(),
        }
    }

    /// Rebuilds a session from a snapshot so that continuing it is
    /// byte-identical to never having stopped. `cfg` and `strategy` are
    /// the session's identity — the caller persists them alongside the
    /// snapshot and must pass back the same values; the strategy's internal
    /// state (if the snapshot carries any) is restored into `strategy`.
    ///
    /// Timing accumulators restart at zero: wall-clock is measurement
    /// output, never algorithmic state.
    ///
    /// # Errors
    /// [`CheckpointError::UnsupportedVersion`] for newer snapshots and
    /// [`CheckpointError::Corrupt`] (with an empty path, naming the
    /// strategy) when the embedded strategy state does not match the
    /// strategy.
    pub fn restore(
        snapshot: &SessionSnapshot,
        cfg: &ExperimentConfig,
        strategy: &mut dyn Strategy,
    ) -> Result<OnlineSession, CheckpointError> {
        if snapshot.version > checkpoint::CURRENT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(snapshot.version));
        }
        if let Some(state) = &snapshot.strategy_state {
            strategy.restore_state(state).map_err(|e| CheckpointError::Corrupt {
                path: std::path::PathBuf::new(),
                detail: format!("strategy state does not fit strategy `{}`: {e}", strategy.name()),
            })?;
        }
        let (task_id, unlabeled, pending, queries_made) = match &snapshot.task {
            Some(t) => (Some(t.task_id), t.unlabeled.clone(), t.pending.clone(), t.queries_made),
            None => (None, Vec::new(), Vec::new(), 0),
        };
        Ok(OnlineSession {
            cfg: cfg.clone(),
            seed: snapshot.seed,
            num_classes: snapshot.num_classes,
            rng: snapshot.rng.clone(),
            pool: snapshot.pool.clone(),
            model: snapshot.model.clone(),
            loss: strategy.training_loss(),
            warm_indices: snapshot.warm_indices.clone(),
            task_id,
            unlabeled,
            pending,
            queries_made,
            selection_seconds: 0.0,
            training_seconds: 0.0,
            candidates: Matrix::default(),
            candidate_sensitives: Vec::new(),
        })
    }
}

/// Evaluates the current model on a full task.
///
/// The [`faction_fairness::metrics`] DDP / EOD / MI take any number of
/// sensitive groups and reduce to the paper's binary definitions for two —
/// so the same protocol drives both the paper's binary benchmarks and
/// multi-valued sensitive-attribute streams (Sec. III-A extension).
///
/// The calibration gap is group calibration of the positive-class
/// probability in the binary case. With more than two classes there is no
/// "positive class", so it generalizes to *confidence calibration*: the
/// predicted class's probability against the correctness indicator
/// (`pred == label`), which reduces to the binary definition up to class
/// symmetry. Non-finite feature entries are scrubbed to `0.0` before the
/// forward pass — the model never consumes NaN/Inf (DESIGN.md §10).
pub(crate) fn evaluate(model: &OnlineModel, task: &Task) -> (f64, f64, f64, f64, f64) {
    let mut x = task.features();
    let scrubbed = x.sanitize_non_finite();
    if scrubbed > 0 {
        telemetry::counter_add("core.runner.sanitized_values", scrubbed as u64);
    }
    // One forward pass: the row argmaxes of the logits are `predict`'s
    // predictions, and their softmax is `predict_proba`'s probabilities.
    let mut probs = model.mlp().logits(&x);
    let preds: Vec<usize> =
        probs.iter_rows().map(|row| vector::argmax(row).unwrap_or(0)).collect();
    faction_nn::loss::softmax_in_place(&mut probs);
    let labels = task.labels();
    let sens = task.sensitives();
    let calibration_gap = if probs.cols() > 2 {
        let confidence: Vec<f64> = (0..probs.rows()).map(|r| probs.get(r, preds[r])).collect();
        let correct: Vec<usize> =
            preds.iter().zip(&labels).map(|(p, l)| usize::from(p == l)).collect();
        faction_fairness::calibration::group_calibration_gap(&confidence, &correct, &sens, 10)
    } else {
        let positive: Vec<f64> = (0..probs.rows()).map(|r| probs.get(r, 1)).collect();
        faction_fairness::calibration::group_calibration_gap(&positive, &labels, &sens, 10)
    };
    (
        faction_fairness::accuracy(&preds, &labels),
        faction_fairness::ddp(&preds, &sens),
        faction_fairness::eod(&preds, &labels, &sens),
        faction_fairness::mutual_information(&preds, &sens),
        calibration_gap,
    )
}

/// Clones a sample's feature vector with non-finite entries scrubbed to
/// `0.0` (counted in `core.runner.sanitized_values`), so the labeled pool —
/// and therefore every retrain — never consumes NaN/Inf. A clean sample
/// pays exactly the clone it always paid.
pub(crate) fn sanitized_features(s: &Sample) -> Vec<f64> {
    let mut x = s.x.clone();
    let scrubbed = vector::sanitize_scores(&mut x);
    if scrubbed > 0 {
        telemetry::counter_add("core.runner.sanitized_values", scrubbed as u64);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::Random;
    use faction_data::{datasets::Dataset, Oracle, Scale, TaskStream};

    fn tiny_stream() -> TaskStream {
        Dataset::Rcmnist.stream_prefix(1, Scale::Quick, Some(2), Some(80))
    }

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

    #[test]
    fn feed_without_budget_or_candidates_is_inert() {
        let stream = tiny_stream();
        let cfg = ExperimentConfig { budget: 0, ..tiny_cfg() };
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let mut session =
            OnlineSession::new(&arch, &cfg, 3, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        session.begin_task(&stream.tasks[0]);
        let d = session.feed(&stream.tasks[0], &mut strategy);
        assert!(d.picked.is_empty());
        assert!(!d.degraded);
    }

    #[test]
    fn session_loop_matches_runner_protocol_invariants() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let mut session =
            OnlineSession::new(&arch, &cfg, 7, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        for task in &stream.tasks {
            session.begin_task(task);
            let mut oracle = Oracle::new(task, cfg.budget);
            while oracle.remaining() > 0 && session.has_candidates() {
                let d = session.feed(task, &mut strategy);
                assert!(!d.picked.is_empty());
                assert!(d.picked.len() <= cfg.acquisition_batch);
                let labels: Vec<Option<usize>> =
                    d.picked.iter().map(|&g| oracle.query(g)).collect();
                let outcome = session.apply_labels(task, &labels);
                assert_eq!(outcome.granted, labels.iter().flatten().count());
                assert!(outcome.train_loss.is_finite());
            }
            assert_eq!(session.queries_made(), oracle.queries_made());
            assert!(session.queries_made() <= cfg.budget);
        }
    }

    #[test]
    fn denied_labels_still_consume_candidates_but_not_budget() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let mut session =
            OnlineSession::new(&arch, &cfg, 5, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        session.begin_task(&stream.tasks[0]);
        let before_pool = session.pool().len();
        let d = session.feed(&stream.tasks[0], &mut strategy);
        let n = d.picked.len();
        assert!(n > 0);
        let candidates_before = session.unlabeled.len();
        let outcome = session.apply_labels(&stream.tasks[0], &vec![None; n]);
        assert_eq!(outcome.granted, 0);
        assert_eq!(session.queries_made(), 0, "denied labels cost no budget");
        assert_eq!(session.pool().len(), before_pool, "denied labels grow no pool");
        assert_eq!(
            session.unlabeled.len(),
            candidates_before - n,
            "decided candidates leave the set either way"
        );
    }

    #[test]
    fn snapshot_restore_of_fresh_session_round_trips() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let mut session =
            OnlineSession::new(&arch, &cfg, 11, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        let snap = session.snapshot(&strategy);
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: SessionSnapshot = serde_json::from_str(&json).unwrap();
        let restored = OnlineSession::restore(&parsed, &cfg, &mut strategy).unwrap();
        assert_eq!(restored.pool.len(), session.pool.len());
        assert_eq!(restored.warm_indices, session.warm_indices);
        assert_eq!(restored.task_id, None);
    }

    #[test]
    fn snapshot_rejects_newer_versions() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let session =
            OnlineSession::new(&arch, &cfg, 1, stream.num_classes, strategy.training_loss());
        let mut snap = session.snapshot(&strategy);
        snap.version = checkpoint::CURRENT_VERSION + 3;
        assert!(matches!(
            OnlineSession::restore(&snap, &cfg, &mut strategy),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn snapshot_file_round_trip_is_crash_safe_shaped() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let strategy = Random;
        let mut session =
            OnlineSession::new(&arch, &cfg, 2, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        let dir = std::env::temp_dir().join("faction_session_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.json");
        session.snapshot(&strategy).save(&path).unwrap();
        let loaded = SessionSnapshot::load(&path).unwrap();
        assert_eq!(loaded.version, checkpoint::CURRENT_VERSION);
        // In-memory wire bytes round-trip too.
        let bytes = session.snapshot(&strategy).to_wire_bytes();
        let from_bytes = SessionSnapshot::from_wire_bytes(&bytes).unwrap();
        assert_eq!(from_bytes.version, checkpoint::CURRENT_VERSION);
        // Torn snapshot files are rejected, not silently restored.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(SessionSnapshot::load(&path), Err(CheckpointError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_strategy_state_on_stateless_strategy() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let session =
            OnlineSession::new(&arch, &cfg, 1, stream.num_classes, strategy.training_loss());
        let mut snap = session.snapshot(&strategy);
        snap.strategy_state = Some(serde::Value::Bool(true));
        let err = OnlineSession::restore(&snap, &cfg, &mut strategy).unwrap_err();
        assert!(err.to_string().contains("stateless"), "got {err}");
    }
}
