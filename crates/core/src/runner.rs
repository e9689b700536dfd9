//! The sequential Fair Active Online Learning protocol driver
//! (paper Sec. IV-A and Algorithm 1).
//!
//! For every incoming task the runner first records the previous model's
//! performance on the *entire* unlabeled task (Algorithm 1, line 4 — "the
//! full dataset is used for evaluation", Sec. V-A3), then spends the label
//! budget `B` in acquisition batches of size `A`: score the remaining
//! unlabeled samples with the strategy, acquire a batch (Bernoulli trials or
//! top-K), query the oracle, grow the pool, retrain. Timing of the
//! selection and training phases is recorded separately to reproduce the
//! runtime decomposition of Fig. 5 / Table I.

use faction_data::{Oracle, TaskStream};
use faction_linalg::Matrix;
use faction_nn::MlpConfig;
use faction_telemetry::{self as telemetry, Clock};
use serde::{Deserialize, Serialize};

use crate::config::ExperimentConfig;
use crate::pool::OnlineModel;
use crate::session::OnlineSession;
use crate::strategies::Strategy;

/// Metrics recorded for one task, *before* the learner adapts to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task position `t`.
    pub task_id: usize,
    /// Environment name the task was drawn from.
    pub env_name: String,
    /// Accuracy of `θ_{t−1}` on the incoming task (higher is better).
    pub accuracy: f64,
    /// Demographic-parity difference (lower is better).
    pub ddp: f64,
    /// Equalized-odds difference (lower is better).
    pub eod: f64,
    /// Mutual information between predictions and the sensitive attribute
    /// (lower is better).
    pub mi: f64,
    /// Group-calibration gap: absolute difference of per-group expected
    /// calibration errors (an auxiliary fairness diagnostic from the fair
    /// online-learning literature the paper builds on; zero is best).
    #[serde(default)]
    pub calibration_gap: f64,
    /// Oracle queries consumed on this task.
    pub queries: usize,
    /// Wall-clock seconds spent on this task in total.
    pub seconds: f64,
    /// Seconds spent in the selection strategy (scoring + acquisition).
    pub selection_seconds: f64,
    /// Seconds spent retraining on the pool.
    pub training_seconds: f64,
}

/// One full pass of a strategy over a task stream.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Strategy display name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Per-task records in stream order.
    pub records: Vec<TaskRecord>,
    /// Total wall-clock seconds for the whole stream.
    pub total_seconds: f64,
    /// GEMM kernel backend the run dispatched to (`"scalar"` / `"simd"`;
    /// empty when unrecorded, e.g. legacy artifacts). Pure provenance: both
    /// backends are bit-identical on f64, so this never
    /// encodes an algorithmic difference — [`RunRecord::canonicalized`]
    /// clears it alongside the timings.
    pub kernel_backend: String,
}

// Hand-written serde (the derive emits every field unconditionally): the
// `kernel_backend` provenance field is emitted only when non-empty and
// defaults to empty on read, so pre-existing artifacts — including the
// pinned `runner_golden.tsv` fixture — parse and round-trip byte-identically.
impl Serialize for RunRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("strategy".to_string(), self.strategy.to_value()),
            ("dataset".to_string(), self.dataset.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("records".to_string(), self.records.to_value()),
            ("total_seconds".to_string(), self.total_seconds.to_value()),
        ];
        if !self.kernel_backend.is_empty() {
            fields.push(("kernel_backend".to_string(), self.kernel_backend.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for RunRecord {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("RunRecord: expected object"))?;
        let get = |name: &str| {
            serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("RunRecord: missing field {name}")))
        };
        Ok(RunRecord {
            strategy: String::from_value(get("strategy")?)?,
            dataset: String::from_value(get("dataset")?)?,
            seed: u64::from_value(get("seed")?)?,
            records: Vec::<TaskRecord>::from_value(get("records")?)?,
            total_seconds: f64::from_value(get("total_seconds")?)?,
            kernel_backend: match serde::find_field(fields, "kernel_backend") {
                Some(val) => String::from_value(val)?,
                None => String::new(),
            },
        })
    }
}

impl RunRecord {
    /// Mean of a metric across all tasks (the Table I presentation).
    pub fn mean_of(&self, metric: impl Fn(&TaskRecord) -> f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(&metric).sum::<f64>() / self.records.len() as f64
    }

    /// A copy with every wall-clock timing field zeroed.
    ///
    /// Timing fields (`total_seconds`, per-task `seconds` /
    /// `selection_seconds` / `training_seconds`) are *measurement output*:
    /// they vary run to run and machine to machine by construction. Every
    /// algorithmic field — metrics, queries, environments, ordering — is a
    /// pure function of `(dataset, strategy, seed, config)`. Canonicalizing
    /// makes that contract checkable: serialized canonical records of the
    /// same grid must be byte-identical whether the grid ran sequentially
    /// or on eight engine workers.
    ///
    /// The `kernel_backend` provenance field is cleared for the same reason
    /// the timings are: it records which (bit-identical) implementation a
    /// particular host happened to dispatch to, not anything about the
    /// results — canonical records of the same `(dataset, strategy, seed,
    /// config)` must compare equal across scalar and SIMD hosts.
    pub fn canonicalized(&self) -> RunRecord {
        let mut out = self.clone();
        out.total_seconds = 0.0;
        out.kernel_backend = String::new();
        for r in &mut out.records {
            r.seconds = 0.0;
            r.selection_seconds = 0.0;
            r.training_seconds = 0.0;
        }
        out
    }
}

/// Runs one strategy over one stream with one seed (Algorithm 1).
///
/// `arch` is the feature-extractor architecture shared by all methods in a
/// comparison (Sec. V-A3). The warm start draws
/// [`ExperimentConfig::warm_start`] random labeled samples from the first
/// task before the protocol begins; those samples are excluded from the
/// first task's query candidates and do not count against its budget.
///
/// Since the session refactor this function is a thin driver over
/// [`OnlineSession`]: it owns the stream iteration, the per-task
/// [`Oracle`], and the record assembly, while every per-round operation —
/// scoring, acquisition, fairness accounting, retraining — lives in the
/// session state machine. The decomposition is byte-invisible: the
/// engine's golden-fixture test (`runner_identity`) pins canonical
/// [`RunRecord`]s for the full strategy registry against the pre-refactor
/// output.
pub fn run_experiment(
    stream: &TaskStream,
    strategy: &mut dyn Strategy,
    arch: &MlpConfig,
    cfg: &ExperimentConfig,
    seed: u64,
) -> RunRecord {
    // Wall-clock in this function is *measured output* for the Fig. 5
    // runtime decomposition; it never feeds control flow, so algorithmic
    // results stay seed-deterministic. All reads go through the telemetry
    // Clock — the workspace's sanctioned wall-clock boundary.
    let run_start = Clock::start();
    telemetry::counter_add("core.runner.runs", 1);
    let kernel_backend = faction_linalg::dispatch::active_backend();
    let mut session =
        OnlineSession::new(arch, cfg, seed, stream.num_classes, strategy.training_loss());

    let mut records = Vec::with_capacity(stream.len());
    if let Some(first) = stream.tasks.first() {
        session.warm_start(first);
    }

    for task in &stream.tasks {
        let task_start = Clock::start();
        let eval = session.begin_task(task);
        let mut oracle = Oracle::new(task, cfg.budget);

        while oracle.remaining() > 0 && session.has_candidates() {
            let decisions = session.feed(task, strategy);
            // The oracle settles the round: it grants labels in decision
            // order until its budget runs out. `feed` never asks for more
            // than the session's remaining budget, so in this driver every
            // decision is granted — the Option plumbing exists for oracles
            // that can deny (tenant caps in the serving layer).
            let labels: Vec<Option<usize>> =
                decisions.picked.iter().map(|&g| oracle.query(g)).collect();
            session.apply_labels(task, &labels);
        }

        records.push(TaskRecord {
            task_id: task.id,
            env_name: task.env_name.clone(),
            accuracy: eval.accuracy,
            ddp: eval.ddp,
            eod: eval.eod,
            mi: eval.mi,
            calibration_gap: eval.calibration_gap,
            queries: oracle.queries_made(),
            seconds: task_start.elapsed().as_secs_f64(),
            selection_seconds: session.selection_seconds(),
            training_seconds: session.training_seconds(),
        });
    }

    RunRecord {
        strategy: strategy.name(),
        dataset: stream.name.clone(),
        seed,
        records,
        total_seconds: run_start.elapsed().as_secs_f64(),
        kernel_backend: kernel_backend.as_str().to_string(),
    }
}

/// Convenience helper: evaluates a model on an arbitrary feature/label/
/// sensitive triple (used by harnesses for held-out probes).
pub fn evaluate_on(
    model: &OnlineModel,
    x: &Matrix,
    labels: &[usize],
    sensitives: &[i8],
) -> (f64, f64, f64, f64) {
    let preds = model.mlp().predict(x);
    (
        faction_fairness::accuracy(&preds, labels),
        faction_fairness::ddp(&preds, sensitives),
        faction_fairness::eod(&preds, labels, sensitives),
        faction_fairness::mutual_information(&preds, sensitives),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{EntropyAl, Random};
    use faction_data::{datasets, Scale};

    fn tiny_stream() -> TaskStream {
        // Two small tasks from the RCMNIST generator at quick scale, but
        // truncated further for unit-test speed.
        let mut stream = datasets::rcmnist(1, Scale::Quick);
        stream.tasks.truncate(2);
        for (i, t) in stream.tasks.iter_mut().enumerate() {
            t.samples.truncate(80);
            t.id = i;
        }
        stream
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
    fn protocol_respects_budget_and_counts() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let mut strategy = Random;
        let record = run_experiment(&stream, &mut strategy, &arch, &cfg, 7);
        assert_eq!(record.records.len(), 2);
        for r in &record.records {
            assert!(r.queries <= cfg.budget, "task {} queried {}", r.task_id, r.queries);
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!((0.0..=1.0).contains(&r.ddp));
            assert!((0.0..=1.0).contains(&r.eod));
            assert!(r.mi >= 0.0);
            assert!(r.seconds >= r.selection_seconds + r.training_seconds - 1e-6);
        }
        assert_eq!(record.strategy, "Random");
        assert_eq!(record.dataset, "RCMNIST");
    }

    #[test]
    fn budget_not_divisible_by_batch_is_fully_spent() {
        // 7 = 2×3 + 1: the last round must shrink its batch to the single
        // remaining query, and the oracle's accounting must land exactly on
        // the budget with candidates to spare.
        let stream = tiny_stream();
        let cfg = ExperimentConfig { budget: 7, acquisition_batch: 3, ..tiny_cfg() };
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let record = run_experiment(&stream, &mut Random, &arch, &cfg, 5);
        for r in &record.records {
            assert_eq!(r.queries, 7, "task {} spent {} of 7", r.task_id, r.queries);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let a = run_experiment(&stream, &mut EntropyAl, &arch, &cfg, 3);
        let b = run_experiment(&stream, &mut EntropyAl, &arch, &cfg, 3);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.accuracy, rb.accuracy);
            assert_eq!(ra.ddp, rb.ddp);
            assert_eq!(ra.queries, rb.queries);
        }
    }

    #[test]
    fn learning_improves_over_random_init() {
        // Accuracy on the second task (after adapting to the first) must
        // beat chance on this separable stream.
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let record = run_experiment(&stream, &mut EntropyAl, &arch, &cfg, 11);
        assert!(
            record.records[1].accuracy > 0.6,
            "second-task accuracy {}",
            record.records[1].accuracy
        );
    }

    #[test]
    fn mean_of_averages_metrics() {
        let record = RunRecord {
            strategy: "X".into(),
            dataset: "Y".into(),
            seed: 0,
            records: vec![
                TaskRecord {
                    task_id: 0,
                    env_name: "a".into(),
                    accuracy: 0.5,
                    ddp: 0.2,
                    eod: 0.0,
                    mi: 0.0,
                    calibration_gap: 0.0,
                    queries: 1,
                    seconds: 0.0,
                    selection_seconds: 0.0,
                    training_seconds: 0.0,
                },
                TaskRecord {
                    task_id: 1,
                    env_name: "b".into(),
                    accuracy: 0.7,
                    ddp: 0.4,
                    eod: 0.0,
                    mi: 0.0,
                    calibration_gap: 0.0,
                    queries: 1,
                    seconds: 0.0,
                    selection_seconds: 0.0,
                    training_seconds: 0.0,
                },
            ],
            total_seconds: 0.0,
            kernel_backend: String::new(),
        };
        assert!((record.mean_of(|r| r.accuracy) - 0.6).abs() < 1e-12);
        assert!((record.mean_of(|r| r.ddp) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn kernel_backend_recorded_but_not_canonical() {
        let stream = tiny_stream();
        let record = run_experiment(&stream, &mut Random, &arch_for(&stream), &tiny_cfg(), 7);
        let backend = faction_linalg::dispatch::active_backend().as_str();
        assert_eq!(record.kernel_backend, backend);
        // Canonical form drops the provenance field entirely, so canonical
        // serializations never mention it (golden fixtures stay stable).
        let canon = record.canonicalized();
        assert_eq!(canon.kernel_backend, "");
        let json = serde_json::to_string(&canon).unwrap();
        assert!(!json.contains("kernel_backend"), "{json}");
        // Non-canonical serialization carries it and round-trips.
        let full = serde_json::to_string(&record).unwrap();
        assert!(full.contains(&format!("\"kernel_backend\":\"{backend}\"")), "{full}");
        let back: RunRecord = serde_json::from_str(&full).unwrap();
        assert_eq!(back.kernel_backend, backend);
        // Legacy artifacts without the field parse to the empty default.
        let legacy: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(legacy.kernel_backend, "");
    }

    fn arch_for(stream: &TaskStream) -> MlpConfig {
        faction_nn::presets::tiny(stream.input_dim, 2, 0)
    }

    #[test]
    fn canonicalized_zeroes_only_timing() {
        let stream = tiny_stream();
        let cfg = tiny_cfg();
        let arch = faction_nn::presets::tiny(stream.input_dim, 2, 0);
        let record = run_experiment(&stream, &mut EntropyAl, &arch, &cfg, 3);
        let canon = record.canonicalized();
        assert_eq!(canon.total_seconds, 0.0);
        for (orig, c) in record.records.iter().zip(&canon.records) {
            assert_eq!(c.seconds, 0.0);
            assert_eq!(c.selection_seconds, 0.0);
            assert_eq!(c.training_seconds, 0.0);
            assert_eq!(orig.accuracy, c.accuracy);
            assert_eq!(orig.ddp, c.ddp);
            assert_eq!(orig.eod, c.eod);
            assert_eq!(orig.mi, c.mi);
            assert_eq!(orig.queries, c.queries);
            assert_eq!(orig.env_name, c.env_name);
        }
        // Canonical serialization of two identically-seeded runs is
        // byte-identical even though their wall-clock timings differ.
        let again = run_experiment(&stream, &mut EntropyAl, &arch, &cfg, 3);
        assert_eq!(
            serde_json::to_string(&canon).unwrap(),
            serde_json::to_string(&again.canonicalized()).unwrap()
        );
    }
}
