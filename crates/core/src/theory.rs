//! Empirical validation of Theorem 1 (paper Sec. IV-G).
//!
//! The theorem's assumptions — convex closed domain, convex loss and
//! fairness function, Lipschitz continuity, bounded gradients — hold for
//! logistic regression over a bounded parameter ball with the relaxed DDP
//! constraint (the paper names exactly this example). This module
//! instantiates that setting:
//!
//! * a **linear** softmax model (`faction_nn::presets::linear`) trained by
//!   projected online gradient descent, one (or a few) gradient steps per
//!   task, parameters projected onto an L2 ball after every step;
//! * per-task **regret** `f_t(θ_t) − f_t(θ*_t)` against a per-task offline
//!   optimum obtained by training a fresh model to convergence;
//! * cumulative **fairness violation** `V = Σ_t ‖[v(D_t, θ_t)]₊‖`;
//! * **query complexity** under FACTION-style uncertainty-proportional
//!   Bernoulli querying.
//!
//! The `theory_bounds` harness sweeps the horizon `T` and checks the
//! discussion's stationary-environment rates: `R = O(√T)` and
//! `V = O(T^¼)` — i.e. log–log growth exponents of roughly `0.5` and
//! `0.25`, clearly sublinear.

use faction_data::{EnvironmentSpec, StreamSpec, TaskStream};
use faction_fairness::TotalLossConfig;
use faction_linalg::{Matrix, SeedRng};
use faction_nn::{BatchLoss, BatchMeta, Mlp, Optimizer, Sgd};
use serde::{Deserialize, Serialize};

use crate::loss::FairTotalLoss;

/// Configuration of the convex online-learning experiment.
#[derive(Debug, Clone)]
pub struct TheoryConfig {
    /// Feature dimensionality `d`.
    pub dim: usize,
    /// Samples per task.
    pub samples_per_task: usize,
    /// Radius of the parameter ball `Θ`.
    pub radius: f64,
    /// Base learning rate `γ₀` (Theorem 1 part 3 uses a decaying schedule
    /// `γ_t = γ₀ / √t`, which this harness applies).
    pub gamma0: f64,
    /// Gradient steps per task (1 = classic OGD).
    pub steps_per_task: usize,
    /// Fairness loss configuration (μ, ε).
    pub loss: TotalLossConfig,
    /// Number of environments (`m` in Theorem 1); 1 = stationary.
    pub environments: usize,
    /// Query-rate `α` for the query-complexity accounting.
    pub alpha: f64,
}

impl Default for TheoryConfig {
    fn default() -> Self {
        TheoryConfig {
            dim: 4,
            samples_per_task: 120,
            radius: 5.0,
            gamma0: 0.5,
            steps_per_task: 1,
            loss: TotalLossConfig { mu: 0.5, epsilon: 0.01 },
            environments: 1,
            alpha: 1.0,
        }
    }
}

/// Cumulative curves produced by one theory run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TheoryCurves {
    /// Cumulative regret `R(t)` after each task.
    pub cum_regret: Vec<f64>,
    /// Cumulative fairness violation `V(t)` after each task.
    pub cum_violation: Vec<f64>,
    /// Cumulative query count `Q(t)` after each task.
    pub cum_queries: Vec<f64>,
}

impl TheoryCurves {
    /// Growth exponent of a cumulative curve: the slope of `log y` against
    /// `log t` fitted over the second half of the horizon (the asymptotic
    /// regime). Sublinear growth means an exponent `< 1`.
    pub fn growth_exponent(curve: &[f64]) -> f64 {
        let t0 = curve.len() / 2;
        let points: Vec<(f64, f64)> = curve
            .iter()
            .enumerate()
            .skip(t0.max(1))
            .filter(|(_, &y)| y > 0.0)
            .map(|(t, &y)| (((t + 1) as f64).ln(), y.ln()))
            .collect();
        if points.len() < 2 {
            return 0.0;
        }
        let n = points.len() as f64;
        let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = points.iter().map(|p| p.1).sum::<f64>() / n;
        let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let var: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
        if var == 0.0 {
            0.0
        } else {
            cov / var
        }
    }
}

/// Averages the cumulative curves of several seeds — the published
/// exponents are always fitted on seed-averaged curves, since a single
/// run's regret curve is a step function whose isolated noise jumps make
/// log–log slopes meaningless.
pub fn mean_curves(cfg: &TheoryConfig, horizon: usize, seeds: u64) -> TheoryCurves {
    let runs: Vec<TheoryCurves> =
        (0..seeds).map(|s| run_theory_experiment(cfg, horizon, s)).collect();
    let avg = |pick: &dyn Fn(&TheoryCurves) -> &Vec<f64>| -> Vec<f64> {
        (0..horizon)
            .map(|t| runs.iter().map(|r| pick(r)[t]).sum::<f64>() / runs.len() as f64)
            .collect()
    };
    TheoryCurves {
        cum_regret: avg(&|r| &r.cum_regret),
        cum_violation: avg(&|r| &r.cum_violation),
        cum_queries: avg(&|r| &r.cum_queries),
    }
}

/// Builds a task stream for the theory experiment: `environments` blocks of
/// equal length covering `horizon` tasks. A single environment is the
/// stationary regime of the theorem's Discussion paragraph.
pub fn theory_stream(cfg: &TheoryConfig, horizon: usize, seed: u64) -> TaskStream {
    let per_env = horizon.div_ceil(cfg.environments.max(1));
    let environments = (0..cfg.environments.max(1))
        .map(|e| EnvironmentSpec {
            name: format!("env{e}"),
            mean_shift: {
                let mut v = vec![0.0; cfg.dim];
                // Shift along the last axis so environments differ but the
                // class structure is preserved.
                v[cfg.dim - 1] = 2.0 * e as f64;
                v
            },
            bias: 0.7,
            label_noise: 0.05,
            base_rate: 0.5,
            samples_per_task: cfg.samples_per_task,
            tasks: per_env,
            ..EnvironmentSpec::neutral(format!("env{e}"), cfg.dim, cfg.samples_per_task, per_env)
        })
        .collect();
    StreamSpec {
        name: "theory".into(),
        input_dim: cfg.dim,
        class_separation: 3.0,
        group_separation: 1.5,
        noise_std: 1.0,
        environments,
    }
    .generate_prefix(seed, faction_data::Scale::Full, Some(horizon), None)
}

/// Loss (Eq. 9) of a model on a full task.
fn task_loss(model: &Mlp, loss: &FairTotalLoss, x: &Matrix, y: &[usize], s: &[i8]) -> f64 {
    let logits = model.logits(x);
    loss.loss_and_grad(&logits, &BatchMeta { labels: y, sensitive: s }).0
}

/// Raw relaxed fairness value `v` of a model on a task.
fn task_fairness(model: &Mlp, loss: &FairTotalLoss, x: &Matrix, s: &[i8]) -> f64 {
    let probs = model.predict_proba(x);
    let h: Vec<f64> = (0..probs.rows()).map(|r| probs.get(r, 1)).collect();
    loss.config.fairness_value(&h, s)
}

/// Environment comparator: a fresh linear model trained to (approximate)
/// convergence with `train_loss` (the *fair* comparator objective) on the
/// given fit split, projected onto the same ball as the online learner.
/// Approximates the best fixed fair parameter for the environment.
fn offline_optimum(
    fit: (&Matrix, &Vec<usize>, &Vec<i8>),
    train_loss: &FairTotalLoss,
    cfg: &TheoryConfig,
    seed: u64,
) -> Mlp {
    let arch = faction_nn::presets::linear(cfg.dim, 2, seed);
    let mut model = Mlp::new(&arch);
    let mut opt = Sgd::new(0.3);
    let meta = BatchMeta { labels: fit.1, sensitive: fit.2 };
    for _ in 0..200 {
        model.train_step(fit.0, &meta, train_loss, &mut opt);
        model.project_params(cfg.radius);
    }
    model
}

/// Runs the primal–dual projected OGD of the Theorem 1 setting over
/// `horizon` tasks, returning the cumulative regret, violation and query
/// curves.
///
/// Two details follow the proof machinery rather than the fixed-μ training
/// loss used in the deep experiments:
///
/// * **Adaptive dual variable.** A fixed fairness weight reaches an
///   equilibrium where the CE gradient balances the fairness gradient,
///   leaving a *constant* per-task violation (linear `V`). The long-term
///   constraint analysis the paper builds on (Yi et al. \[8]) instead runs
///   dual ascent `λ_{t+1} = [λ_t + η (‖v_t‖ − ε)]₊`, so persistent
///   violations keep raising the penalty until the per-task violation
///   decays — yielding the sublinear `V` of Theorem 1 part 3.
/// * **Coverage-based querying.** Softmax entropy has an aleatoric floor
///   (label noise), so entropy-proportional querying is linear in `T`. The
///   query-complexity bound `O(η√(αd|I_u|))` comes from a covering argument
///   over the `d`-dimensional input space; the rule here queries with
///   probability `min(α·d²_min, 1)` where `d_min` is the distance to the
///   nearest previously queried sample — epistemic uncertainty that genuinely
///   vanishes as the environment gets covered, and re-spikes on shift.
pub fn run_theory_experiment(cfg: &TheoryConfig, horizon: usize, seed: u64) -> TheoryCurves {
    let stream = theory_stream(cfg, horizon, seed);
    let arch = faction_nn::presets::linear(cfg.dim, 2, seed);
    let mut model = Mlp::new(&arch);
    let mut opt = Sgd::new(cfg.gamma0);
    let mut rng = SeedRng::new(seed ^ 0x7EE0);
    // Regret (Eq. 2) is measured on the loss f_t alone (cross-entropy,
    // μ = 0); the comparator is the best *fair* model per task (the paper
    // assumes labels come from a fair h* ∈ H), approximated by an offline
    // model trained with a strong fairness weight and scored CE-only.
    let metric_loss = FairTotalLoss::new(TotalLossConfig { mu: 0.0, ..cfg.loss });
    let comparator_loss = FairTotalLoss::new(TotalLossConfig { mu: 5.0, ..cfg.loss });

    let mut cum_regret = Vec::with_capacity(horizon);
    let mut cum_violation = Vec::with_capacity(horizon);
    let mut cum_queries = Vec::with_capacity(horizon);
    let (mut regret, mut violation, mut queries) = (0.0, 0.0, 0.0);
    let mut dual = cfg.loss.mu; // λ_0
    // One fixed fair comparator per environment (the `m` disjoint subsets
    // {I_u} of Theorem 1), trained on the environment's first task. Kept in
    // a sorted map so the harness stays order-deterministic even if a
    // future change walks the comparator set (a `HashMap` here is exactly
    // the iteration-order trap `clippy::disallowed_types` exists to catch).
    let mut comparators: std::collections::BTreeMap<usize, Mlp> =
        std::collections::BTreeMap::new();
    let mut queried: Vec<Vec<f64>> = Vec::new();

    for (t, task) in stream.tasks.iter().enumerate() {
        let x = task.features();
        let y = task.labels();
        let s = task.sensitives();
        // Held-out split: the comparator optimizes on even rows and both
        // models are *scored* on odd rows. Scoring the comparator on its own
        // training rows would credit it for fitting that task's sampled
        // noise, leaving a constant per-task regret floor no online learner
        // can close (and turning R(T) linear for large T purely as an
        // estimation artifact).
        let fit_idx: Vec<usize> = (0..task.len()).step_by(2).collect();
        let eval_idx: Vec<usize> = (1..task.len()).step_by(2).collect();
        let gather = |idx: &[usize]| -> (Matrix, Vec<usize>, Vec<i8>) {
            (
                faction_nn::mlp::gather_rows(&x, idx),
                idx.iter().map(|&i| y[i]).collect(),
                idx.iter().map(|&i| s[i]).collect(),
            )
        };
        let (fit_x, fit_y, fit_s) = gather(&fit_idx);
        let (eval_x, eval_y, eval_s) = gather(&eval_idx);

        // Instantaneous loss of θ_t, before seeing the task (online regret).
        // The comparator is the best *fair* fixed parameter for the task's
        // environment (trained once per environment, scored on the same
        // held-out half) — the `h* ∈ H` of the paper's regret setup.
        let inst = task_loss(&model, &metric_loss, &eval_x, &eval_y, &eval_s);
        let comparator = comparators.entry(task.env).or_insert_with(|| {
            offline_optimum((&fit_x, &fit_y, &fit_s), &comparator_loss, cfg, seed ^ t as u64)
        });
        let best = task_loss(comparator, &metric_loss, &eval_x, &eval_y, &eval_s);
        // Raw (unrectified) increments, as in the classic regret definition:
        // rectifying at zero would accumulate pure evaluation noise at a
        // linear rate (E[max(N(0,σ²),0)] > 0) and mask the true decay. The
        // cumulative curve is clamped at zero for reporting.
        regret = (regret + (inst - best)).max(0.0);

        // Fairness violation of θ_t on this task: |v| (the trained penalty).
        let v = task_fairness(&model, &metric_loss, &eval_x, &eval_s);
        violation += v.abs();

        // Coverage-based query complexity (see doc comment above).
        for row in x.iter_rows() {
            let d_min_sq = queried
                .iter()
                .map(|q| faction_linalg::vector::dist2(row, q))
                .fold(f64::INFINITY, f64::min);
            // Normalize by the dimension so the rule is scale-comparable
            // across `d` (the bound's √d dependence).
            let p = if d_min_sq.is_finite() {
                (cfg.alpha * d_min_sq / cfg.dim as f64).min(1.0)
            } else {
                1.0
            };
            if rng.bernoulli(p) {
                queries += 1.0;
                queried.push(row.to_vec());
            }
        }

        // Dual ascent on the constraint ‖v‖ ≤ ε with a decaying step, so λ
        // stays bounded once per-task violations shrink below the slack.
        let dual_step = 0.5 / ((t + 1) as f64).sqrt();
        dual = (dual + dual_step * (v.abs() - cfg.loss.epsilon)).max(0.0);
        let step_loss = FairTotalLoss::new(TotalLossConfig { mu: dual, ..cfg.loss });

        // Primal OGD update with the decaying schedule γ_t = γ₀ / √(t+1),
        // then projection onto Θ.
        opt.set_learning_rate(cfg.gamma0 / ((t + 1) as f64).sqrt());
        let meta = BatchMeta { labels: &y, sensitive: &s };
        for _ in 0..cfg.steps_per_task.max(1) {
            model.train_step(&x, &meta, &step_loss, &mut opt);
            model.project_params(cfg.radius);
        }

        cum_regret.push(regret);
        cum_violation.push(violation);
        cum_queries.push(queries);
    }
    TheoryCurves { cum_regret, cum_violation, cum_queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_of_known_curves() {
        let linear: Vec<f64> = (1..=200).map(|t| t as f64).collect();
        let sqrt: Vec<f64> = (1..=200).map(|t| (t as f64).sqrt()).collect();
        let e_lin = TheoryCurves::growth_exponent(&linear);
        let e_sqrt = TheoryCurves::growth_exponent(&sqrt);
        assert!((e_lin - 1.0).abs() < 0.01, "linear exponent {e_lin}");
        assert!((e_sqrt - 0.5).abs() < 0.01, "sqrt exponent {e_sqrt}");
        assert_eq!(TheoryCurves::growth_exponent(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn stationary_regret_is_sublinear() {
        let cfg = TheoryConfig { samples_per_task: 60, ..Default::default() };
        let curves = mean_curves(&cfg, 40, 5);
        assert_eq!(curves.cum_regret.len(), 40);
        // Sublinearity on the seed-averaged curve: the second half of the
        // horizon must accumulate no more regret than the first half did
        // (a saturating learner), with slack for residual noise.
        let half = curves.cum_regret[20];
        let full = curves.cum_regret[39];
        assert!(
            full - half <= half + 0.2,
            "second-half regret {:.3} vs first-half {half:.3}",
            full - half
        );
    }

    #[test]
    fn stationary_queries_decay() {
        // Query rate in the last quarter must be well below the first
        // quarter's: the model gains confidence on a stationary stream.
        let cfg = TheoryConfig { samples_per_task: 60, ..Default::default() };
        let curves = run_theory_experiment(&cfg, 40, 5);
        let q = &curves.cum_queries;
        let early = q[9];
        let late = q[39] - q[29];
        assert!(
            late < early,
            "late-window queries {late} must be below early cumulative {early}"
        );
    }

    #[test]
    fn dynamic_regret_runs_are_byte_identical() {
        // Two invocations with the same seed must produce *byte-identical*
        // serialized curves — the property the analyzer gate protects. Use
        // a multi-environment config so the per-environment comparator map
        // is actually exercised.
        let cfg = TheoryConfig {
            samples_per_task: 40,
            environments: 3,
            ..Default::default()
        };
        let a = run_theory_experiment(&cfg, 12, 9);
        let b = run_theory_experiment(&cfg, 12, 9);
        let ja = serde_json::to_string(&a).expect("serialize run A");
        let jb = serde_json::to_string(&b).expect("serialize run B");
        assert_eq!(ja.as_bytes(), jb.as_bytes(), "regret curves must replay exactly");
    }

    #[test]
    fn theory_stream_blocks_environments() {
        let cfg = TheoryConfig { environments: 3, ..Default::default() };
        let stream = theory_stream(&cfg, 12, 1);
        assert_eq!(stream.len(), 12);
        assert_eq!(stream.num_environments(), 3);
        // Environment indices are non-decreasing (block structure).
        for w in stream.tasks.windows(2) {
            assert!(w[1].env >= w[0].env);
        }
    }
}
