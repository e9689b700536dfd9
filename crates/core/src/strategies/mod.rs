//! Active-learning selection strategies: FACTION and the seven baselines of
//! Sec. V-A2, all adapted to the online protocol (applied sequentially at
//! each time step, exactly as the paper adapts them).

use faction_linalg::{Matrix, SeedRng};
use faction_nn::{BatchLoss, CrossEntropyLoss};

use crate::pool::{LabeledPool, OnlineModel};
use crate::selection::AcquisitionMode;

pub mod ddu;
pub mod decoupled;
pub mod entropy;
pub mod faction;
pub mod fal;
pub mod falcur;
pub mod qufur;
pub mod random;

pub use ddu::Ddu;
pub use decoupled::Decoupled;
pub use entropy::EntropyAl;
pub use faction::{Faction, FactionParams, RefitMode};
pub use fal::Fal;
pub use falcur::FalCur;
pub use qufur::QuFur;
pub use random::Random;

/// Everything a strategy may inspect when scoring unlabeled candidates.
pub struct SelectionContext<'a> {
    /// The learner's current model `θ_{t−1}` (Eq. 6 extracts features and
    /// class probabilities with the *previous* parameters).
    pub model: &'a OnlineModel,
    /// The labeled pool `D_t` accumulated so far.
    pub pool: &'a LabeledPool,
    /// Raw input features of the remaining unlabeled candidates, one row
    /// per candidate.
    pub candidates: &'a Matrix,
    /// Sensitive attribute of each candidate (observable without querying).
    pub candidate_sensitives: &'a [i8],
    /// Number of classes (2 throughout the paper).
    pub num_classes: usize,
}

/// A fair-active-online-learning selection strategy.
///
/// `Send` is a supertrait so a boxed strategy can ride inside a live
/// session slot that the serve layer's wave executor hands to whichever
/// worker picks it up; strategies hold only numeric state, so every
/// implementor already qualifies.
pub trait Strategy: Send {
    /// Display name used in result tables (e.g. `"FACTION"`).
    fn name(&self) -> String;

    /// Scores each candidate with a **desirability** in which *higher means
    /// query first* (FACTION's `ω(x)` after Eq. 7; baselines' uncertainty /
    /// disagreement / combined scores).
    fn desirability(&mut self, ctx: &SelectionContext<'_>, rng: &mut SeedRng) -> Vec<f64>;

    /// How desirability turns into acquisitions (probabilistic for FACTION
    /// and QuFUR, deterministic top-K for the rest).
    fn mode(&self) -> AcquisitionMode;

    /// The training loss the runner uses when retraining on the pool.
    /// FACTION returns the fairness-regularized loss (Eq. 9); everything
    /// else — including FACTION's "w/o Fair Reg" ablation — trains with
    /// plain cross-entropy, matching the paper's observation that the
    /// fairness-aware baselines "do not regularize for fairness when
    /// learning".
    fn training_loss(&self) -> Box<dyn BatchLoss> {
        Box::new(CrossEntropyLoss)
    }

    /// Serializable internal state for session snapshots (DESIGN.md §13).
    ///
    /// Most strategies are stateless between rounds and return `None` (the
    /// default). A strategy that carries state whose *loss would change
    /// future decisions* — FACTION's incremental-refit anchor — must return
    /// it here so `OnlineSession::snapshot` captures it; otherwise a
    /// restored session could diverge byte-wise from an uninterrupted one
    /// (e.g. by re-anchoring on a different schedule).
    fn snapshot_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`Strategy::snapshot_state`]. Called by
    /// `OnlineSession::restore` with exactly what `snapshot_state` returned
    /// (never with `None`'s absence — a snapshot without strategy state
    /// simply skips the call). The default for stateless strategies rejects
    /// unexpected state so a mismatched snapshot/strategy pairing is loud.
    ///
    /// # Errors
    /// Returns a deserialization error when the value does not match the
    /// strategy's expected shape.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let _ = state;
        Err(serde::DeError::custom(format!(
            "strategy `{}` is stateless and cannot restore snapshot state",
            self.name()
        )))
    }
}

/// Softmax entropy of the model's predictions for every candidate — shared
/// by several baselines.
pub(crate) fn candidate_entropy(ctx: &SelectionContext<'_>) -> Vec<f64> {
    let probs = ctx.model.mlp().predict_proba(ctx.candidates);
    faction_nn::loss::entropy_per_row(&probs)
}

/// Containment boundary for strategy score outputs (DESIGN.md §10): every
/// strategy routes its desirability vector through here so a NaN/Inf score
/// — a diverged hypothetical retrain, an overflowed distance, a degenerate
/// entropy — becomes a neutral `0.0` instead of poisoning the acquisition
/// ranking. Scrubs are counted in `core.strategy.sanitized_scores`; a
/// fully finite vector passes through untouched.
pub(crate) fn contain_scores(mut scores: Vec<f64>) -> Vec<f64> {
    let scrubbed = faction_linalg::vector::sanitize_scores(&mut scores);
    if scrubbed > 0 {
        faction_telemetry::counter_add("core.strategy.sanitized_scores", scrubbed as u64);
    }
    scores
}

/// The full method lineup of Fig. 2: FACTION plus the seven baselines, with
/// the paper's default hyperparameters.
pub fn paper_lineup(loss: faction_fairness::TotalLossConfig) -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(Faction::new(faction::FactionParams { loss, ..Default::default() })),
        Box::new(Fal::default()),
        Box::new(FalCur::default()),
        Box::new(Decoupled::default()),
        Box::new(QuFur::default()),
        Box::new(Ddu::default()),
        Box::new(EntropyAl),
        Box::new(Random),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::ExperimentConfig;
    use faction_linalg::SeedRng;

    /// A small labeled pool + candidate batch with class and group structure
    /// for exercising every strategy the same way.
    pub struct Fixture {
        pub model: OnlineModel,
        pub pool: LabeledPool,
        pub candidates: Matrix,
        pub candidate_sensitives: Vec<i8>,
    }

    impl Fixture {
        pub fn new(seed: u64) -> Self {
            let mut rng = SeedRng::new(seed);
            let mut pool = LabeledPool::new();
            // Four (class, group) cells, linearly structured.
            for i in 0..80 {
                let y = i % 2;
                let s: i8 = if (i / 2) % 2 == 0 { 1 } else { -1 };
                let cx = if y == 1 { 2.0 } else { -2.0 };
                let gx = f64::from(s);
                pool.push(
                    vec![rng.normal(cx, 0.4), rng.normal(gx, 0.4), rng.normal(0.0, 0.4)],
                    y,
                    s,
                );
            }
            let cfg = ExperimentConfig::quick();
            let arch = faction_nn::presets::tiny(3, 2, seed);
            let mut model = OnlineModel::new(&arch, &cfg, seed);
            model.retrain(&pool, &faction_nn::CrossEntropyLoss);
            // Candidates: half familiar, half far out-of-distribution.
            let mut rows = Vec::new();
            let mut sens = Vec::new();
            for i in 0..40 {
                let far = i >= 20;
                let base = if far { 8.0 } else { 0.0 };
                rows.push(vec![
                    rng.normal(base, 0.5),
                    rng.normal(base, 0.5),
                    rng.normal(0.0, 0.5),
                ]);
                sens.push(if i % 2 == 0 { 1 } else { -1 });
            }
            Fixture {
                model,
                pool,
                candidates: Matrix::from_rows(&rows).unwrap(),
                candidate_sensitives: sens,
            }
        }

        pub fn ctx(&self) -> SelectionContext<'_> {
            SelectionContext {
                model: &self.model,
                pool: &self.pool,
                candidates: &self.candidates,
                candidate_sensitives: &self.candidate_sensitives,
                num_classes: 2,
            }
        }
    }

    /// Common contract every strategy must satisfy.
    pub fn check_strategy_contract(strategy: &mut dyn Strategy, seed: u64) {
        let fixture = Fixture::new(seed);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(seed ^ 0xABCD);
        let scores = strategy.desirability(&ctx, &mut rng);
        assert_eq!(scores.len(), 40, "{}: one score per candidate", strategy.name());
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "{}: scores must be finite",
            strategy.name()
        );
        assert!(!strategy.name().is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_has_eight_methods_with_unique_names() {
        let lineup = paper_lineup(faction_fairness::TotalLossConfig::default());
        assert_eq!(lineup.len(), 8);
        let mut names: Vec<String> = lineup.iter().map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8, "strategy names must be unique");
    }

    #[test]
    fn lineup_contains_faction_and_all_baselines() {
        let lineup = paper_lineup(faction_fairness::TotalLossConfig::default());
        let names: Vec<String> = lineup.iter().map(|s| s.name()).collect();
        for expected in
            ["FACTION", "FAL", "FAL-CUR", "Decoupled", "QuFUR", "DDU", "Entropy-AL", "Random"]
        {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }
}
