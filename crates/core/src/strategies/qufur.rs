//! The QuFUR baseline (paper Sec. V-A2, \[2]): active online learning with
//! hidden shifting domains. QuFUR estimates per-sample uncertainty and turns
//! it into a *query probability* — the same probabilistic acquisition shape
//! FACTION uses, but with no fairness term and no density estimator.
//!
//! Adaptation (as in the paper's baseline section): the uncertainty estimate
//! is the model's predictive entropy, min–max normalized per batch, queried
//! via `Bernoulli(min(α·ω, 1))` trials.

use faction_linalg::{vector, SeedRng};

use crate::selection::AcquisitionMode;
use crate::strategies::{candidate_entropy, SelectionContext, Strategy};

/// Uncertainty-proportional probabilistic querying.
#[derive(Debug, Clone, Copy)]
pub struct QuFur {
    /// Query-rate multiplier (same role as FACTION's `α`).
    pub alpha: f64,
}

impl Default for QuFur {
    fn default() -> Self {
        QuFur { alpha: 3.0 }
    }
}

impl Strategy for QuFur {
    fn name(&self) -> String {
        "QuFUR".into()
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        // Normalized entropy: high uncertainty → high query probability.
        crate::strategies::contain_scores(vector::min_max_normalize(&candidate_entropy(ctx)))
    }

    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::Probabilistic { alpha: self.alpha }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::{check_strategy_contract, Fixture};

    #[test]
    fn satisfies_strategy_contract() {
        check_strategy_contract(&mut QuFur::default(), 51);
    }

    #[test]
    fn scores_are_normalized() {
        let fixture = Fixture::new(52);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(0);
        let scores = QuFur::default().desirability(&ctx, &mut rng);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(min.abs() < 1e-12);
    }

    #[test]
    fn mode_carries_alpha() {
        let q = QuFur { alpha: 0.5 };
        assert_eq!(q.mode(), AcquisitionMode::Probabilistic { alpha: 0.5 });
    }
}
