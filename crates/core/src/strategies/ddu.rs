//! The DDU baseline (paper Sec. V-A2, \[46]): Deep Deterministic Uncertainty.
//! Epistemic uncertainty is the feature-space GDA density with one component
//! **per class** (no sensitive split); the most uncertain — lowest-density —
//! candidates are queried. This is FACTION minus the fairness machinery and
//! minus the probabilistic acquisition.

use faction_density::{FairDensityConfig, FairDensityEstimator};
use faction_linalg::SeedRng;

use crate::selection::AcquisitionMode;
use crate::strategies::{SelectionContext, Strategy};

/// Class-conditional density-based uncertainty sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ddu {
    /// Density-estimator settings.
    pub density: FairDensityConfig,
}

impl Strategy for Ddu {
    fn name(&self) -> String {
        "DDU".into()
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        let n = ctx.candidates.rows();
        let pool_features = ctx.model.mlp().features(ctx.pool.features());
        let estimator = match FairDensityEstimator::fit_class_only(
            &pool_features,
            ctx.pool.labels(),
            ctx.num_classes,
            &self.density,
        ) {
            Ok(e) => e,
            Err(_) => return vec![0.0; n],
        };
        let z = ctx.model.mlp().features(ctx.candidates);
        // Desirability = negative log-density: lowest density (highest
        // epistemic uncertainty) queried first.
        crate::strategies::contain_scores(
            (0..n)
                .map(|i| -estimator.log_density(z.row(i)).unwrap_or(f64::NEG_INFINITY))
                .collect(),
        )
    }

    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::TopK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::{check_strategy_contract, Fixture};

    #[test]
    fn satisfies_strategy_contract() {
        check_strategy_contract(&mut Ddu::default(), 61);
    }

    #[test]
    fn ood_candidates_score_higher() {
        let fixture = Fixture::new(62);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(0);
        let scores = Ddu::default().desirability(&ctx, &mut rng);
        let familiar: f64 = scores[..20].iter().sum::<f64>() / 20.0;
        let ood: f64 = scores[20..].iter().sum::<f64>() / 20.0;
        assert!(ood > familiar, "ood {ood} vs familiar {familiar}");
    }

    #[test]
    fn mode_is_deterministic_topk() {
        assert_eq!(Ddu::default().mode(), AcquisitionMode::TopK);
    }
}
