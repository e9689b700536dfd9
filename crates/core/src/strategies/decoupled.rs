//! The Decoupled baseline — D-FA²L (paper Sec. V-A2, \[12]): fairness-aware
//! active learning with decoupled models.
//!
//! One model per sensitive group is trained on that group's labeled data;
//! candidates where the two group models *disagree* most are the promising
//! ones (their label resolves a group-dependent ambiguity). The threshold
//! `α` swept in Fig. 3 gates which disagreement levels are considered
//! informative.

use faction_linalg::{Matrix, SeedRng};
use faction_nn::{CrossEntropyLoss, Mlp, Sgd, TrainOptions};

use crate::selection::AcquisitionMode;
use crate::strategies::{SelectionContext, Strategy};

/// Decoupled-model hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DecoupledParams {
    /// Disagreement threshold `α` (Fig. 3 sweeps `{0.1, 0.2, 0.4, 0.6, 0.8}`);
    /// candidates below it are soft-suppressed rather than excluded so the
    /// batch can always be filled.
    pub threshold: f64,
    /// Training epochs per group model per selection round.
    pub epochs: usize,
}

impl Default for DecoupledParams {
    fn default() -> Self {
        DecoupledParams { threshold: 0.2, epochs: 2 }
    }
}

/// Disagreement-based selection with per-group decoupled models.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoupled {
    /// Strategy hyperparameters.
    pub params: DecoupledParams,
}

impl Decoupled {
    /// Creates the Decoupled strategy with explicit parameters.
    pub fn new(params: DecoupledParams) -> Self {
        Decoupled { params }
    }

    /// Trains a fresh group model on the subset of the pool with sensitive
    /// value `group`. Returns `None` when the subset has fewer than two
    /// samples or only one class (nothing to decouple yet).
    fn train_group_model(
        &self,
        ctx: &SelectionContext<'_>,
        group: i8,
        rng: &mut SeedRng,
    ) -> Option<Mlp> {
        let indices: Vec<usize> = (0..ctx.pool.len())
            .filter(|&i| ctx.pool.sensitives()[i] == group)
            .collect();
        if indices.len() < 2 {
            return None;
        }
        let labels: Vec<usize> = indices.iter().map(|&i| ctx.pool.labels()[i]).collect();
        let first = labels[0];
        if labels.iter().all(|&y| y == first) {
            return None;
        }
        let pool_x = ctx.pool.features();
        let x = faction_nn::mlp::gather_rows(pool_x, &indices);
        let sens = vec![group; indices.len()];
        let arch = faction_nn::presets::tiny(x.cols(), ctx.num_classes, rng.fork(0).uniform().to_bits());
        let mut model = Mlp::new(&arch);
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        model.fit(
            &x,
            &labels,
            &sens,
            &CrossEntropyLoss,
            &mut opt,
            &TrainOptions { epochs: self.params.epochs, batch_size: 32 },
            rng,
        );
        Some(model)
    }

    fn positive_probs(model: &Mlp, x: &Matrix) -> Vec<f64> {
        let probs = model.predict_proba(x);
        (0..probs.rows()).map(|r| probs.get(r, 1.min(probs.cols() - 1))).collect()
    }
}

impl Strategy for Decoupled {
    fn name(&self) -> String {
        "Decoupled".into()
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, rng: &mut SeedRng) -> Vec<f64> {
        let n = ctx.candidates.rows();
        let mut rng_a = rng.fork(1);
        let mut rng_b = rng.fork(2);
        let model_pos = self.train_group_model(ctx, 1, &mut rng_a);
        let model_neg = self.train_group_model(ctx, -1, &mut rng_b);
        let scores = match (model_pos, model_neg) {
            (Some(a), Some(b)) => {
                let pa = Self::positive_probs(&a, ctx.candidates);
                let pb = Self::positive_probs(&b, ctx.candidates);
                pa.iter()
                    .zip(&pb)
                    .map(|(x, y)| {
                        let disagreement = (x - y).abs();
                        if disagreement >= self.params.threshold {
                            // Qualifying set: D-FA²L samples uniformly among
                            // candidates whose disagreement clears α, so all
                            // qualifiers share a band with random tie-break.
                            // A higher α therefore focuses the batch on the
                            // most extreme disagreements; a lower α spreads
                            // it randomly over a larger set.
                            1.0 + rng.uniform()
                        } else {
                            // Below-threshold candidates rank after every
                            // qualifier, ordered by their disagreement.
                            disagreement / (self.params.threshold + f64::EPSILON)
                        }
                    })
                    .collect()
            }
            // One group unseen so far: no disagreement signal; uniform.
            _ => vec![0.5; n],
        };
        crate::strategies::contain_scores(scores)
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
        check_strategy_contract(&mut Decoupled::default(), 91);
    }

    #[test]
    fn falls_back_to_uniform_without_both_groups() {
        let fixture = Fixture::new(92);
        let mut ctx = fixture.ctx();
        // Pool with a single group only.
        let mut single = crate::pool::LabeledPool::new();
        for i in 0..10 {
            single.push(vec![i as f64, 0.0, 0.0], i % 2, 1);
        }
        ctx.pool = &single;
        let mut rng = SeedRng::new(0);
        let scores = Decoupled::default().desirability(&ctx, &mut rng);
        assert!(scores.iter().all(|&s| (s - 0.5).abs() < 1e-12));
    }

    #[test]
    fn threshold_partitions_candidates_into_bands() {
        // threshold 0.0: every candidate qualifies → all scores in the
        // qualifier band [1, 2). threshold 0.99: (almost) none qualify →
        // scores fall in the sub-threshold band [0, 1).
        let fixture = Fixture::new(93);
        let ctx = fixture.ctx();
        let mut rng_a = SeedRng::new(7);
        let mut rng_b = SeedRng::new(7);
        let mut lax = Decoupled::new(DecoupledParams { threshold: 0.0, epochs: 2 });
        let mut strict = Decoupled::new(DecoupledParams { threshold: 0.99, epochs: 2 });
        let a = lax.desirability(&ctx, &mut rng_a);
        let b = strict.desirability(&ctx, &mut rng_b);
        assert!(a.iter().all(|&v| v >= 1.0), "all must qualify under threshold 0");
        assert!(
            b.iter().filter(|&&v| v < 1.0).count() > b.len() / 2,
            "most must fail a 0.99 threshold"
        );
    }

    #[test]
    fn selection_differs_across_thresholds() {
        // The α knob must actually change which samples are acquired (the
        // Fig. 3 sweep axis).
        let fixture = Fixture::new(94);
        let ctx = fixture.ctx();
        let mut picks = Vec::new();
        for &threshold in &[0.05, 0.6] {
            let mut rng = SeedRng::new(7);
            let mut strategy = Decoupled::new(DecoupledParams { threshold, epochs: 2 });
            let scores = strategy.desirability(&ctx, &mut rng);
            let mut picked =
                crate::selection::acquire(&scores, 8, AcquisitionMode::TopK, &mut rng);
            picked.sort_unstable();
            picks.push(picked);
        }
        assert_ne!(picks[0], picks[1], "different thresholds must select differently");
    }
}
