//! The FAL baseline (paper Sec. V-A2, \[33]): Fair Active Learning via
//! "Expected Fairness".
//!
//! FAL scores a candidate by combining its informativeness (entropy) with
//! the *expected fairness of the model if the candidate were labeled and
//! added to the training set*, expectation taken over the model's own label
//! posterior. The original implementation retrains a model per candidate and
//! per hypothetical label — which is why the paper's runtime figure (Fig. 5a)
//! shows FAL as by far the most expensive method. We reproduce that
//! structure faithfully with two standard cost controls from the FAL paper
//! itself: only the top-`l` candidates by entropy receive the expensive
//! evaluation (the `l ∈ {64, …, 256}` knob swept in Fig. 3), and the
//! hypothetical retrain runs one epoch on a bounded subsample of the pool.

use faction_linalg::{vector, Matrix, SeedRng};
use faction_nn::{CrossEntropyLoss, Sgd, TrainOptions};

use crate::selection::AcquisitionMode;
use crate::strategies::{candidate_entropy, SelectionContext, Strategy};

/// FAL hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct FalParams {
    /// Number of top-entropy candidates that receive the expensive
    /// expected-fairness evaluation (Fig. 3 sweeps `{64, 96, 128, 196, 256}`).
    pub l: usize,
    /// Weight of the expected-fairness-gain term relative to entropy.
    pub fairness_weight: f64,
    /// Pool subsample bound for each hypothetical retrain.
    pub retrain_subsample: usize,
    /// Probe-set bound for the hypothetical model's DDP evaluation.
    pub probe_subsample: usize,
}

impl Default for FalParams {
    fn default() -> Self {
        FalParams { l: 96, fairness_weight: 2.0, retrain_subsample: 128, probe_subsample: 128 }
    }
}

/// Entropy + expected-fairness sample selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fal {
    /// Strategy hyperparameters.
    pub params: FalParams,
}

impl Fal {
    /// Creates FAL with explicit parameters.
    pub fn new(params: FalParams) -> Self {
        Fal { params }
    }

    /// Hard demographic-parity difference of `model`'s predictions over a
    /// probe feature set.
    fn model_ddp(mlp: &faction_nn::Mlp, probe: &Matrix, probe_sens: &[i8]) -> f64 {
        let preds = mlp.predict(probe);
        faction_fairness::ddp(&preds, probe_sens)
    }
}

impl Strategy for Fal {
    fn name(&self) -> String {
        "FAL".into()
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, rng: &mut SeedRng) -> Vec<f64> {
        let n = ctx.candidates.rows();
        let entropies = candidate_entropy(ctx);
        if ctx.pool.is_empty() {
            return crate::strategies::contain_scores(entropies);
        }
        let probs = ctx.model.mlp().predict_proba(ctx.candidates);

        // Top-l candidates by entropy get the expensive evaluation.
        // NaN-last descending total order: a poisoned entropy must never
        // claim one of the `l` expensive evaluation slots (the old
        // partial_cmp comparator left NaN wherever it sat).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| vector::total_order_desc(entropies[a], entropies[b]));
        let evaluated: Vec<usize> = order.into_iter().take(self.params.l.min(n)).collect();

        // Bounded subsamples for the hypothetical retrains.
        let pool_x = ctx.pool.features();
        let pool_idx =
            rng.sample_indices(ctx.pool.len(), self.params.retrain_subsample.min(ctx.pool.len()));
        let sub_x = faction_nn::mlp::gather_rows(pool_x, &pool_idx);
        let sub_y: Vec<usize> = pool_idx.iter().map(|&i| ctx.pool.labels()[i]).collect();
        let sub_s: Vec<i8> = pool_idx.iter().map(|&i| ctx.pool.sensitives()[i]).collect();
        let probe_idx = rng.sample_indices(n, self.params.probe_subsample.min(n));
        let probe = faction_nn::mlp::gather_rows(ctx.candidates, &probe_idx);
        let probe_sens: Vec<i8> =
            probe_idx.iter().map(|&i| ctx.candidate_sensitives[i]).collect();

        let current_ddp = Self::model_ddp(ctx.model.mlp(), &probe, &probe_sens);

        // Scores: entropy everywhere; evaluated candidates add the expected
        // fairness gain. Non-evaluated candidates are pushed below the
        // evaluated subsample (FAL selects from the subsample), while
        // preserving entropy order among themselves for overflow batches.
        let mut scores: Vec<f64> = entropies.iter().map(|h| h - 1.0e3).collect();
        for &j in &evaluated {
            let mut expected_ddp = 0.0;
            for label in 0..ctx.num_classes {
                // Hypothetically add (x_j, label) and retrain briefly.
                let mut aug_rows: Vec<Vec<f64>> =
                    sub_x.iter_rows().map(|r| r.to_vec()).collect();
                aug_rows.push(ctx.candidates.row(j).to_vec());
                #[expect(
                    clippy::expect_used,
                    reason = "rows cloned from one matrix plus one equal-width candidate row"
                )]
                let aug_x = Matrix::from_rows(&aug_rows).expect("rectangular");
                let mut aug_y = sub_y.clone();
                aug_y.push(label);
                let mut aug_s = sub_s.clone();
                aug_s.push(ctx.candidate_sensitives[j]);

                let mut hypothetical = ctx.model.mlp().clone();
                let mut opt = Sgd::new(0.05).with_momentum(0.9);
                let mut train_rng = rng.fork(j as u64 * 2 + label as u64);
                hypothetical.fit(
                    &aug_x,
                    &aug_y,
                    &aug_s,
                    &CrossEntropyLoss,
                    &mut opt,
                    &TrainOptions { epochs: 1, batch_size: 64 },
                    &mut train_rng,
                );
                let ddp = Self::model_ddp(&hypothetical, &probe, &probe_sens);
                expected_ddp += probs.get(j, label) * ddp;
            }
            let fairness_gain = current_ddp - expected_ddp;
            scores[j] = entropies[j] + self.params.fairness_weight * fairness_gain;
        }
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
        let mut fal = Fal::new(FalParams { l: 8, ..Default::default() });
        check_strategy_contract(&mut fal, 71);
    }

    #[test]
    fn evaluated_candidates_outrank_unevaluated() {
        let fixture = Fixture::new(72);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(0);
        let l = 5;
        let mut fal = Fal::new(FalParams { l, ..Default::default() });
        let scores = fal.desirability(&ctx, &mut rng);
        let mut sorted: Vec<f64> = scores.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Exactly l scores should live in the "evaluated" band (> -100).
        let evaluated_count = scores.iter().filter(|&&s| s > -100.0).count();
        assert_eq!(evaluated_count, l);
    }

    #[test]
    fn empty_pool_falls_back_to_entropy() {
        let fixture = Fixture::new(73);
        let mut ctx = fixture.ctx();
        let empty = crate::pool::LabeledPool::new();
        ctx.pool = &empty;
        let mut rng = SeedRng::new(0);
        let mut fal = Fal::new(FalParams { l: 4, ..Default::default() });
        let scores = fal.desirability(&ctx, &mut rng);
        assert!(scores.iter().all(|s| (0.0..=2f64.ln() + 1e-9).contains(s)));
    }
}
