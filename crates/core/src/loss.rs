//! The fairness-regularized total loss (paper Eq. 9) as a
//! [`faction_nn::BatchLoss`], so the standard training loop optimizes it.
//!
//! `L_total = L_CE + μ (|v| − ε)` where `v` is the relaxed DDP of Eq. (1)
//! evaluated on the classifier outputs `h_i = p(y=1 | x_i)`
//! (the positive-class softmax probability). The fairness term's gradient
//! with respect to the logits composes the notion's constant per-sample
//! coefficients with the softmax Jacobian row for the positive class:
//! `∂p₁/∂logit_k = p₁ (δ_{k,1} − p_k)`.

use faction_fairness::TotalLossConfig;
use faction_linalg::Matrix;
use faction_nn::loss::cross_entropy_into;
use faction_nn::{BatchLoss, BatchMeta, LossScratch};

/// Index of the "positive" class whose probability plays the role of the
/// real-valued classifier output `h(x, θ)` in Eq. (1).
const POSITIVE_CLASS: usize = 1;

/// Fills `h` with each row's positive-class probability.
fn positive_outputs(probs: &Matrix, h: &mut Vec<f64>) {
    h.clear();
    h.extend((0..probs.rows()).map(|r| probs.get(r, POSITIVE_CLASS)));
}

/// Adds `dh_r · ∂p₁/∂logit_k = dh_r · p₁ (δ_{k,1} − p_k)` to each gradient
/// row: the chain rule from a fairness term's `dL/dh` through the softmax.
fn add_fairness_chain(probs: &Matrix, dh: &[f64], grad: &mut Matrix) {
    for (r, &dhr) in dh.iter().enumerate() {
        if dhr == 0.0 {
            continue;
        }
        let p1 = probs.get(r, POSITIVE_CLASS);
        for k in 0..grad.cols() {
            let delta = if k == POSITIVE_CLASS { 1.0 } else { 0.0 };
            let jac = p1 * (delta - probs.get(r, k));
            let v = grad.get(r, k);
            grad.set(r, k, v + dhr * jac);
        }
    }
}

/// Cross-entropy plus the fairness regularizer of Eq. (9).
#[derive(Debug, Clone, Copy)]
pub struct FairTotalLoss {
    /// Fairness term configuration (μ, ε).
    pub config: TotalLossConfig,
}

impl FairTotalLoss {
    /// Creates the total loss with the given fairness configuration.
    pub fn new(config: TotalLossConfig) -> Self {
        FairTotalLoss { config }
    }
}

impl BatchLoss for FairTotalLoss {
    fn loss_grad_into(
        &self,
        logits: &Matrix,
        meta: &BatchMeta<'_>,
        scratch: &mut LossScratch,
        grad: &mut Matrix,
    ) -> f64 {
        let LossScratch { probs, h, dh, .. } = scratch;
        let ce = cross_entropy_into(logits, meta.labels, probs, grad);
        positive_outputs(probs, h);
        let fair_value = self.config.fairness_term(h, meta.sensitive, dh);
        add_fairness_chain(probs, dh, grad);
        ce + fair_value
    }
}

/// Cross-entropy plus a **multi-group** fairness regularizer: penalizes the
/// largest one-vs-rest disparity `max_g |v_g|` across arbitrarily many
/// sensitive groups (the Sec. III-A multi-valued extension;
/// see [`faction_fairness::multi`]). Reduces to the binary symmetric DDP
/// penalty when only two groups are present.
#[derive(Debug, Clone, Copy)]
pub struct MultiGroupFairLoss {
    /// Trade-off weight `μ`.
    pub mu: f64,
    /// Constraint slack `ε`.
    pub epsilon: f64,
}

impl MultiGroupFairLoss {
    /// Creates the loss with the given trade-off and slack.
    pub fn new(mu: f64, epsilon: f64) -> Self {
        MultiGroupFairLoss { mu, epsilon }
    }
}

impl BatchLoss for MultiGroupFairLoss {
    fn loss_grad_into(
        &self,
        logits: &Matrix,
        meta: &BatchMeta<'_>,
        scratch: &mut LossScratch,
        grad: &mut Matrix,
    ) -> f64 {
        let LossScratch { probs, h, dh, groups } = scratch;
        let ce = cross_entropy_into(logits, meta.labels, probs, grad);
        let n = probs.rows();
        positive_outputs(probs, h);
        // Penalty: the mean of all one-vs-rest gaps, `Σ_g |v_g| / k`.
        // (A max-only penalty has a subgradient that touches one group per
        // batch and converges far more slowly; the mean drives every
        // group's disparity simultaneously and reduces to the binary
        // symmetric penalty for two groups.)
        faction_fairness::multi::one_vs_rest_values_into(h, meta.sensitive, groups);
        if groups.is_empty() {
            return ce - self.mu * self.epsilon;
        }
        let k = groups.len() as f64;
        dh.clear();
        dh.resize(n, 0.0);
        let mut penalty = 0.0;
        for &(group, v) in groups.iter() {
            penalty += v.abs() / k;
            let n_in = meta.sensitive.iter().filter(|&&s| s == group).count();
            let n_out = n - n_in;
            if n_in == 0 || n_out == 0 {
                continue;
            }
            let sign = if v >= 0.0 { 1.0 } else { -1.0 };
            for (r, &s) in meta.sensitive.iter().enumerate() {
                let coeff =
                    if s == group { 1.0 / n_in as f64 } else { -1.0 / n_out as f64 };
                dh[r] += self.mu * sign * coeff / k;
            }
        }
        add_fairness_chain(probs, dh, grad);
        ce + self.mu * (penalty - self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_nn::CrossEntropyLoss;

    #[test]
    fn multi_group_loss_reduces_to_ce_for_single_group() {
        let loss = MultiGroupFairLoss::new(1.0, 0.0);
        let logits = Matrix::from_rows(&[vec![0.2, -0.1], vec![-0.4, 0.6]]).unwrap();
        let labels = [0usize, 1];
        let sens = [2i8, 2];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };
        let (total, grad_total) = loss.loss_and_grad(&logits, &meta);
        let (ce, grad_ce) = CrossEntropyLoss.loss_and_grad(&logits, &meta);
        assert!((total - ce).abs() < 1e-12);
        assert_eq!(grad_total, grad_ce);
    }

    #[test]
    fn multi_group_loss_penalizes_outlier_group() {
        let loss = MultiGroupFairLoss::new(2.0, 0.0);
        // Group 2 predicted positive, groups 0/1 negative.
        let logits = Matrix::from_rows(&[
            vec![3.0, -3.0],
            vec![3.0, -3.0],
            vec![-3.0, 3.0],
            vec![-3.0, 3.0],
        ])
        .unwrap();
        let labels = [0usize, 0, 1, 1];
        let sens = [0i8, 1, 2, 2];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };
        let (total, _) = loss.loss_and_grad(&logits, &meta);
        let (ce, _) = CrossEntropyLoss.loss_and_grad(&logits, &meta);
        assert!(total > ce + 1.5, "penalty missing: total {total} vs ce {ce}");
    }

    #[test]
    fn multi_group_gradient_matches_finite_difference_away_from_kinks() {
        let loss = MultiGroupFairLoss::new(1.2, 0.01);
        let logits = Matrix::from_rows(&[
            vec![0.9, -0.9],
            vec![0.3, -0.1],
            vec![-0.8, 0.8],
            vec![-0.2, 0.5],
            vec![0.1, 0.4],
            vec![-0.6, -0.1],
        ])
        .unwrap();
        let labels = [0usize, 0, 1, 1, 1, 0];
        let sens = [0i8, 0, 1, 1, 2, 2];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };
        let (_, grad) = loss.loss_and_grad(&logits, &meta);
        let eps = 1e-6;
        for r in 0..logits.rows() {
            for c in 0..logits.cols() {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let fp = loss.loss_and_grad(&lp, &meta).0;
                let fm = loss.loss_and_grad(&lm, &meta).0;
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-5,
                    "grad[{r}][{c}] numeric {numeric} analytic {}",
                    grad.get(r, c)
                );
            }
        }
    }

    fn meta<'a>(labels: &'a [usize], sensitive: &'a [i8]) -> BatchMeta<'a> {
        BatchMeta { labels, sensitive }
    }

    fn eval_loss(loss: &FairTotalLoss, logits: &Matrix, labels: &[usize], sens: &[i8]) -> f64 {
        loss.loss_and_grad(logits, &meta(labels, sens)).0
    }

    #[test]
    fn reduces_to_cross_entropy_when_mu_zero() {
        let cfg = TotalLossConfig { mu: 0.0, ..Default::default() };
        let loss = FairTotalLoss::new(cfg);
        let logits = Matrix::from_rows(&[vec![0.3, -0.2], vec![-1.0, 0.5]]).unwrap();
        let labels = [0usize, 1];
        let sens = [1i8, -1];
        let (total, grad_total) = loss.loss_and_grad(&logits, &meta(&labels, &sens));
        let (ce, grad_ce) = CrossEntropyLoss.loss_and_grad(&logits, &meta(&labels, &sens));
        assert!((total - ce).abs() < 1e-12);
        assert_eq!(grad_total, grad_ce);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let cfg = TotalLossConfig { mu: 1.7, epsilon: 0.02 };
        let loss = FairTotalLoss::new(cfg);
        let logits =
            Matrix::from_rows(&[vec![0.4, -0.3], vec![-0.6, 0.8], vec![0.1, 0.2], vec![1.0, -1.0]])
                .unwrap();
        let labels = [0usize, 1, 1, 0];
        let sens = [1i8, 1, -1, -1];
        let (_, grad) = loss.loss_and_grad(&logits, &meta(&labels, &sens));
        let eps = 1e-6;
        for r in 0..logits.rows() {
            for c in 0..logits.cols() {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let numeric =
                    (eval_loss(&loss, &lp, &labels, &sens) - eval_loss(&loss, &lm, &labels, &sens))
                        / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-5,
                    "grad[{r}][{c}] numeric {numeric} analytic {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn fairness_term_penalizes_disparate_batches() {
        let cfg = TotalLossConfig { mu: 2.0, epsilon: 0.0 };
        let loss = FairTotalLoss::new(cfg);
        // Group +1 predicted positive, group −1 negative — maximally unfair,
        // while per-sample CE is identical across the two batches.
        let unfair_logits = Matrix::from_rows(&[vec![-3.0, 3.0], vec![3.0, -3.0]]).unwrap();
        let fair_logits = Matrix::from_rows(&[vec![-3.0, 3.0], vec![3.0, -3.0]]).unwrap();
        let labels = [1usize, 0];
        let unfair = eval_loss(&loss, &unfair_logits, &labels, &[1, -1]);
        // Same predictions, but groups swapped so each group gets one
        // positive and one negative… with only two samples we instead flip
        // the sensitive assignment to make the batch balanced per group.
        let fair = eval_loss(&loss, &fair_logits, &labels, &[1, 1]);
        assert!(unfair > fair, "unfair {unfair} vs degenerate-group {fair}");
    }

    #[test]
    fn training_with_fair_loss_reduces_ddp() {
        // End-to-end: a dataset whose features encode the group; training
        // with μ > 0 must end with lower demographic disparity than μ = 0.
        use faction_linalg::SeedRng;
        use faction_nn::{Mlp, MlpConfig, Sgd, TrainOptions};

        let mut rng = SeedRng::new(77);
        let n = 200;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut sens = Vec::new();
        for i in 0..n {
            let s: i8 = if i % 2 == 0 { 1 } else { -1 };
            // Label correlates with group 80% of the time.
            let y = if rng.bernoulli(0.8) { usize::from(s == 1) } else { usize::from(s != 1) };
            // Feature 0 carries the group, feature 1 weak class signal.
            rows.push(vec![
                f64::from(s) * 2.0 + rng.normal(0.0, 0.5),
                (y as f64 - 0.5) * 1.0 + rng.normal(0.0, 1.0),
            ]);
            labels.push(y);
            sens.push(s);
        }
        let x = Matrix::from_rows(&rows).unwrap();

        let train = |mu: f64, seed: u64| {
            let mut mlp = Mlp::new(&MlpConfig::new(vec![2, 16, 2], seed));
            let mut opt = Sgd::new(0.1).with_momentum(0.9);
            let cfg = TotalLossConfig { mu, epsilon: 0.0 };
            let loss = FairTotalLoss::new(cfg);
            let mut rng = SeedRng::new(seed);
            mlp.fit(
                &x,
                &labels,
                &sens,
                &loss,
                &mut opt,
                &TrainOptions { epochs: 40, batch_size: 32 },
                &mut rng,
            );
            let preds = mlp.predict(&x);
            faction_fairness::ddp(&preds, &sens)
        };

        let ddp_plain = train(0.0, 5);
        let ddp_fair = train(3.0, 5);
        assert!(
            ddp_fair < ddp_plain - 0.1,
            "fair training must cut DDP: plain {ddp_plain} fair {ddp_fair}"
        );
    }
}
