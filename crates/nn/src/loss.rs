//! Softmax, cross-entropy, and the pluggable batch-loss interface.
//!
//! FACTION trains with the total loss of paper Eq. (9):
//! `L_total = L_CE + μ (L_fair − ε)`. The cross-entropy part lives here; the
//! fairness part needs the fairness notion from `faction-fairness`, so the
//! training loop accepts any [`BatchLoss`] implementation and `faction-core`
//! supplies the regularized one. Both parts differentiate with respect to the
//! network logits, which is the only interface the backprop plumbing needs.

use faction_linalg::Matrix;

/// Per-batch metadata available to a loss function.
///
/// `labels` are class indices; `sensitive` holds the paper's `s ∈ {−1, +1}`
/// group encoding. Loss implementations that do not use the sensitive
/// attribute (plain cross-entropy) simply ignore it.
#[derive(Debug, Clone, Copy)]
pub struct BatchMeta<'a> {
    /// Ground-truth class index per row of the logits matrix.
    pub labels: &'a [usize],
    /// Sensitive attribute per row, encoded `−1` / `+1`.
    pub sensitive: &'a [i8],
}

/// A differentiable loss over a batch of logits.
///
/// `Send` is a supertrait so a boxed loss can live inside session state
/// that migrates across worker threads (the serve layer's session slots);
/// losses are plain numeric configuration, so this costs implementors
/// nothing.
pub trait BatchLoss: Send {
    /// Writes `dL/dlogits` for the batch into `grad` (reshaped to the
    /// logits' shape) and returns the mean loss. Intermediates live in
    /// `scratch`, so once `grad` and `scratch` have reached the batch shape
    /// a call allocates nothing.
    fn loss_grad_into(
        &self,
        logits: &Matrix,
        meta: &BatchMeta<'_>,
        scratch: &mut LossScratch,
        grad: &mut Matrix,
    ) -> f64;

    /// `(mean loss, dL/dlogits)` in fresh buffers: [`BatchLoss::loss_grad_into`]
    /// for tests and one-off evaluation.
    fn loss_and_grad(&self, logits: &Matrix, meta: &BatchMeta<'_>) -> (f64, Matrix) {
        let mut grad = Matrix::default();
        (self.loss_grad_into(logits, meta, &mut LossScratch::default(), &mut grad), grad)
    }
}

/// Reusable intermediates of a [`BatchLoss`], each computed once per call:
/// the softmax probabilities, and for the fairness losses the classifier
/// outputs `h`, the fairness coefficients `dL_fair/dh` and the per-group
/// values. Buffers grow to the high-water batch size and are reused after.
#[derive(Debug, Clone, Default)]
pub struct LossScratch {
    /// Row-wise softmax of the logits.
    pub probs: Matrix,
    /// Per-row classifier output `h_i` (the positive-class probability).
    pub h: Vec<f64>,
    /// Per-row fairness coefficient `dL_fair/dh_i`.
    pub dh: Vec<f64>,
    /// `(group, v_g)` fairness values of a multi-group loss.
    pub groups: Vec<(i8, f64)>,
}

/// Row-wise numerically stable softmax.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_in_place(&mut out);
    out
}

/// Row-wise numerically stable softmax applied in place — the
/// allocation-free core shared by [`softmax`] and the workspace-based
/// prediction paths.
pub fn softmax_in_place(out: &mut Matrix) {
    for r in 0..out.rows() {
        softmax_row(out.row_mut(r));
    }
}

/// Softmax of one row in place. Returns the row maximum and the sum of
/// `exp(v − max)` it normalized by, from which the row's log-sum-exp
/// follows without a second pass of `exp`.
///
/// An entry equal to a finite maximum maps to `exp(+0.0)`, exactly `1.0`,
/// so it skips the `exp` call (half of them for two classes). A row whose
/// maximum is infinite keeps the call, and with it the NaN that
/// `∞ − ∞` gives.
fn softmax_row(row: &mut [f64]) -> (f64, f64) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = if *v == max && max.is_finite() { 1.0 } else { (*v - max).exp() };
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
    (max, sum)
}

/// Row-wise log-softmax (stable).
pub fn log_softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let lse = faction_linalg::vector::logsumexp(row);
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
    out
}

/// Shannon entropy (nats) of each softmax row — the classic uncertainty
/// measure used by the Entropy-AL baseline (paper Sec. V-A2).
pub fn entropy_per_row(probs: &Matrix) -> Vec<f64> {
    probs
        .iter_rows()
        .map(|row| {
            -row.iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| p * p.ln())
                .sum::<f64>()
        })
        .collect()
}

/// The cross-entropy part every [`BatchLoss`] here shares: writes the
/// softmax of `logits` into `probs` and `(probs − onehot(labels)) / n` into
/// `grad` (both reshaped), and returns the mean cross-entropy.
///
/// Each row's log-softmax entry at its label is `logit − lse`, with the
/// log-sum-exp rebuilt from the softmax's own max and exp-sum: the same
/// operations, in the same order, as [`faction_linalg::vector::logsumexp`]
/// (whose `Sum` of positive terms equals the softmax's running sum), so
/// the value matches [`log_softmax`] bit for bit.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()`.
pub fn cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    probs: &mut Matrix,
    grad: &mut Matrix,
) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "cross-entropy batch mismatch");
    let (rows, cols) = logits.shape();
    let n = rows.max(1) as f64;
    probs.reshape_for_overwrite(rows, cols);
    probs.as_mut_slice().copy_from_slice(logits.as_slice());
    grad.reshape_for_overwrite(rows, cols);
    let mut loss = 0.0;
    for (r, &y) in labels.iter().enumerate() {
        let (max, sum) = softmax_row(probs.row_mut(r));
        let lse = if max == f64::NEG_INFINITY { f64::NEG_INFINITY } else { max + sum.ln() };
        loss -= logits.get(r, y) - lse;
        let g = grad.row_mut(r);
        g.copy_from_slice(probs.row(r));
        g[y] -= 1.0;
    }
    grad.scale(1.0 / n);
    loss / n
}

/// Plain mean cross-entropy over the batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl CrossEntropyLoss {
    /// Mean cross-entropy of `logits` against `labels` without computing the
    /// gradient (evaluation helper).
    pub fn loss(&self, logits: &Matrix, labels: &[usize]) -> f64 {
        assert_eq!(logits.rows(), labels.len(), "cross-entropy batch mismatch");
        let logp = log_softmax(logits);
        let n = labels.len().max(1) as f64;
        -labels
            .iter()
            .enumerate()
            .map(|(r, &y)| logp.get(r, y))
            .sum::<f64>()
            / n
    }
}

impl BatchLoss for CrossEntropyLoss {
    fn loss_grad_into(
        &self,
        logits: &Matrix,
        meta: &BatchMeta<'_>,
        scratch: &mut LossScratch,
        grad: &mut Matrix,
    ) -> f64 {
        cross_entropy_into(logits, meta.labels, &mut scratch.probs, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]).unwrap();
        let p = softmax(&logits);
        for r in 0..2 {
            assert!(close(p.row(r).iter().sum::<f64>(), 1.0));
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_huge_logits() {
        let logits = Matrix::from_rows(&[vec![1e4, 1e4 + 1.0]]).unwrap();
        let p = softmax(&logits);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!(close(p.row(0).iter().sum::<f64>(), 1.0));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let logits = Matrix::from_rows(&[vec![0.3, -1.2, 2.0]]).unwrap();
        let lp = log_softmax(&logits);
        let p = softmax(&logits);
        for c in 0..3 {
            assert!(close(lp.get(0, c), p.get(0, c).ln()));
        }
    }

    #[test]
    fn entropy_uniform_is_log_k() {
        let p = Matrix::from_rows(&[vec![0.5, 0.5], vec![1.0, 0.0]]).unwrap();
        let h = entropy_per_row(&p);
        assert!(close(h[0], 2f64.ln()));
        assert!(close(h[1], 0.0));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[vec![20.0, -20.0]]).unwrap();
        let (loss, _) = CrossEntropyLoss.loss_and_grad(
            &logits,
            &BatchMeta { labels: &[0], sensitive: &[1] },
        );
        assert!(loss < 1e-8, "loss {loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        let (loss, _) =
            CrossEntropyLoss.loss_and_grad(&logits, &BatchMeta { labels: &[1], sensitive: &[1] });
        assert!(close(loss, 2f64.ln()));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.25, 1.0], vec![-1.0, 0.0, 0.75]]).unwrap();
        let labels = [2usize, 0usize];
        let meta = BatchMeta { labels: &labels, sensitive: &[1, -1] };
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &meta);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let fp = CrossEntropyLoss.loss(&lp, &labels);
                let fm = CrossEntropyLoss.loss(&lm, &labels);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-6,
                    "grad[{r}][{c}] numeric {numeric} vs {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn cross_entropy_into_matches_the_log_softmax_form_bitwise() {
        // The two-pass formulation: a softmax for the gradient and a
        // separate log-softmax for the loss.
        fn reference(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
            let n = logits.rows().max(1) as f64;
            let logp = log_softmax(logits);
            let mut grad = softmax(logits);
            let mut loss = 0.0;
            for (r, &y) in labels.iter().enumerate() {
                loss -= logp.get(r, y);
                let v = grad.get(r, y);
                grad.set(r, y, v - 1.0);
            }
            grad.scale(1.0 / n);
            (loss / n, grad)
        }
        let mut rng = faction_linalg::SeedRng::new(31);
        let (mut probs, mut grad) = (Matrix::default(), Matrix::default());
        for &(rows, cols, spread) in &[(64, 2, 4.0), (7, 3, 40.0), (1, 5, 700.0)] {
            let data = (0..rows * cols).map(|_| rng.uniform_range(-spread, spread)).collect();
            let logits = Matrix::from_vec(rows, cols, data).unwrap();
            let labels: Vec<usize> = (0..rows).map(|r| (r * 7 + 1) % cols).collect();
            let (want_loss, want_grad) = reference(&logits, &labels);
            let loss = cross_entropy_into(&logits, &labels, &mut probs, &mut grad);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{rows}x{cols}");
            assert!(grad.as_slice().iter().zip(want_grad.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(probs, softmax(&logits));
        }
        // A tied maximum (both entries skip `exp`) and an all-`−∞` row,
        // whose infinite maximum keeps the `exp` call and its NaN.
        let inf = f64::NEG_INFINITY;
        for (row, label) in [(vec![0.75, 0.75, -2.0], 2), (vec![inf, inf], 0)] {
            let logits = Matrix::from_rows(std::slice::from_ref(&row)).unwrap();
            let (want_loss, want_grad) = reference(&logits, &[label]);
            let loss = cross_entropy_into(&logits, &[label], &mut probs, &mut grad);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{row:?}");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&want_grad), "{row:?}");
            assert_eq!(bits(&probs), bits(&softmax(&logits)), "{row:?}");
        }
        let tied = softmax(&Matrix::from_rows(&[vec![0.75, 0.75]]).unwrap());
        assert_eq!(tied.row(0), &[0.5, 0.5]);
        let all_inf = softmax(&Matrix::from_rows(&[vec![inf, inf]]).unwrap());
        assert!(all_inf.row(0).iter().all(|p| p.is_nan()));
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // d/dlogits of CE always sums to zero across classes per row.
        let logits = Matrix::from_rows(&[vec![0.1, 0.9, -0.4]]).unwrap();
        let (_, grad) =
            CrossEntropyLoss.loss_and_grad(&logits, &BatchMeta { labels: &[1], sensitive: &[1] });
        assert!(close(grad.row(0).iter().sum::<f64>(), 0.0));
    }
}
