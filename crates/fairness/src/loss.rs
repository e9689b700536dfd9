//! The relaxed fairness notion of Eq. (1) and the fairness-regularized loss
//! of Eqs. (8)–(9).
//!
//! For classifier outputs `h_i ∈ ℝ` (this reproduction uses the softmax
//! probability of the positive class) and sensitive attributes `s_i`, the
//! relaxed **DDP** of Definition 1 (Lohaus et al., "Too Relaxed to Be Fair")
//! is
//!
//! ```text
//! v(D, θ) = E[ (𝟙[s = 1] − p̂₁) · h / (p̂₁ (1 − p̂₁)) ],   p̂₁ = P(s = 1)
//! ```
//!
//! which equals the difference of group-mean outputs
//! `E[h | s=1] − E[h | s≠1]`. The paper writes the indicator as `(s+1)/2`
//! for `s ∈ {−1, +1}`; `𝟙[s = 1]` is the same number on those codes and
//! stays right for the `{0, 1}` coding of `faction_data::multigroup`.
//! Crucially, `v` is *linear* in the outputs `h`, so its gradient with
//! respect to each `h_i` is a constant coefficient — which is what makes
//! the fairness regularizer trivially differentiable through any network.
//!
//! The total loss is `L_total = L_CE + μ (|v| − ε)` (Eq. 9). The
//! cross-entropy part lives in `faction-nn`; this module provides the
//! fairness term's value and its derivative with respect to the outputs.
//!
//! The paper states the strict constraint as `v = 0` (Sec. IV-A), i.e. both
//! directions of disparity are violations, while Eq. (8) writes the
//! one-sided hinge `[v]₊`. Training uses the **symmetric** penalty `|v|`,
//! which penalizes disparity toward either group and matches the reference
//! implementation's use of DDP magnitude; the hinge would leave a model that
//! favors the `s ≠ 1` group unpenalized.

/// Configuration of the total loss `L_total = L_CE + μ (|v| − ε)`.
#[derive(Debug, Clone, Copy)]
pub struct TotalLossConfig {
    /// Fairness–accuracy trade-off weight `μ` (Eq. 9). The paper tunes it
    /// in `{0.1, …, 3}` and sweeps `{0.3, 0.5, 0.7, 1.4, 2.8}` in Fig. 3.
    pub mu: f64,
    /// Constraint slack `ε` (Eq. 9), tuned in `{1e-4, …, 0.5}`.
    pub epsilon: f64,
}

impl Default for TotalLossConfig {
    fn default() -> Self {
        TotalLossConfig { mu: 0.4, epsilon: 0.02 }
    }
}

impl TotalLossConfig {
    /// The fairness term `μ (|v| − ε)` for a batch of classifier outputs.
    ///
    /// Returns the term's value and writes `dTerm/dh`, one entry per output,
    /// into `grad` (cleared and refilled; allocates only while it grows).
    /// The `−ε` offset is a constant and does not contribute to the
    /// gradient; it only shifts the reported loss, matching Eq. (9).
    pub fn fairness_term(&self, outputs: &[f64], sensitive: &[i8], grad: &mut Vec<f64>) -> f64 {
        relaxed_ddp_coefficients_into(sensitive, grad);
        let v: f64 = grad.iter().zip(outputs).map(|(c, h)| c * h).sum();
        let dv = self.mu * sign(v);
        for c in grad.iter_mut() {
            *c *= dv;
        }
        self.mu * (v.abs() - self.epsilon)
    }

    /// The raw relaxed DDP `v` for a batch (diagnostics and the
    /// cumulative-violation accounting of Theorem 1, part 3).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn fairness_value(&self, outputs: &[f64], sensitive: &[i8]) -> f64 {
        assert_eq!(outputs.len(), sensitive.len(), "outputs/sensitive length mismatch");
        let mut coeffs = Vec::with_capacity(sensitive.len());
        relaxed_ddp_coefficients_into(sensitive, &mut coeffs);
        coeffs.iter().zip(outputs).map(|(c, h)| c * h).sum()
    }
}

/// Subgradient of `|v|`: the sign of `v`, and `0` at the kink.
fn sign(v: f64) -> f64 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Per-sample coefficients `c_i = ∂v/∂h_i` of the relaxed DDP, into `out`
/// (cleared and refilled; allocates only while it grows).
///
/// Degenerate batches — one group empty, so `p̂₁ ∈ {0, 1}` — yield all-zero
/// coefficients: with a single group present there is no disparity to
/// measure and the regularizer must vanish rather than blow up through the
/// `1/(p̂₁(1−p̂₁))` factor.
fn relaxed_ddp_coefficients_into(sensitive: &[i8], out: &mut Vec<f64>) {
    let n = sensitive.len();
    out.clear();
    let positives = sensitive.iter().filter(|&&s| s == 1).count();
    let p1 = if n == 0 { 0.0 } else { positives as f64 / n as f64 };
    if p1 <= 0.0 || p1 >= 1.0 {
        out.resize(n, 0.0);
        return;
    }
    let denom = p1 * (1.0 - p1) * n as f64;
    out.extend(sensitive.iter().map(|&s| {
        let in_group = if s == 1 { 1.0 } else { 0.0 };
        (in_group - p1) / denom
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    fn term(cfg: &TotalLossConfig, outputs: &[f64], sensitive: &[i8]) -> (f64, Vec<f64>) {
        let mut grad = Vec::new();
        (cfg.fairness_term(outputs, sensitive, &mut grad), grad)
    }

    fn value(outputs: &[f64], sensitive: &[i8]) -> f64 {
        TotalLossConfig::default().fairness_value(outputs, sensitive)
    }

    fn coefficients(sensitive: &[i8]) -> Vec<f64> {
        let mut out = Vec::new();
        relaxed_ddp_coefficients_into(sensitive, &mut out);
        out
    }

    #[test]
    fn ddp_equals_group_mean_difference() {
        let outputs = [0.9, 0.8, 0.2, 0.4, 0.6, 0.1];
        let sensitive = [1i8, 1, 1, -1, -1, -1];
        let v = value(&outputs, &sensitive);
        let mean_pos = (0.9 + 0.8 + 0.2) / 3.0;
        let mean_neg = (0.4 + 0.6 + 0.1) / 3.0;
        assert!(close(v, mean_pos - mean_neg), "v {v}");
    }

    #[test]
    fn ddp_zero_for_identical_groups() {
        let v = value(&[0.7, 0.3, 0.7, 0.3], &[1, 1, -1, -1]);
        assert!(close(v, 0.0));
    }

    #[test]
    fn ddp_degenerate_single_group_is_zero() {
        assert_eq!(value(&[0.9, 0.1], &[1, 1]), 0.0);
    }

    #[test]
    fn coefficients_are_gradient_of_value() {
        // v is linear: v(h + εe_i) − v(h) = ε c_i exactly.
        let sensitive = [1i8, -1, 1, -1, -1];
        let coeffs = coefficients(&sensitive);
        let h0 = [0.5, 0.2, 0.8, 0.9, 0.1];
        let v0 = value(&h0, &sensitive);
        for i in 0..h0.len() {
            let mut h = h0;
            h[i] += 1.0;
            let v1 = value(&h, &sensitive);
            assert!(close(v1 - v0, coeffs[i]), "coefficient {i}");
        }
    }

    #[test]
    fn coefficients_sum_to_zero() {
        // Σ c_i = 0 guarantees v is invariant to constant output shifts.
        let coeffs = coefficients(&[1, 1, -1, -1, -1, 1]);
        assert!(close(coeffs.iter().sum::<f64>(), 0.0));
    }

    #[test]
    fn sign_tracks_advantaged_group() {
        let outputs = [1.0, 0.0];
        let v_pos = value(&outputs, &[1, -1]);
        let v_neg = value(&outputs, &[-1, 1]);
        assert!(v_pos > 0.0);
        assert!(v_neg < 0.0);
        assert!(close(v_pos, -v_neg));
    }

    #[test]
    fn zero_one_and_pm1_codings_agree() {
        // The same batch coded `{−1, +1}` (the paper) and `{0, 1}`
        // (`faction_data::multigroup`): the group indicator is `s == 1`, so
        // value and gradient agree bit for bit.
        let outputs = [0.9, 0.8, 0.2, 0.4, 0.6, 0.1, 0.7];
        let pm1 = [1i8, 1, -1, -1, 1, -1, -1];
        let zero_one: Vec<i8> = pm1.iter().map(|&s| i8::from(s == 1)).collect();
        let cfg = TotalLossConfig { mu: 1.3, epsilon: 0.05 };
        let bits = |sensitive: &[i8]| {
            let (value, grad) = term(&cfg, &outputs, sensitive);
            let grad: Vec<u64> = grad.iter().map(|g| g.to_bits()).collect();
            (value.to_bits(), grad, cfg.fairness_value(&outputs, sensitive).to_bits())
        };
        assert_eq!(bits(&pm1), bits(&zero_one));
    }

    #[test]
    fn penalty_is_the_magnitude_of_v() {
        // |v| penalizes disparity toward either group alike.
        let cfg = TotalLossConfig { mu: 1.0, epsilon: 0.0 };
        let outputs = [0.9, 0.3];
        let (toward_pos, _) = term(&cfg, &outputs, &[1, -1]);
        let (toward_neg, _) = term(&cfg, &outputs, &[-1, 1]);
        assert!(close(toward_pos, 0.6));
        assert!(close(toward_neg, 0.6));
    }

    #[test]
    fn penalty_gradient_follows_the_sign_of_v() {
        let cfg = TotalLossConfig { mu: 1.0, epsilon: 0.0 };
        let sensitive = [1i8, -1];
        let coeffs = coefficients(&sensitive);
        let (_, g_pos) = term(&cfg, &[0.9, 0.3], &sensitive);
        let (_, g_neg) = term(&cfg, &[0.3, 0.9], &sensitive);
        let (_, g_kink) = term(&cfg, &[0.5, 0.5], &sensitive);
        for i in 0..coeffs.len() {
            assert_eq!(g_pos[i], coeffs[i]);
            assert_eq!(g_neg[i], -coeffs[i]);
            assert_eq!(g_kink[i], 0.0);
        }
    }

    #[test]
    fn fairness_term_gradient_matches_finite_difference() {
        let cfg = TotalLossConfig { mu: 1.3, epsilon: 0.05 };
        let sensitive = [1i8, -1, 1, -1];
        let outputs = [0.8, 0.1, 0.7, 0.4];
        let (_, grad) = term(&cfg, &outputs, &sensitive);
        let eps = 1e-7;
        for i in 0..outputs.len() {
            let mut hp = outputs;
            hp[i] += eps;
            let mut hm = outputs;
            hm[i] -= eps;
            let (fp, _) = term(&cfg, &hp, &sensitive);
            let (fm, _) = term(&cfg, &hm, &sensitive);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-6,
                "grad[{i}] numeric {numeric} analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn epsilon_shifts_value_not_gradient() {
        let sensitive = [1i8, -1];
        let outputs = [0.9, 0.1];
        let a = TotalLossConfig { epsilon: 0.0, ..Default::default() };
        let b = TotalLossConfig { epsilon: 0.3, ..Default::default() };
        let (va, ga) = term(&a, &outputs, &sensitive);
        let (vb, gb) = term(&b, &outputs, &sensitive);
        assert!(close(va - vb, a.mu * 0.3));
        assert_eq!(ga, gb);
    }

    #[test]
    fn mu_scales_both_value_and_gradient() {
        let sensitive = [1i8, -1];
        let outputs = [0.9, 0.1];
        let base = TotalLossConfig { mu: 1.0, epsilon: 0.0 };
        let double = TotalLossConfig { mu: 2.0, epsilon: 0.0 };
        let (v1, g1) = term(&base, &outputs, &sensitive);
        let (v2, g2) = term(&double, &outputs, &sensitive);
        assert!(close(v2, 2.0 * v1));
        for (a, b) in g1.iter().zip(&g2) {
            assert!(close(2.0 * a, *b));
        }
    }

    #[test]
    fn fair_batch_has_zero_gradient() {
        let cfg = TotalLossConfig::default();
        let sensitive = [1i8, -1, 1, -1];
        let outputs = [0.5, 0.5, 0.5, 0.5];
        let (value, grad) = term(&cfg, &outputs, &sensitive);
        assert!(close(value, -cfg.mu * cfg.epsilon));
        assert!(grad.iter().all(|g| close(*g, 0.0)));
    }

    #[test]
    fn fairness_value_reports_raw_v() {
        assert!(close(value(&[1.0, 0.0], &[1, -1]), 1.0));
    }
}
