//! The fairness-regularized loss of Eqs. (8)–(9).
//!
//! `L_fair = [v(D, θ)]₊` (Eq. 8) and `L_total = L_CE + μ (L_fair − ε)`
//! (Eq. 9). The cross-entropy part lives in `faction-nn`; this module
//! provides the fairness penalty's value and its derivative with respect to
//! the scalar `v`, which — because `v` is linear in the classifier outputs —
//! is all a backprop engine needs.
//!
//! The paper states the strict constraint as `v = 0` (Sec. IV-A), i.e. both
//! directions of disparity are violations, while Eq. (8) writes the one-sided
//! hinge `[v]₊`. We default to the **symmetric** penalty `|v|`, which
//! penalizes disparity toward either group (and matches the reference
//! implementation's use of DDP magnitude); the literal one-sided hinge is
//! available via [`FairnessPenalty::OneSided`] and exercised in the ablation
//! benches.

use crate::notion::{FairnessNotion, RelaxedFairness};

/// How the scalar fairness value `v` is turned into a penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessPenalty {
    /// `L_fair = |v|` — penalize disparity toward either group (default).
    #[default]
    Symmetric,
    /// `L_fair = [v]₊` — the literal Eq. (8) hinge.
    OneSided,
}

impl FairnessPenalty {
    /// Penalty value for a given `v`.
    pub fn value(&self, v: f64) -> f64 {
        match self {
            FairnessPenalty::Symmetric => v.abs(),
            FairnessPenalty::OneSided => v.max(0.0),
        }
    }

    /// Subgradient `dL_fair/dv`.
    pub fn derivative(&self, v: f64) -> f64 {
        match self {
            FairnessPenalty::Symmetric => {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            FairnessPenalty::OneSided => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Configuration of the total loss `L_total = L_CE + μ (L_fair − ε)`.
#[derive(Debug, Clone, Copy)]
pub struct TotalLossConfig {
    /// Fairness–accuracy trade-off weight `μ` (Eq. 9). The paper tunes it
    /// in `{0.1, …, 3}` and sweeps `{0.3, 0.5, 0.7, 1.4, 2.8}` in Fig. 3.
    pub mu: f64,
    /// Constraint slack `ε` (Eq. 9), tuned in `{1e-4, …, 0.5}`.
    pub epsilon: f64,
    /// Which relaxed notion `v` instantiates (the paper uses DDP).
    pub notion: FairnessNotion,
    /// Penalty shape (see [`FairnessPenalty`]).
    pub penalty: FairnessPenalty,
}

impl Default for TotalLossConfig {
    fn default() -> Self {
        TotalLossConfig {
            mu: 0.4,
            epsilon: 0.02,
            notion: FairnessNotion::DemographicParity,
            penalty: FairnessPenalty::Symmetric,
        }
    }
}

impl TotalLossConfig {
    /// The fairness term `μ (L_fair − ε)` for a batch of classifier outputs.
    ///
    /// Returns the term's value and writes `dTerm/dh`, one entry per output,
    /// into `grad` (cleared and refilled; allocates only while it grows).
    /// The `−ε` offset is a constant and does not contribute to the
    /// gradient; it only shifts the reported loss, matching Eq. (9).
    pub fn fairness_term(
        &self,
        outputs: &[f64],
        sensitive: &[i8],
        labels: Option<&[usize]>,
        grad: &mut Vec<f64>,
    ) -> f64 {
        RelaxedFairness::new(self.notion).coefficients_into(sensitive, labels, grad);
        let v: f64 = grad.iter().zip(outputs).map(|(c, h)| c * h).sum();
        let dv = self.mu * self.penalty.derivative(v);
        for c in grad.iter_mut() {
            *c *= dv;
        }
        self.mu * (self.penalty.value(v) - self.epsilon)
    }

    /// The raw relaxed fairness value `v` for a batch (diagnostics and the
    /// cumulative-violation accounting of Theorem 1, part 3).
    pub fn fairness_value(
        &self,
        outputs: &[f64],
        sensitive: &[i8],
        labels: Option<&[usize]>,
    ) -> f64 {
        RelaxedFairness::new(self.notion).value(outputs, sensitive, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    fn term(cfg: &TotalLossConfig, outputs: &[f64], sensitive: &[i8]) -> (f64, Vec<f64>) {
        let mut grad = Vec::new();
        (cfg.fairness_term(outputs, sensitive, None, &mut grad), grad)
    }

    #[test]
    fn penalty_values() {
        assert_eq!(FairnessPenalty::Symmetric.value(-0.4), 0.4);
        assert_eq!(FairnessPenalty::Symmetric.value(0.4), 0.4);
        assert_eq!(FairnessPenalty::OneSided.value(-0.4), 0.0);
        assert_eq!(FairnessPenalty::OneSided.value(0.4), 0.4);
    }

    #[test]
    fn penalty_derivatives() {
        assert_eq!(FairnessPenalty::Symmetric.derivative(-0.4), -1.0);
        assert_eq!(FairnessPenalty::Symmetric.derivative(0.4), 1.0);
        assert_eq!(FairnessPenalty::Symmetric.derivative(0.0), 0.0);
        assert_eq!(FairnessPenalty::OneSided.derivative(-0.4), 0.0);
        assert_eq!(FairnessPenalty::OneSided.derivative(0.4), 1.0);
    }

    #[test]
    fn fairness_term_gradient_matches_finite_difference() {
        let cfg = TotalLossConfig { mu: 1.3, epsilon: 0.05, ..Default::default() };
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
        let base = TotalLossConfig { mu: 1.0, epsilon: 0.0, ..Default::default() };
        let double = TotalLossConfig { mu: 2.0, epsilon: 0.0, ..Default::default() };
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
    fn one_sided_ignores_negative_disparity() {
        let cfg = TotalLossConfig {
            penalty: FairnessPenalty::OneSided,
            epsilon: 0.0,
            mu: 1.0,
            ..Default::default()
        };
        // Disadvantaged s=+1 group: v < 0.
        let (value, grad) = term(&cfg, &[0.1, 0.9], &[1, -1]);
        assert!(close(value, 0.0));
        assert!(grad.iter().all(|g| close(*g, 0.0)));
    }

    #[test]
    fn fairness_value_reports_raw_v() {
        let cfg = TotalLossConfig::default();
        let v = cfg.fairness_value(&[1.0, 0.0], &[1, -1], None);
        assert!(close(v, 1.0));
    }
}
