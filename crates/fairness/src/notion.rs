//! The relaxed linear fairness notion of Definition 1 / Eq. (1).
//!
//! For classifier outputs `h_i ∈ ℝ` (this reproduction uses the softmax
//! probability of the positive class) and sensitive attributes
//! `s_i ∈ {−1, +1}`:
//!
//! ```text
//! v(D, θ) = E[ ((s+1)/2 − p̂₁) · h / (p̂₁ (1 − p̂₁)) ]
//! ```
//!
//! With `p̂₁ = P(s = 1)` this equals the difference of group-mean outputs
//! `E[h | s=1] − E[h | s=−1]` — the relaxed **DDP**. Restricting the
//! expectation to positively labeled samples with `p̂₁ = P(s=1 | y=1)` gives
//! the relaxed **DEO** (difference of equality of opportunity). Crucially,
//! `v` is *linear* in the outputs `h`, so its gradient with respect to each
//! `h_i` is a constant coefficient — which is what makes the fairness
//! regularizer of Eq. (9) trivially differentiable through any network.

/// Which group-fairness notion `v` instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessNotion {
    /// Difference of demographic parity: prediction independence from `s`
    /// over the whole population.
    DemographicParity,
    /// Difference of equality of opportunity: prediction independence from
    /// `s` among positively labeled (`y = 1`) samples.
    EqualOpportunity,
}

/// Evaluator for the relaxed fairness notion.
#[derive(Debug, Clone, Copy)]
pub struct RelaxedFairness {
    notion: FairnessNotion,
}

impl RelaxedFairness {
    /// Creates an evaluator for the chosen notion.
    pub fn new(notion: FairnessNotion) -> Self {
        RelaxedFairness { notion }
    }

    /// The notion this evaluator computes.
    pub fn notion(&self) -> FairnessNotion {
        self.notion
    }

    /// Per-sample coefficients `c_i = ∂v/∂h_i`.
    ///
    /// `labels` is required for [`FairnessNotion::EqualOpportunity`] (the
    /// expectation is restricted to `y = 1`) and ignored for demographic
    /// parity. Degenerate batches — one group empty, so `p̂₁ ∈ {0, 1}` —
    /// yield all-zero coefficients: with a single group present there is no
    /// disparity to measure and the regularizer must vanish rather than blow
    /// up through the `1/(p̂₁(1−p̂₁))` factor.
    ///
    /// # Panics
    /// Panics if `labels` is needed but absent, or lengths disagree.
    pub fn coefficients(&self, sensitive: &[i8], labels: Option<&[usize]>) -> Vec<f64> {
        let mut out = Vec::with_capacity(sensitive.len());
        self.coefficients_into(sensitive, labels, &mut out);
        out
    }

    /// [`RelaxedFairness::coefficients`] into a caller buffer (cleared and
    /// refilled; allocates only while it grows).
    ///
    /// # Panics
    /// As [`RelaxedFairness::coefficients`].
    pub fn coefficients_into(
        &self,
        sensitive: &[i8],
        labels: Option<&[usize]>,
        out: &mut Vec<f64>,
    ) {
        let n = sensitive.len();
        let labels = match self.notion {
            FairnessNotion::DemographicParity => None,
            FairnessNotion::EqualOpportunity => {
                // analyzer:allow(unwrap-in-lib): documented panic contract (see `# Panics` above)
                let labels = labels.expect("EqualOpportunity requires labels");
                assert_eq!(labels.len(), n, "labels length mismatch");
                Some(labels)
            }
        };
        // Whether sample i is inside the notion's expectation.
        let counted = |i: usize| match labels {
            None => true,
            Some(l) => l[i] == 1,
        };
        out.clear();
        let m = (0..n).filter(|&i| counted(i)).count();
        let positives = (0..n).filter(|&i| counted(i) && sensitive[i] == 1).count();
        let p1 = if m == 0 { 0.0 } else { positives as f64 / m as f64 };
        if p1 <= 0.0 || p1 >= 1.0 {
            out.resize(n, 0.0);
            return;
        }
        let denom = p1 * (1.0 - p1) * m as f64;
        out.extend(sensitive.iter().enumerate().map(|(i, &s)| {
            if !counted(i) {
                0.0
            } else {
                ((f64::from(s) + 1.0) / 2.0 - p1) / denom
            }
        }));
    }

    /// Evaluates `v = Σ_i c_i h_i`.
    ///
    /// # Panics
    /// Panics on length mismatches or a missing `labels` for DEO.
    pub fn value(&self, outputs: &[f64], sensitive: &[i8], labels: Option<&[usize]>) -> f64 {
        assert_eq!(outputs.len(), sensitive.len(), "outputs/sensitive length mismatch");
        let coeffs = self.coefficients(sensitive, labels);
        coeffs.iter().zip(outputs).map(|(c, h)| c * h).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn ddp_equals_group_mean_difference() {
        let outputs = [0.9, 0.8, 0.2, 0.4, 0.6, 0.1];
        let sensitive = [1i8, 1, 1, -1, -1, -1];
        let v = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .value(&outputs, &sensitive, None);
        let mean_pos = (0.9 + 0.8 + 0.2) / 3.0;
        let mean_neg = (0.4 + 0.6 + 0.1) / 3.0;
        assert!(close(v, mean_pos - mean_neg), "v {v}");
    }

    #[test]
    fn ddp_zero_for_identical_groups() {
        let outputs = [0.7, 0.3, 0.7, 0.3];
        let sensitive = [1i8, 1, -1, -1];
        let v = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .value(&outputs, &sensitive, None);
        assert!(close(v, 0.0));
    }

    #[test]
    fn ddp_degenerate_single_group_is_zero() {
        let outputs = [0.9, 0.1];
        let sensitive = [1i8, 1];
        let v = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .value(&outputs, &sensitive, None);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn deo_restricts_to_positive_labels() {
        // Group gap exists only among y=0 samples; DEO must ignore it.
        let outputs = [1.0, 0.0, 0.5, 0.5];
        let sensitive = [1i8, -1, 1, -1];
        let labels = [0usize, 0, 1, 1];
        let deo = RelaxedFairness::new(FairnessNotion::EqualOpportunity)
            .value(&outputs, &sensitive, Some(&labels));
        assert!(close(deo, 0.0), "deo {deo}");
        // And DDP on the same batch is non-zero.
        let ddp = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .value(&outputs, &sensitive, None);
        assert!(ddp.abs() > 0.1);
    }

    #[test]
    fn deo_detects_positive_label_gap() {
        let outputs = [0.9, 0.2, 0.9, 0.2];
        let sensitive = [1i8, -1, 1, -1];
        let labels = [1usize, 1, 1, 1];
        let deo = RelaxedFairness::new(FairnessNotion::EqualOpportunity)
            .value(&outputs, &sensitive, Some(&labels));
        assert!(close(deo, 0.7), "deo {deo}");
    }

    #[test]
    fn deo_no_positive_labels_is_zero() {
        let outputs = [0.9, 0.2];
        let sensitive = [1i8, -1];
        let labels = [0usize, 0];
        let deo = RelaxedFairness::new(FairnessNotion::EqualOpportunity)
            .value(&outputs, &sensitive, Some(&labels));
        assert_eq!(deo, 0.0);
    }

    #[test]
    fn coefficients_are_gradient_of_value() {
        // v is linear: v(h + εe_i) − v(h) = ε c_i exactly.
        let sensitive = [1i8, -1, 1, -1, -1];
        let fairness = RelaxedFairness::new(FairnessNotion::DemographicParity);
        let coeffs = fairness.coefficients(&sensitive, None);
        let h0 = [0.5, 0.2, 0.8, 0.9, 0.1];
        let v0 = fairness.value(&h0, &sensitive, None);
        for i in 0..h0.len() {
            let mut h = h0;
            h[i] += 1.0;
            let v1 = fairness.value(&h, &sensitive, None);
            assert!(close(v1 - v0, coeffs[i]), "coefficient {i}");
        }
    }

    #[test]
    fn coefficients_sum_to_zero() {
        // Σ c_i = 0 guarantees v is invariant to constant output shifts.
        let sensitive = [1i8, 1, -1, -1, -1, 1];
        let coeffs = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .coefficients(&sensitive, None);
        assert!(close(coeffs.iter().sum::<f64>(), 0.0));
    }

    #[test]
    fn sign_tracks_advantaged_group() {
        let outputs = [1.0, 0.0];
        let v_pos = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .value(&outputs, &[1, -1], None);
        let v_neg = RelaxedFairness::new(FairnessNotion::DemographicParity)
            .value(&outputs, &[-1, 1], None);
        assert!(v_pos > 0.0);
        assert!(v_neg < 0.0);
        assert!(close(v_pos, -v_neg));
    }

    #[test]
    #[should_panic(expected = "requires labels")]
    fn deo_without_labels_panics() {
        RelaxedFairness::new(FairnessNotion::EqualOpportunity).coefficients(&[1, -1], None);
    }
}
