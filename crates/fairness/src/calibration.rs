//! Group-wise calibration diagnostics.
//!
//! The fair-online-learning literature the paper builds on (Chzhen et al.
//! \[59]) treats **group-wise calibration** — predicted probabilities meaning
//! the same thing for every sensitive group — as a first-class fairness
//! criterion alongside demographic parity. These diagnostics make the
//! criterion measurable for any probabilistic classifier in the system:
//! per-group reliability curves, expected calibration error (ECE), and
//! Brier scores.

/// A reliability curve: per confidence bin, the mean predicted probability
/// and the empirical positive rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityBin {
    /// Mean predicted positive-class probability in the bin.
    pub mean_confidence: f64,
    /// Empirical fraction of positives in the bin.
    pub empirical_rate: f64,
    /// Number of samples in the bin.
    pub count: usize,
}

/// Bins predictions by confidence and compares to empirical outcomes.
///
/// `probs` are positive-class probabilities; `labels` are `{0, 1}`.
/// Returns `bins` equal-width bins over `[0, 1]`; empty bins are omitted.
///
/// # Panics
/// Panics on length mismatch or `bins == 0`.
pub fn reliability_curve(probs: &[f64], labels: &[usize], bins: usize) -> Vec<ReliabilityBin> {
    assert_eq!(probs.len(), labels.len(), "probs/labels length mismatch");
    assert!(bins > 0, "need at least one bin");
    let mut sums = vec![(0.0f64, 0.0f64, 0usize); bins];
    for (&p, &y) in probs.iter().zip(labels) {
        let b = ((p.clamp(0.0, 1.0) * bins as f64) as usize).min(bins - 1);
        sums[b].0 += p;
        sums[b].1 += (y.min(1)) as f64;
        sums[b].2 += 1;
    }
    sums.into_iter()
        .filter(|&(_, _, n)| n > 0)
        .map(|(conf, pos, n)| ReliabilityBin {
            mean_confidence: conf / n as f64,
            empirical_rate: pos / n as f64,
            count: n,
        })
        .collect()
}

/// Expected calibration error: the bin-count-weighted mean absolute gap
/// between confidence and empirical rate.
pub fn expected_calibration_error(probs: &[f64], labels: &[usize], bins: usize) -> f64 {
    let curve = reliability_curve(probs, labels, bins);
    let total: usize = curve.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    curve
        .iter()
        .map(|b| (b.count as f64 / total as f64) * (b.mean_confidence - b.empirical_rate).abs())
        .sum()
}

/// Brier score (mean squared error of the positive-class probability).
///
/// # Panics
/// Panics on length mismatch.
pub fn brier_score(probs: &[f64], labels: &[usize]) -> f64 {
    assert_eq!(probs.len(), labels.len(), "probs/labels length mismatch");
    if probs.is_empty() {
        return 0.0;
    }
    probs
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let t = y.min(1) as f64;
            (p - t) * (p - t)
        })
        .sum::<f64>()
        / probs.len() as f64
}

/// Group-calibration gap: the absolute difference of per-group ECEs — zero
/// when probabilities are equally trustworthy for both groups.
pub fn group_calibration_gap(
    probs: &[f64],
    labels: &[usize],
    sensitive: &[i8],
    bins: usize,
) -> f64 {
    assert_eq!(probs.len(), sensitive.len(), "probs/sensitive length mismatch");
    let split = |group_positive: bool| -> (Vec<f64>, Vec<usize>) {
        probs
            .iter()
            .zip(labels)
            .zip(sensitive)
            .filter(|&((_, _), &s)| (s > 0) == group_positive)
            .map(|((&p, &y), _)| (p, y))
            .unzip()
    };
    let (p_pos, y_pos) = split(true);
    let (p_neg, y_neg) = split(false);
    if p_pos.is_empty() || p_neg.is_empty() {
        return 0.0;
    }
    (expected_calibration_error(&p_pos, &y_pos, bins)
        - expected_calibration_error(&p_neg, &y_neg, bins))
    .abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn perfectly_calibrated_predictor() {
        // Probability 0.75 on a population that is positive 75% of the time.
        let probs = vec![0.75; 8];
        let labels = vec![1, 1, 1, 0, 1, 1, 1, 0];
        let ece = expected_calibration_error(&probs, &labels, 10);
        assert!(close(ece, 0.0), "ece {ece}");
    }

    #[test]
    fn overconfident_predictor_has_positive_ece() {
        let probs = vec![0.99; 4];
        let labels = vec![1, 0, 1, 0];
        let ece = expected_calibration_error(&probs, &labels, 10);
        assert!(close(ece, 0.49), "ece {ece}");
    }

    #[test]
    fn brier_score_extremes() {
        assert!(close(brier_score(&[1.0, 0.0], &[1, 0]), 0.0));
        assert!(close(brier_score(&[0.0, 1.0], &[1, 0]), 1.0));
        assert!(close(brier_score(&[0.5], &[1]), 0.25));
        assert_eq!(brier_score(&[], &[]), 0.0);
    }

    #[test]
    fn reliability_curve_bins_correctly() {
        let probs = [0.05, 0.15, 0.95, 0.85];
        let labels = [0, 0, 1, 1];
        let curve = reliability_curve(&probs, &labels, 10);
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[0].count, 1);
        assert!(close(curve[0].mean_confidence, 0.05));
        assert!(close(curve[0].empirical_rate, 0.0));
        let last = curve.last().unwrap();
        assert!(close(last.mean_confidence, 0.95));
        assert!(close(last.empirical_rate, 1.0));
    }

    #[test]
    fn group_gap_detects_one_sided_miscalibration() {
        // Group +1 calibrated, group −1 overconfident.
        let probs = [0.5, 0.5, 0.9, 0.9];
        let labels = [1, 0, 0, 0];
        let sens = [1i8, 1, -1, -1];
        let gap = group_calibration_gap(&probs, &labels, &sens, 5);
        assert!(gap > 0.8, "gap {gap}");
        // Same treatment → zero gap.
        let fair_probs = [0.5, 0.5, 0.5, 0.5];
        let fair_labels = [1, 0, 1, 0];
        assert!(close(group_calibration_gap(&fair_probs, &fair_labels, &sens, 5), 0.0));
    }

    #[test]
    fn group_gap_zero_when_group_missing() {
        assert_eq!(group_calibration_gap(&[0.9, 0.8], &[1, 0], &[1, 1], 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        reliability_curve(&[0.5], &[1, 0], 5);
    }
}
