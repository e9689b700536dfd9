//! Evaluation metrics (paper Sec. V-A1): accuracy, DDP, EOD, and mutual
//! information. Lower absolute value is better for all three fairness
//! metrics; higher is better for accuracy.
//!
//! Sensitive groups are arbitrary `i8` codes: the paper's binary attribute
//! `s ∈ {−1, +1}`, or a multi-valued one such as the seven FairFace races
//! as `0..7` (Sec. III-A: "This study considers a binary sensitive
//! attribute … but can extend to multi-valued sensitive attributes"). DDP
//! and EOD are the **maximum pairwise gap** across the groups present, the
//! standard multi-group reading of demographic parity and equalized odds,
//! and mutual information runs over the full joint distribution. With two
//! groups each reduces to the paper's binary definition.

use std::collections::BTreeMap;

use crate::multi::positive_rates;

/// Distinct group codes present, in sorted order.
fn groups_of(sensitive: &[i8]) -> Vec<i8> {
    let mut g: Vec<i8> = sensitive.to_vec();
    g.sort_unstable();
    g.dedup();
    g
}

/// Classification accuracy in `[0, 1]`. Returns `0.0` for empty input.
///
/// # Panics
/// Panics on length mismatch.
pub fn accuracy(preds: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "preds/labels length mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let hits = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    hits as f64 / preds.len() as f64
}

/// Difference of demographic parity over hard predictions: the largest
/// pairwise gap in positive-prediction rate,
/// `max_{g,g'} |P(ŷ=1|g) − P(ŷ=1|g')|` — for the paper's binary attribute
/// `|P(ŷ=1 | s=+1) − P(ŷ=1 | s=−1)|`. Zero when fewer than two groups are
/// present (no disparity measurable).
///
/// # Panics
/// Panics on length mismatch.
pub fn ddp(preds: &[usize], sensitive: &[i8]) -> f64 {
    let rates = positive_rates(preds, sensitive);
    let values: Vec<f64> = rates.values().copied().collect();
    match (values.iter().copied().reduce(f64::min), values.iter().copied().reduce(f64::max)) {
        (Some(lo), Some(hi)) if values.len() >= 2 => hi - lo,
        _ => 0.0,
    }
}

/// Equalized-odds difference: for each true label `y`, the largest
/// pairwise gap in `P(ŷ=1 | y, s=g)` across groups with data for that
/// label; the metric is the worst over labels — for the paper's binary
/// attribute the larger of the true-positive-rate and false-positive-rate
/// gaps. Cells with no data contribute no gap.
///
/// # Panics
/// Panics on length mismatches.
pub fn eod(preds: &[usize], labels: &[usize], sensitive: &[i8]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "preds/labels length mismatch");
    assert_eq!(preds.len(), sensitive.len(), "preds/sensitive length mismatch");
    let groups = groups_of(sensitive);
    let mut worst = 0.0f64;
    for y in 0..2usize {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut seen = 0;
        for &g in &groups {
            let mut hits = 0usize;
            let mut total = 0usize;
            for ((&p, &label), &s) in preds.iter().zip(labels).zip(sensitive) {
                if s == g && label.min(1) == y {
                    total += 1;
                    if p >= 1 {
                        hits += 1;
                    }
                }
            }
            if total > 0 {
                let rate = hits as f64 / total as f64;
                lo = lo.min(rate);
                hi = hi.max(rate);
                seen += 1;
            }
        }
        if seen >= 2 {
            worst = worst.max(hi - lo);
        }
    }
    worst
}

/// Mutual information (nats) between hard predictions and the sensitive
/// attribute, estimated from empirical joint frequencies. Zero iff the
/// prediction is (empirically) independent of the group.
///
/// # Panics
/// Panics on length mismatch.
pub fn mutual_information(preds: &[usize], sensitive: &[i8]) -> f64 {
    assert_eq!(preds.len(), sensitive.len(), "preds/sensitive length mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let n = preds.len() as f64;
    let groups = groups_of(sensitive);
    // joint[g][ŷ]
    let mut joint: BTreeMap<i8, [f64; 2]> = groups.iter().map(|&g| (g, [0.0; 2])).collect();
    let mut py = [0.0f64; 2];
    for (&p, &s) in preds.iter().zip(sensitive) {
        let yi = p.min(1);
        joint.entry(s).or_insert([0.0; 2])[yi] += 1.0;
        py[yi] += 1.0;
    }
    let mut mi = 0.0;
    for cells in joint.values() {
        let pg: f64 = (cells[0] + cells[1]) / n;
        for (yi, &c) in cells.iter().enumerate() {
            let pj = c / n;
            if pj > 0.0 && pg > 0.0 && py[yi] > 0.0 {
                mi += pj * (pj / (pg * py[yi] / n)).ln();
            }
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn accuracy_basic() {
        assert!(close(accuracy(&[1, 0, 1, 1], &[1, 0, 0, 1]), 0.75));
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn ddp_detects_disparity() {
        // Group +1 always predicted positive, group −1 never.
        let preds = [1, 1, 0, 0];
        let sens = [1i8, 1, -1, -1];
        assert!(close(ddp(&preds, &sens), 1.0));
    }

    #[test]
    fn ddp_zero_for_parity() {
        let preds = [1, 0, 1, 0];
        let sens = [1i8, 1, -1, -1];
        assert!(close(ddp(&preds, &sens), 0.0));
    }

    #[test]
    fn ddp_empty_group_is_zero() {
        assert_eq!(ddp(&[1, 0], &[1, 1]), 0.0);
    }

    #[test]
    fn eod_detects_tpr_gap() {
        // Equal base rates, but TPR differs: group +1 gets all its positives
        // right, group −1 gets them all wrong.
        let labels = [1, 0, 1, 0];
        let preds = [1, 0, 0, 0];
        let sens = [1i8, 1, -1, -1];
        assert!(close(eod(&preds, &labels, &sens), 1.0));
    }

    #[test]
    fn eod_zero_for_equalized_odds() {
        let labels = [1, 0, 1, 0];
        let preds = [1, 1, 1, 1];
        let sens = [1i8, 1, -1, -1];
        // Both groups: TPR = 1 and FPR = 1, so the gap is zero (even though
        // the classifier is useless).
        assert!(close(eod(&preds, &labels, &sens), 0.0));
    }

    #[test]
    fn eod_uses_worst_of_the_two_rates() {
        // TPR gap 0, FPR gap 1 — EOD must report 1.
        let labels = [1, 1, 0, 0];
        let preds = [1, 1, 1, 0];
        let sens = [1i8, -1, 1, -1];
        assert!(close(eod(&preds, &labels, &sens), 1.0));
    }

    #[test]
    fn mi_zero_for_independent_predictions() {
        let preds = [1, 0, 1, 0];
        let sens = [1i8, 1, -1, -1];
        assert!(close(mutual_information(&preds, &sens), 0.0));
    }

    #[test]
    fn mi_maximal_for_perfect_dependence() {
        // ŷ fully determined by s with balanced groups: MI = ln 2.
        let preds = [1, 1, 0, 0];
        let sens = [1i8, 1, -1, -1];
        assert!(close(mutual_information(&preds, &sens), 2f64.ln()));
    }

    #[test]
    fn mi_is_symmetric_under_label_flip() {
        let preds = [1, 1, 0, 0, 1, 0];
        let flipped: Vec<usize> = preds.iter().map(|&p| 1 - p).collect();
        let sens = [1i8, -1, 1, -1, -1, 1];
        assert!(close(
            mutual_information(&preds, &sens),
            mutual_information(&flipped, &sens)
        ));
    }

    #[test]
    fn ddp_reduces_to_binary_rate_gap() {
        // P(ŷ=1 | s=+1) = 2/3, P(ŷ=1 | s=−1) = 1/3.
        let preds = [1, 1, 0, 0, 1, 0];
        let sens = [1i8, 1, 1, -1, -1, -1];
        assert!(close(ddp(&preds, &sens), 1.0 / 3.0));
    }

    #[test]
    fn three_groups_max_pairwise() {
        // rates: g0 = 1.0, g1 = 0.5, g2 = 0.0 → gap 1.0.
        let preds = [1, 1, 1, 0, 0, 0];
        let sens = [0i8, 0, 1, 1, 2, 2];
        assert!(close(ddp(&preds, &sens), 1.0));
    }

    #[test]
    fn single_group_is_zero() {
        assert_eq!(ddp(&[1, 0], &[3, 3]), 0.0);
        assert_eq!(eod(&[1, 0], &[1, 0], &[3, 3]), 0.0);
    }

    #[test]
    fn eod_reduces_to_binary_rate_gaps() {
        // s=+1: TPR 2/3, FPR 1; s=−1: TPR 0, FPR 1/2. TPR gap 2/3 wins.
        let preds = [1, 1, 0, 1, 0, 0, 0, 1];
        let labels = [1, 1, 1, 0, 1, 1, 0, 0];
        let sens = [1i8, 1, 1, 1, -1, -1, -1, -1];
        assert!(close(eod(&preds, &labels, &sens), 2.0 / 3.0));
    }

    #[test]
    fn eod_ignores_empty_cells() {
        // Group 2 has no y=1 samples; its absence must not poison the gap.
        let preds = [1, 0, 0];
        let labels = [1, 1, 0];
        let sens = [0i8, 1, 2];
        let v = eod(&preds, &labels, &sens);
        assert!(close(v, 1.0)); // y=1: g0 rate 1, g1 rate 0.
    }

    #[test]
    fn mi_reduces_to_binary_joint() {
        // Balanced groups and predictions; joint cells 2/6 on the diagonal
        // and 1/6 off it: MI = Σ p(s,ŷ) ln(p(s,ŷ) / (p(s) p(ŷ))).
        let preds = [1, 1, 0, 0, 1, 0];
        let sens = [1i8, 1, 1, -1, -1, -1];
        let expected = (2.0 / 3.0) * (4.0f64 / 3.0).ln() + (1.0 / 3.0) * (2.0f64 / 3.0).ln();
        assert!(close(mutual_information(&preds, &sens), expected));
    }

    #[test]
    fn mi_perfect_dependence_three_groups() {
        // Three equal groups; two always positive, one always negative.
        let preds = [1, 1, 1, 1, 0, 0];
        let sens = [0i8, 0, 1, 1, 2, 2];
        let mi = mutual_information(&preds, &sens);
        // H(ŷ) with P(1)=2/3: MI = H(ŷ) − H(ŷ|s) = H(2/3) − 0.
        let h = -(2.0 / 3.0f64) * (2.0 / 3.0f64).ln() - (1.0 / 3.0) * (1.0 / 3.0f64).ln();
        assert!(close(mi, h), "mi {mi} vs {h}");
    }

    #[test]
    fn metrics_are_bounded() {
        // Randomized smoke check of bounds.
        let preds = [0, 1, 1, 0, 1, 0, 1, 1];
        let labels = [1, 1, 0, 0, 1, 0, 0, 1];
        let sens = [1i8, -1, 1, -1, 1, -1, 1, -1];
        assert!((0.0..=1.0).contains(&ddp(&preds, &sens)));
        assert!((0.0..=1.0).contains(&eod(&preds, &labels, &sens)));
        let mi = mutual_information(&preds, &sens);
        assert!((0.0..=2f64.ln() + 1e-12).contains(&mi));
    }
}
