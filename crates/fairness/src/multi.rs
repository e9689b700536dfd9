//! Multi-valued sensitive attributes (paper Sec. III-A: "This study
//! considers a binary sensitive attribute … but can extend to multi-valued
//! sensitive attributes").
//!
//! Groups are arbitrary `i8` codes (e.g. the seven FairFace races as
//! `0..7`). Each binary metric generalizes to the **maximum pairwise gap**
//! across groups — the standard multi-group reading of demographic parity
//! and equalized odds — and mutual information generalizes directly through
//! the joint distribution.

use std::collections::BTreeMap;

/// Distinct group codes present, in sorted order.
fn groups_of(sensitive: &[i8]) -> Vec<i8> {
    let mut g: Vec<i8> = sensitive.to_vec();
    g.sort_unstable();
    g.dedup();
    g
}

/// Per-group positive-prediction rates `P(ŷ=1 | s=g)`.
///
/// # Panics
/// Panics on length mismatch.
pub fn positive_rates(preds: &[usize], sensitive: &[i8]) -> BTreeMap<i8, f64> {
    assert_eq!(preds.len(), sensitive.len(), "preds/sensitive length mismatch");
    let mut pos: BTreeMap<i8, (usize, usize)> = BTreeMap::new();
    for (&p, &s) in preds.iter().zip(sensitive) {
        let entry = pos.entry(s).or_insert((0, 0));
        entry.1 += 1;
        if p >= 1 {
            entry.0 += 1;
        }
    }
    pos.into_iter().map(|(g, (hits, total))| (g, hits as f64 / total as f64)).collect()
}

/// Multi-group demographic-parity difference: the largest pairwise gap in
/// positive-prediction rate, `max_{g,g'} |P(ŷ=1|g) − P(ŷ=1|g')|`.
/// Zero when fewer than two groups are present.
pub fn ddp_multi(preds: &[usize], sensitive: &[i8]) -> f64 {
    let rates = positive_rates(preds, sensitive);
    let values: Vec<f64> = rates.values().copied().collect();
    match (values.iter().copied().reduce(f64::min), values.iter().copied().reduce(f64::max)) {
        (Some(lo), Some(hi)) if values.len() >= 2 => hi - lo,
        _ => 0.0,
    }
}

/// Multi-group equalized-odds difference: for each true label `y`, the
/// largest pairwise gap in `P(ŷ=1 | y, s=g)` across groups with data for
/// that label; the metric is the worst over labels.
///
/// # Panics
/// Panics on length mismatches.
pub fn eod_multi(preds: &[usize], labels: &[usize], sensitive: &[i8]) -> f64 {
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

/// Mutual information (nats) between predictions and a multi-valued
/// sensitive attribute.
pub fn mutual_information_multi(preds: &[usize], sensitive: &[i8]) -> f64 {
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

/// One-vs-rest relaxed fairness values for a multi-valued attribute: for
/// each group `g`, the gap between the group's mean classifier output and
/// the complement's mean output (the natural generalization of the Eq. 1
/// relaxed DDP, which this reduces to for binary `s`).
///
/// Returns `(group, v_g)` pairs in ascending group order; groups covering
/// the whole batch (no complement) or empty groups yield no entry.
pub fn one_vs_rest_values(outputs: &[f64], sensitive: &[i8]) -> Vec<(i8, f64)> {
    let mut values = Vec::new();
    one_vs_rest_values_into(outputs, sensitive, &mut values);
    values
}

/// [`one_vs_rest_values`] into a caller buffer (cleared and refilled;
/// allocates only while it grows). The groups present are found with a
/// stack table over every `i8` code, visited in ascending order.
///
/// # Panics
/// Panics on length mismatch.
pub fn one_vs_rest_values_into(outputs: &[f64], sensitive: &[i8], values: &mut Vec<(i8, f64)>) {
    assert_eq!(outputs.len(), sensitive.len(), "outputs/sensitive length mismatch");
    let slot = |g: i8| (i16::from(g) + 128) as usize;
    let mut present = [false; 256];
    for &s in sensitive {
        present[slot(s)] = true;
    }
    values.clear();
    for g in (i8::MIN..=i8::MAX).filter(|&g| present[slot(g)]) {
        let (mut sum_in, mut n_in, mut sum_out, mut n_out) = (0.0, 0usize, 0.0, 0usize);
        for (&h, &s) in outputs.iter().zip(sensitive) {
            if s == g {
                sum_in += h;
                n_in += 1;
            } else {
                sum_out += h;
                n_out += 1;
            }
        }
        if n_in > 0 && n_out > 0 {
            values.push((g, sum_in / n_in as f64 - sum_out / n_out as f64));
        }
    }
}

/// The scalar multi-group fairness penalty: the largest absolute
/// one-vs-rest gap (zero when at most one group is present).
pub fn max_one_vs_rest(outputs: &[f64], sensitive: &[i8]) -> f64 {
    one_vs_rest_values(outputs, sensitive)
        .into_iter()
        .map(|(_, v)| v.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn reduces_to_binary_ddp() {
        let preds = [1, 1, 0, 0, 1, 0];
        let sens = [1i8, 1, 1, -1, -1, -1];
        let binary = crate::metrics::ddp(&preds, &sens);
        let multi = ddp_multi(&preds, &sens);
        assert!(close(binary, multi));
    }

    #[test]
    fn three_groups_max_pairwise() {
        // rates: g0 = 1.0, g1 = 0.5, g2 = 0.0 → gap 1.0.
        let preds = [1, 1, 1, 0, 0, 0];
        let sens = [0i8, 0, 1, 1, 2, 2];
        assert!(close(ddp_multi(&preds, &sens), 1.0));
    }

    #[test]
    fn single_group_is_zero() {
        assert_eq!(ddp_multi(&[1, 0], &[3, 3]), 0.0);
        assert_eq!(eod_multi(&[1, 0], &[1, 0], &[3, 3]), 0.0);
    }

    #[test]
    fn eod_multi_reduces_to_binary() {
        let preds = [1, 0, 0, 0];
        let labels = [1, 0, 1, 0];
        let sens = [1i8, 1, -1, -1];
        assert!(close(
            eod_multi(&preds, &labels, &sens),
            crate::metrics::eod(&preds, &labels, &sens)
        ));
    }

    #[test]
    fn eod_multi_ignores_empty_cells() {
        // Group 2 has no y=1 samples; its absence must not poison the gap.
        let preds = [1, 0, 0];
        let labels = [1, 1, 0];
        let sens = [0i8, 1, 2];
        let v = eod_multi(&preds, &labels, &sens);
        assert!(close(v, 1.0)); // y=1: g0 rate 1, g1 rate 0.
    }

    #[test]
    fn mi_multi_reduces_to_binary() {
        let preds = [1, 1, 0, 0, 1, 0];
        let sens = [1i8, 1, 1, -1, -1, -1];
        assert!(close(
            mutual_information_multi(&preds, &sens),
            crate::metrics::mutual_information(&preds, &sens)
        ));
    }

    #[test]
    fn mi_multi_perfect_dependence_three_groups() {
        // Three equal groups; two always positive, one always negative.
        let preds = [1, 1, 1, 1, 0, 0];
        let sens = [0i8, 0, 1, 1, 2, 2];
        let mi = mutual_information_multi(&preds, &sens);
        // H(ŷ) with P(1)=2/3: MI = H(ŷ) − H(ŷ|s) = H(2/3) − 0.
        let h = -(2.0 / 3.0f64) * (2.0 / 3.0f64).ln() - (1.0 / 3.0) * (1.0 / 3.0f64).ln();
        assert!(close(mi, h), "mi {mi} vs {h}");
    }

    #[test]
    fn one_vs_rest_detects_outlier_group() {
        let outputs = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let sens = [0i8, 0, 1, 1, 2, 2];
        let values = one_vs_rest_values(&outputs, &sens);
        assert_eq!(values.len(), 3);
        let v0 = values.iter().find(|(g, _)| *g == 0).unwrap().1;
        assert!(close(v0, 1.0));
        assert!(close(max_one_vs_rest(&outputs, &sens), 1.0));
    }

    #[test]
    fn one_vs_rest_zero_for_uniform_outputs() {
        let outputs = [0.4; 6];
        let sens = [0i8, 0, 1, 1, 2, 2];
        assert!(close(max_one_vs_rest(&outputs, &sens), 0.0));
    }

    #[test]
    fn positive_rates_per_group() {
        let preds = [1, 0, 1, 1];
        let sens = [0i8, 0, 5, 5];
        let rates = positive_rates(&preds, &sens);
        assert!(close(rates[&0], 0.5));
        assert!(close(rates[&5], 1.0));
    }
}
