//! Multi-valued sensitive attributes (paper Sec. III-A: "This study
//! considers a binary sensitive attribute … but can extend to multi-valued
//! sensitive attributes").
//!
//! Groups are arbitrary `i8` codes (e.g. the seven FairFace races as
//! `0..7`). The evaluation metrics in [`crate::metrics`] already take any
//! number of groups; this module holds the per-group pieces the
//! multi-group training loss and reports build on: positive-prediction
//! rates and the one-vs-rest relaxed disparities.

use std::collections::BTreeMap;

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
