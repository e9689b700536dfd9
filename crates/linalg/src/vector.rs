//! Free functions over `&[f64]` slices.
//!
//! These back both the neural-network kernels in `faction-nn` and the
//! statistics helpers in [`crate::stats`]. All functions are panic-free for
//! equal-length inputs; length mismatches panic with a clear message because
//! they are programming errors, not data errors (matching the convention of
//! `std` slice ops).

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`, the classic BLAS axpy.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Element-wise in-place scaling: `a *= alpha`.
#[inline]
pub fn scale(a: &mut [f64], alpha: f64) {
    for v in a {
        *v *= alpha;
    }
}

/// Element-wise sum of two slices into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b` into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Index of the maximum element; ties resolve to the lowest index.
///
/// Returns `None` for an empty slice or if every element is NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum element; ties resolve to the lowest index.
///
/// Returns `None` for an empty slice or if every element is NaN.
pub fn argmin(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v >= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(a: &[f64]) -> Option<f64> {
    if a.is_empty() {
        None
    } else {
        Some(a.iter().sum::<f64>() / a.len() as f64)
    }
}

/// Sample variance with Bessel's correction (divides by `n - 1`).
///
/// Returns `None` if fewer than two elements are supplied.
pub fn variance(a: &[f64]) -> Option<f64> {
    if a.len() < 2 {
        return None;
    }
    let m = mean(a)?;
    Some(a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (a.len() - 1) as f64)
}

/// Numerically stable log-sum-exp: `log(sum_i exp(a_i))`.
///
/// Returns negative infinity for an empty slice (the sum of zero terms).
pub fn logsumexp(a: &[f64]) -> f64 {
    let m = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + a.iter().map(|v| (v - m).exp()).sum::<f64>().ln()
}

/// A total order over `f64` for ascending sorts: non-NaN values compare via
/// [`f64::total_cmp`]; any NaN (either sign) sorts **after** every non-NaN
/// value, and NaNs compare equal to each other. Unlike
/// `partial_cmp(..).unwrap_or(Equal)`, the result never depends on operand
/// order, so sorts stay deterministic — and candidate-order independent —
/// even when a score batch is poisoned with NaN.
pub fn total_order(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// The descending companion of [`total_order`]: non-NaN values sort from
/// largest to smallest and NaN still sorts **last** (a NaN score must never
/// win a ranking).
pub fn total_order_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Replaces every non-finite entry (NaN, ±∞) with `0.0` in place and returns
/// how many entries were replaced.
///
/// This is the workspace's score-containment primitive: selection strategies
/// run it over their desirability outputs (0.0 = "no signal", never
/// preferred), and the runner uses it to scrub corrupted feature values at
/// the data boundary. A fully finite slice is left untouched, so the clean
/// path is byte-identical with or without the call.
pub fn sanitize_scores(scores: &mut [f64]) -> usize {
    let mut replaced = 0;
    for v in scores {
        if !v.is_finite() {
            *v = 0.0;
            replaced += 1;
        }
    }
    replaced
}

/// Min–max normalization of `a` onto `[0, 1]`.
///
/// This is the `Normalize` of the paper's Eq. (7): scores within a batch are
/// mapped to `[0, 1]` using the batch min and max. If the batch is constant
/// (max == min) every element maps to `0.0`, which makes every selection
/// probability `ω(x) = 1 - 0 = 1`: with no information to discriminate on,
/// every sample is an equally good query candidate.
///
/// Non-finite entries are contained rather than propagated: the min/max are
/// taken over the finite entries only, `+∞` maps to `1.0`, and `-∞` and NaN
/// map to `0.0`. A batch with no finite entries (or a constant finite batch)
/// maps entirely to `0.0`, preserving the constant-batch convention above.
pub fn min_max_normalize(a: &[f64]) -> Vec<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in a {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let range = hi - lo;
    if !range.is_finite() || range <= 0.0 {
        return vec![0.0; a.len()];
    }
    a.iter()
        .map(|&v| {
            if v.is_finite() {
                (v - lo) / range
            } else if v.is_infinite() && v.is_sign_positive() {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn dot_basic() {
        assert!(close(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norm2_pythagoras() {
        assert!(close(norm2(&[3.0, 4.0]), 5.0));
    }

    #[test]
    fn dist2_is_squared_distance() {
        assert!(close(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.0, 2.0];
        let b = [0.5, -2.0];
        assert_eq!(sub(&add(&a, &b), &b), a.to_vec());
    }

    #[test]
    fn argmax_ties_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 2.0, 1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmin_basic() {
        assert_eq!(argmin(&[2.0, -1.0, 0.0]), Some(1));
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn mean_variance_known() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(close(mean(&a).unwrap(), 5.0));
        // Bessel-corrected variance of this classic example is 32/7.
        assert!(close(variance(&a).unwrap(), 32.0 / 7.0));
    }

    #[test]
    fn variance_needs_two_points() {
        assert_eq!(variance(&[1.0]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn logsumexp_matches_naive_for_small_values() {
        let a = [0.1, 0.2, 0.3];
        let naive = a.iter().map(|v: &f64| v.exp()).sum::<f64>().ln();
        assert!(close(logsumexp(&a), naive));
    }

    #[test]
    fn logsumexp_stable_for_large_values() {
        let a = [1000.0, 1000.0];
        assert!(close(logsumexp(&a), 1000.0 + 2f64.ln()));
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn min_max_normalize_range() {
        let n = min_max_normalize(&[2.0, 4.0, 6.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_normalize_constant_batch() {
        assert_eq!(min_max_normalize(&[5.0, 5.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn min_max_normalize_empty() {
        assert!(min_max_normalize(&[]).is_empty());
    }

    #[test]
    fn min_max_normalize_ignores_non_finite_for_range() {
        // The finite entries normalize exactly as if the poison were absent;
        // NaN / -inf pin to 0, +inf pins to 1.
        let n = min_max_normalize(&[2.0, f64::NAN, 4.0, f64::INFINITY, 6.0, f64::NEG_INFINITY]);
        assert_eq!(n, vec![0.0, 0.0, 0.5, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn min_max_normalize_all_non_finite_is_zero() {
        let n = min_max_normalize(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(n, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn total_order_sorts_nan_last_both_directions() {
        let mut v = [2.0, f64::NAN, -1.0, f64::INFINITY, 0.5];
        v.sort_by(|a, b| total_order(*a, *b));
        assert_eq!(&v[..4], &[-1.0, 0.5, 2.0, f64::INFINITY]);
        assert!(v[4].is_nan());
        let mut w = [2.0, f64::NAN, -1.0, f64::NEG_INFINITY, 0.5];
        w.sort_by(|a, b| total_order_desc(*a, *b));
        assert_eq!(&w[..4], &[2.0, 0.5, -1.0, f64::NEG_INFINITY]);
        assert!(w[4].is_nan());
    }

    #[test]
    fn total_order_is_operand_order_independent() {
        use std::cmp::Ordering;
        let vals = [1.0, -2.5, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(total_order(a, b), total_order(b, a).reverse());
                assert_eq!(total_order_desc(a, b), total_order_desc(b, a).reverse());
            }
        }
        assert_eq!(total_order(f64::NAN, f64::NAN), Ordering::Equal);
    }

    #[test]
    fn sanitize_scores_replaces_only_non_finite() {
        let mut v = vec![1.0, f64::NAN, -2.0, f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(sanitize_scores(&mut v), 3);
        assert_eq!(v, vec![1.0, 0.0, -2.0, 0.0, 0.0]);
        let mut clean = vec![0.25, -0.5];
        assert_eq!(sanitize_scores(&mut clean), 0);
        assert_eq!(clean, vec![0.25, -0.5]);
    }
}
