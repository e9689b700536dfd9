//! Order statistics for reported timings.
//!
//! A timing is reported as a median plus the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it, capped at the percentile
//! the metric is named after, with the sample count stated next to it. A
//! refused request is recorded as `f64::INFINITY`: it misses any latency
//! limit, so it sorts beyond every answered one.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank value of `sorted` at rank `rank` (1-based).
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported tail: which percentile, its value, and how many samples it
/// rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The highest percentile up to `want` that leaves at least [`MIN_BEYOND`]
/// samples beyond its nearest rank. `None` when there are too few samples
/// for any percentile to qualify.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank of `want`: ceil(want/100 · n), lowered until ten remain.
    let wanted_rank = ((want / 100.0) * n as f64).ceil() as usize;
    let rank = wanted_rank.clamp(1, n - MIN_BEYOND);
    let percentile = if rank == wanted_rank {
        want
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        percentile,
        value: at_rank(&sorted, rank),
        samples: n,
        beyond: n - rank,
    })
}

/// FNV-1a 64-bit hash: the digest printed for canonical outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `num / den`, or `0.0` when the denominator is not positive (an empty
/// wave, a run with no grants).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of `workers × wall` the workers spent running jobs. 0 for an
/// empty or instantaneous batch; it is never scaled up to fake parallelism
/// a one-worker host does not have.
pub fn busy_share(job_seconds: f64, workers: usize, wall_seconds: f64) -> f64 {
    ratio(job_seconds, workers as f64 * wall_seconds)
}

/// Granted labels over labels decided (granted + denied); 0 with no
/// decisions.
pub fn grant_ratio(granted: f64, denied: f64) -> f64 {
    ratio(granted, granted + denied)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: `tail` must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(
            t,
            Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000,
                beyond: 10
            }
        );
    }

    #[test]
    fn fewer_samples_lower_the_percentile_to_keep_ten_beyond() {
        let t = tail(&ramp(500), 99.0).unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 490.0);
        assert!((t.percentile - 98.0).abs() < 1e-12, "{t:?}");
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
    }

    #[test]
    fn no_percentile_qualifies_with_ten_or_fewer_samples() {
        assert_eq!(tail(&ramp(10), 99.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn refused_requests_sort_beyond_every_answered_one() {
        let mut s = ramp(1000);
        s[3] = f64::INFINITY;
        let t = tail(&s, 99.0).unwrap();
        assert!(
            t.value.is_finite(),
            "one miss among 1000 must not reach p99"
        );
        let mut all_missed = ramp(1000);
        for v in all_missed.iter_mut().take(11) {
            *v = f64::INFINITY;
        }
        assert_eq!(tail(&all_missed, 99.0).unwrap().value, f64::INFINITY);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn busy_share_edge_cases() {
        assert_eq!(busy_share(0.0, 2, 0.0), 0.0, "zero wall time");
        assert_eq!(busy_share(3.0, 0, 1.0), 0.0, "no workers");
        assert_eq!(busy_share(3.0, 2, 2.0), 0.75);
        assert_eq!(
            busy_share(2.0, 1, 2.0),
            1.0,
            "one worker is fully busy, not 2x"
        );
    }

    #[test]
    fn grant_ratio_edge_cases() {
        assert_eq!(grant_ratio(0.0, 0.0), 0.0, "zero grants and zero denials");
        assert_eq!(grant_ratio(0.0, 5.0), 0.0, "everything denied");
        assert_eq!(grant_ratio(15.0, 5.0), 0.75);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
