//! Weight initialization schemes.

use faction_linalg::{Matrix, SeedRng};

/// He (Kaiming) normal initialization for a `fan_in × fan_out` weight matrix.
///
/// Standard deviation `sqrt(2 / fan_in)` — the right scale for ReLU networks,
/// which all of the reproduction's feature extractors are.
#[expect(clippy::expect_used, reason = "buffer built with exactly fan_in·fan_out elements")]
pub fn he_normal(rng: &mut SeedRng, fan_in: usize, fan_out: usize) -> Matrix {
    let std = (2.0 / fan_in.max(1) as f64).sqrt();
    let data = (0..fan_in * fan_out).map(|_| rng.normal(0.0, std)).collect();
    Matrix::from_vec(fan_in, fan_out, data).expect("sized buffer")
}

/// Xavier (Glorot) uniform initialization, used for the final linear layer
/// where no ReLU follows.
#[expect(clippy::expect_used, reason = "buffer built with exactly fan_in·fan_out elements")]
pub fn xavier_uniform(rng: &mut SeedRng, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.uniform_range(-limit, limit))
        .collect();
    Matrix::from_vec(fan_in, fan_out, data).expect("sized buffer")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_normal_scale() {
        let mut rng = SeedRng::new(1);
        let w = he_normal(&mut rng, 100, 200);
        assert_eq!(w.shape(), (100, 200));
        let var = faction_linalg::vector::variance(w.as_slice()).unwrap();
        let expect = 2.0 / 100.0;
        assert!((var - expect).abs() < 0.15 * expect, "var {var} vs {expect}");
    }

    #[test]
    fn xavier_uniform_bounds() {
        let mut rng = SeedRng::new(2);
        let w = xavier_uniform(&mut rng, 50, 10);
        let limit = (6.0 / 60.0f64).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
        // Must actually spread over the range, not collapse to zero.
        let spread = w.as_slice().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(spread > limit * 0.5);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let w1 = he_normal(&mut SeedRng::new(7), 4, 4);
        let w2 = he_normal(&mut SeedRng::new(7), 4, 4);
        assert_eq!(w1, w2);
    }
}
