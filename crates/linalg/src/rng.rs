//! Deterministic random sampling utilities.
//!
//! Every stochastic component of the reproduction — synthetic task streams,
//! weight initialization, Bernoulli query trials (Algorithm 1, line 29) —
//! draws from a [`SeedRng`] so that experiments are exactly repeatable given
//! a seed. The generator is xoshiro256** seeded through SplitMix64, the
//! construction its authors recommend; Gaussian variates come from a
//! Box–Muller transform. No random-number crate is involved, so the streams
//! are pinned by this file alone (see the known-answer tests).

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::Result;

/// The SplitMix64 increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless SplitMix64: the output of one generator step from state `z`.
///
/// The one seed-expansion hash of the workspace. `SeedRng` seeds its
/// xoshiro state with it and the engine pool's schedule chaos draws
/// `splitmix64(seed ^ worker ^ counter)` — pure functions of their inputs,
/// so no RNG state has to be threaded or serialized.
pub fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// The xoshiro256** core: four state words, one 64-bit word per step.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expands a 64-bit seed into the four state words with SplitMix64: the
    /// first four outputs of the stream whose state starts at `seed`.
    fn seed_from_u64(seed: u64) -> Self {
        let s = [0u64, 1, 2, 3].map(|k| splitmix64(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA))));
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A seeded RNG with the sampling helpers the reproduction needs.
#[derive(Debug, Clone)]
pub struct SeedRng {
    inner: Xoshiro256,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl SeedRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeedRng { inner: Xoshiro256::seed_from_u64(seed), spare_normal: None }
    }

    /// Derives an independent child generator. Used to give each task /
    /// component its own stream so that changing one stage's draw count does
    /// not perturb the others.
    pub fn fork(&mut self, stream: u64) -> SeedRng {
        let base = self.inner.next_u64();
        // SplitMix-style mixing of base and stream id.
        SeedRng::new(mix64(base ^ stream.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range: lo {lo} must be < hi {hi}");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`, unbiased: words in the incomplete
    /// top block of `u64` (at or above its largest multiple of `n`) are
    /// redrawn.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: n must be positive");
        let span = n as u64;
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = self.inner.next_u64();
            if v < zone {
                return (v % span) as usize;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    ///
    /// This is the `Bernoulli(min(α·ω(x), 1))` of Algorithm 1, line 29.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Standard normal variate via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Reject u1 == 0 to keep ln finite.
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "normal: std_dev must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Vector of `n` i.i.d. standard normal variates.
    pub fn standard_normal_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.standard_normal()).collect()
    }

    /// Sample from a multivariate normal `N(mean, cov)` where `cov` is given
    /// by its Cholesky factor: draws `x = mean + L ε` with `ε ~ N(0, I)`.
    ///
    /// # Errors
    /// Returns a shape error if `mean.len() != chol.dim()`.
    pub fn multivariate_normal(&mut self, mean: &[f64], chol: &Cholesky) -> Result<Vec<f64>> {
        let eps = self.standard_normal_vec(chol.dim());
        let mut x = chol.factor_l().matvec(&eps)?;
        if x.len() != mean.len() {
            return Err(crate::LinalgError::ShapeMismatch {
                left: format!("mean len {}", mean.len()),
                right: format!("cov dim {}", chol.dim()),
                op: "multivariate_normal",
            });
        }
        crate::vector::axpy(1.0, mean, &mut x);
        Ok(x)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `[0, n)` (a uniform sample without
    /// replacement). Returns all indices shuffled if `k >= n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

/// Serialization captures the raw xoshiro256** state words plus the cached
/// Box–Muller spare, so a restored generator continues the *identical*
/// stream — bit-for-bit, including a pending second normal variate. This is
/// what makes session snapshots (`faction-core`'s `OnlineSession`)
/// byte-reproducible: the decision trace after a restore cannot diverge
/// from an uninterrupted run.
impl serde::Serialize for SeedRng {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object(2);
        // Every word is a `uint`, whatever its size: a generic array.
        sink.key("state");
        sink.begin_array(self.inner.s.len(), serde::Packing::Generic);
        for &word in &self.inner.s {
            sink.uint(word);
        }
        sink.end();
        serde::field(sink, "spare_normal", &self.spare_normal);
        sink.end();
    }
}

impl serde::Deserialize for SeedRng {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let fields =
            v.as_object().ok_or_else(|| serde::DeError::custom("expected SeedRng object"))?;
        let field = |name: &str| {
            serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("SeedRng missing `{name}`")))
        };
        let words: Vec<u64> = serde::Deserialize::from_value(field("state")?)?;
        let state: [u64; 4] = words
            .try_into()
            .map_err(|_| serde::DeError::custom("SeedRng state must have 4 words"))?;
        let spare_normal: Option<f64> = serde::Deserialize::from_value(field("spare_normal")?)?;
        Ok(SeedRng { inner: Xoshiro256 { s: state }, spare_normal })
    }
}

/// Builds a `d × d` rotation matrix that rotates by `angle_rad` in the plane
/// spanned by axes `(axis_a, axis_b)` and is the identity elsewhere.
///
/// The Rotated-Colored-MNIST simulation applies these rotations to the latent
/// feature space to realize the paper's `{0°, 15°, 30°, 45°}` environments.
///
/// # Panics
/// Panics if the axes coincide or exceed `d`.
pub fn plane_rotation(d: usize, axis_a: usize, axis_b: usize, angle_rad: f64) -> Matrix {
    assert!(axis_a < d && axis_b < d && axis_a != axis_b, "invalid rotation plane");
    let mut m = Matrix::identity(d);
    let (c, s) = (angle_rad.cos(), angle_rad.sin());
    m.set(axis_a, axis_a, c);
    m.set(axis_b, axis_b, c);
    m.set(axis_a, axis_b, -s);
    m.set(axis_b, axis_a, s);
    m
}

/// Composes plane rotations over consecutive axis pairs `(0,1), (2,3), …` so
/// that the whole feature space is rotated by `angle_rad`, not just one plane.
#[expect(clippy::expect_used, reason = "both factors are d×d plane rotations")]
pub fn block_rotation(d: usize, angle_rad: f64) -> Matrix {
    let mut m = Matrix::identity(d);
    let mut axis = 0;
    while axis + 1 < d {
        let r = plane_rotation(d, axis, axis + 1, angle_rad);
        m = r.matmul(&m).expect("square rotation product");
        axis += 2;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeedRng::new(42);
        let mut b = SeedRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    /// Known answers: the first eight `uniform` bit patterns, `index(7)`
    /// draws and `standard_normal` bit patterns from fresh generators for
    /// two seeds. Every synthetic stream, weight init and query trial in
    /// the repository descends from these words, so a change to any of
    /// them changes every published result.
    #[test]
    fn known_answers_per_seed() {
        // (seed, uniform bits, index(7) draws, standard_normal bits)
        type KnownAnswers = (u64, [u64; 8], [usize; 8], [u64; 8]);
        let cases: [KnownAnswers; 2] = [
            (
                7,
                [
                    0x3fe66b1f5ee9df2e,
                    0x3fd1d70f6593d20a,
                    0x3feade3a6932a58f,
                    0x3fef65270e63d00e,
                    0x3fefb5209d8fca80,
                    0x3febedc39c76c431,
                    0x3faf1ae5852bd8b0,
                    0x3fbabc4dcb546f60,
                ],
                [0, 6, 1, 1, 6, 5, 1, 2],
                [
                    0xbfc366bc5865025d,
                    0x3fea8e84567bf47b,
                    0x3fe2c9850f54fcaf,
                    0xbfb1ef49483216aa,
                    0x3fb82f4ed1aa89c2,
                    0xbfb8def808f747d9,
                    0x3ffe0137d69995bb,
                    0x3ff71aab39f32c22,
                ],
            ),
            (
                0xFAC7_104E,
                [
                    0x3fe7ad0ba9c596ea,
                    0x3fd823eb42484c5a,
                    0x3feeeeddccd2b8b3,
                    0x3fe41cabc2c492cc,
                    0x3fe5488f69d18618,
                    0x3fbca4fbb33a5a90,
                    0x3fe9b18886e2f03b,
                    0x3feb1d821cc64d24,
                ],
                [0, 6, 2, 3, 1, 3, 1, 2],
                [
                    0xbfe1cdfb92aed695,
                    0x3fe1521c68b308ee,
                    0xbfc70bfa6b176d5e,
                    0xbfc815576655bd64,
                    0x3fe60c03b2effec9,
                    0x3fe2af4d89c87bce,
                    0x3fd859b8cb70b91c,
                    0xbfe15b9e191ff721,
                ],
            ),
        ];
        for (seed, uniform, index, normal) in cases {
            let mut rng = SeedRng::new(seed);
            assert_eq!(uniform.map(|_| rng.uniform().to_bits()), uniform, "seed {seed}");
            let mut rng = SeedRng::new(seed);
            assert_eq!(index.map(|_| rng.index(7)), index, "seed {seed}");
            let mut rng = SeedRng::new(seed);
            assert_eq!(normal.map(|_| rng.standard_normal().to_bits()), normal, "seed {seed}");
        }
    }

    /// Known answers for the stateless hash: the first SplitMix64 outputs
    /// from these states, as the private copies in the labeled pool and the
    /// engine pool computed them.
    #[test]
    fn known_answers_for_splitmix64() {
        let cases: [(u64, u64); 5] = [
            (0, 0xE220_A839_7B1D_CDAF),
            (1, 0x910A_2DEC_8902_5CC1),
            (0xDEAD_BEEF, 0x4ADF_B90F_68C9_EB9B),
            (u64::MAX, 0xE4D9_7177_1B65_2C20),
            (0x5EED_0FE7_1C71_0A01, 0x8350_6A97_8B06_B4C9),
        ];
        for (z, want) in cases {
            assert_eq!(splitmix64(z), want, "splitmix64({z:#x})");
        }
    }

    /// Known answer for `fork`: the child of `SeedRng::new(7).fork(3)`.
    #[test]
    fn known_answers_for_a_fork() {
        let want: [u64; 8] = [
            0x3fd6a42e24d09dae,
            0x3fe1ea9e610a0959,
            0x3fe90c8f458954d5,
            0x3fe178caf2a099b6,
            0x3fe603b596ce0f69,
            0x3fe9b7457729e785,
            0x3fa6c964825e3b10,
            0x3fbdaf6bdb1dab50,
        ];
        let mut child = SeedRng::new(7).fork(3);
        assert_eq!(want.map(|_| child.uniform().to_bits()), want);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SeedRng::new(1);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.uniform()));
        }
    }

    #[test]
    fn index_bounds_and_coverage() {
        let mut rng = SeedRng::new(2);
        let mut seen = [false; 7];
        for _ in 0..200 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let va: Vec<f64> = (0..8).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_independent_of_later_parent_use() {
        let mut parent1 = SeedRng::new(7);
        let mut child1 = parent1.fork(3);
        let mut parent2 = SeedRng::new(7);
        let mut child2 = parent2.fork(3);
        // Draw from parent2 after forking; child streams must still agree.
        let _ = parent2.uniform();
        for _ in 0..16 {
            assert_eq!(child1.uniform().to_bits(), child2.uniform().to_bits());
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SeedRng::new(123);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = crate::vector::mean(&xs).unwrap();
        let var = crate::vector::variance(&xs).unwrap();
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn bernoulli_clamps_and_respects_p() {
        let mut rng = SeedRng::new(5);
        assert!(rng.bernoulli(2.0)); // clamped to 1
        assert!(!rng.bernoulli(-1.0)); // clamped to 0
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn multivariate_normal_mean_shift() {
        let mut rng = SeedRng::new(9);
        let chol = Cholesky::factor(&Matrix::identity(2)).unwrap();
        let n = 5_000;
        let mut sum = [0.0; 2];
        for _ in 0..n {
            let x = rng.multivariate_normal(&[3.0, -1.0], &chol).unwrap();
            sum[0] += x[0];
            sum[1] += x[1];
        }
        assert!((sum[0] / n as f64 - 3.0).abs() < 0.08);
        assert!((sum[1] / n as f64 + 1.0).abs() < 0.08);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SeedRng::new(11);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SeedRng::new(13);
        let idx = rng.sample_indices(10, 4);
        assert_eq!(idx.len(), 4);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(idx.iter().all(|&i| i < 10));
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn serde_round_trip_continues_identical_stream() {
        // Capture mid-stream with a spare normal pending: the restored
        // generator must replay the exact remaining stream, spare first.
        let mut rng = SeedRng::new(77);
        let _ = rng.standard_normal(); // leaves spare_normal cached
        let mut restored: SeedRng =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&rng)).unwrap();
        for _ in 0..32 {
            assert_eq!(rng.standard_normal().to_bits(), restored.standard_normal().to_bits());
            assert_eq!(rng.uniform().to_bits(), restored.uniform().to_bits());
        }
    }

    #[test]
    fn serde_rejects_short_state() {
        let v = serde::Value::Object(vec![
            ("state".to_string(), serde::Value::Array(vec![serde::Value::UInt(1)])),
            ("spare_normal".to_string(), serde::Value::Null),
        ]);
        assert!(<SeedRng as serde::Deserialize>::from_value(&v).is_err());
    }

    #[test]
    fn plane_rotation_rotates_expected_plane() {
        let r = plane_rotation(3, 0, 1, std::f64::consts::FRAC_PI_2);
        let x = r.matvec(&[1.0, 0.0, 5.0]).unwrap();
        assert!((x[0] - 0.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn block_rotation_preserves_norm() {
        let r = block_rotation(6, 0.7);
        let v = vec![1.0, -2.0, 0.5, 3.0, -1.0, 0.25];
        let rv = r.matvec(&v).unwrap();
        let n0 = crate::vector::norm2(&v);
        let n1 = crate::vector::norm2(&rv);
        assert!((n0 - n1).abs() < 1e-10);
    }

    #[test]
    fn zero_rotation_is_identity() {
        let r = block_rotation(4, 0.0);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(r.matvec(&v).unwrap(), v);
    }
}
