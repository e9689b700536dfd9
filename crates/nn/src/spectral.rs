//! Spectral normalization (Miyato et al., ICLR 2018).
//!
//! FACTION inherits DDU's requirement that the feature extractor be smooth
//! and *sensitive*: spectral normalization caps each layer's Lipschitz
//! constant, which prevents feature collapse and makes feature-space density
//! a faithful proxy for epistemic uncertainty (paper Sec. IV-B, \[19], \[46]).
//!
//! We use the standard one-step-per-update power iteration with a persistent
//! `u` vector (warm start), then rescale `W ← W · c/σ̂` whenever the estimated
//! top singular value `σ̂` exceeds the cap `c`. The soft variant (only shrink,
//! never grow) matches the DDU codebase's behavior for residual-free nets.

use faction_linalg::{vector, Matrix};

use crate::dense::Dense;

/// Configuration for spectral normalization.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SpectralConfig {
    /// Upper bound for each layer's top singular value. DDU uses values in
    /// `[1, 3]`; the default of 3.0 leaves the network expressive while still
    /// bounding the Lipschitz constant.
    pub cap: f64,
    /// Power-iteration steps per enforcement call. One step with a warm
    /// start is the standard choice.
    pub power_iterations: u32,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig { cap: 3.0, power_iterations: 1 }
    }
}

/// Power-iteration steps actually run for a requested count: at least one,
/// since `σ` is read from the last step's `W v`.
fn iterations_run(requested: u32) -> u32 {
    requested.max(1)
}

/// Estimates the top singular value of `w` by power iteration, warm-starting
/// from (and updating) `u`, a vector of length `w.rows()`; runs
/// `iterations.max(1)` steps.
///
/// # Panics
/// Panics if `u.len() != w.rows()`.
pub fn estimate_sigma(w: &Matrix, u: &mut [f64], iterations: u32) -> f64 {
    let mut v = vec![0.0; w.cols()];
    let mut wv = vec![0.0; w.rows()];
    estimate_sigma_into(w, u, &mut v, &mut wv, iterations)
}

/// [`estimate_sigma`] without allocating: `v` (length `w.cols()`) is the
/// right-vector scratch and ends holding the normalized `Wᵀu` estimate;
/// `wv` (length `w.rows()`) ends holding the last unnormalized `W v`, which
/// both the new `u` and the Rayleigh quotient `σ = uᵀ W v` are read from,
/// so `W` is swept twice per iteration and not a third time for `σ`.
/// Bit-identical to [`estimate_sigma`].
///
/// # Panics
/// Panics if `u.len()` or `wv.len()` differs from `w.rows()`, or
/// `v.len() != w.cols()`.
pub fn estimate_sigma_into(
    w: &Matrix,
    u: &mut [f64],
    v: &mut [f64],
    wv: &mut [f64],
    iterations: u32,
) -> f64 {
    assert_eq!(u.len(), w.rows(), "power iteration u must match fan_in");
    assert_eq!(v.len(), w.cols(), "power iteration v must match fan_out");
    assert_eq!(wv.len(), w.rows(), "power iteration W v must match fan_in");
    for _ in 0..iterations_run(iterations) {
        // v ← normalize(Wᵀ u)
        #[expect(clippy::expect_used, reason = "`u`/`v` sized to `w` at entry (asserted above)")]
        w.tr_matvec_into(u, v).expect("shape checked");
        let nv = vector::norm2(v).max(f64::MIN_POSITIVE);
        vector::scale(v, 1.0 / nv);
        // u ← normalize(W v), keeping the unnormalized W v for σ.
        #[expect(clippy::expect_used, reason = "`v`/`wv` sized to `w` at entry (asserted above)")]
        w.matvec_into(v, wv).expect("shape checked");
        let nu = vector::norm2(wv).max(f64::MIN_POSITIVE);
        for (ui, &x) in u.iter_mut().zip(wv.iter()) {
            *ui = x / nu;
        }
    }
    // σ ≈ uᵀ W v, with the final v's W v from the last iteration.
    vector::dot(u, wv)
}

/// Enforces the spectral cap on a dense layer in place. Returns the sigma
/// estimate before rescaling (diagnostics). `scratch` holds the power
/// iteration's `v` and `W v` vectors back to back; it is resized to
/// `fan_out + fan_in` and allocates only while it grows.
pub fn enforce(layer: &mut Dense, cfg: &SpectralConfig, scratch: &mut Vec<f64>) -> f64 {
    faction_telemetry::counter_add(
        "nn.spectral.power_iterations",
        u64::from(iterations_run(cfg.power_iterations)),
    );
    scratch.resize(layer.fan_out() + layer.fan_in(), 0.0);
    let (v, wv) = scratch.split_at_mut(layer.fan_out());
    let sigma = estimate_sigma_into(&layer.w, &mut layer.power_u, v, wv, cfg.power_iterations);
    if sigma > cfg.cap && sigma.is_finite() && sigma > 0.0 {
        layer.w.scale(cfg.cap / sigma);
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_linalg::SeedRng;

    fn top_singular_value_exact(w: &Matrix) -> f64 {
        // Brute force via many power iterations from a fresh start.
        let mut u = vec![1.0; w.rows()];
        let n = vector::norm2(&u);
        vector::scale(&mut u, 1.0 / n);
        estimate_sigma(w, &mut u, 500)
    }

    #[test]
    fn sigma_of_diagonal_matrix() {
        let w = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let mut u = vec![0.6, 0.8];
        let sigma = estimate_sigma(&w, &mut u, 200);
        assert!((sigma - 3.0).abs() < 1e-6, "sigma {sigma}");
    }

    #[test]
    fn sigma_of_scaled_identity() {
        let mut w = Matrix::identity(4);
        w.scale(2.5);
        let mut u = vec![0.5; 4];
        let sigma = estimate_sigma(&w, &mut u, 50);
        assert!((sigma - 2.5).abs() < 1e-9);
    }

    #[test]
    fn enforce_caps_large_layers() {
        let mut rng = SeedRng::new(17);
        let mut layer = Dense::new(&mut rng, 8, 6, true);
        // Blow the weights up well past the cap.
        layer.w.scale(50.0);
        let cfg = SpectralConfig { cap: 1.0, power_iterations: 3 };
        // A few enforcement rounds emulate training-time repeated calls.
        for _ in 0..30 {
            enforce(&mut layer, &cfg, &mut Vec::new());
        }
        let sigma = top_singular_value_exact(&layer.w);
        assert!(sigma <= 1.05, "sigma after cap {sigma}");
    }

    #[test]
    fn enforce_leaves_small_layers_alone() {
        let mut rng = SeedRng::new(18);
        let mut layer = Dense::new(&mut rng, 5, 5, true);
        layer.w.scale(1e-3);
        let before = layer.w.clone();
        enforce(&mut layer, &SpectralConfig { cap: 3.0, power_iterations: 2 }, &mut Vec::new());
        assert_eq!(layer.w, before);
    }

    #[test]
    fn warm_start_u_is_reused() {
        let mut rng = SeedRng::new(19);
        let mut layer = Dense::new(&mut rng, 4, 4, true);
        let u_before = layer.power_u.clone();
        enforce(&mut layer, &SpectralConfig::default(), &mut Vec::new());
        assert_ne!(layer.power_u, u_before, "power-iteration state must advance");
        assert!((vector::norm2(&layer.power_u) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn in_place_power_iteration_matches_allocating_form_bitwise() {
        // The allocating formulation, step for step: fresh `Wᵀu`, fresh
        // `W v`, and a materialized `W v` for the final Rayleigh quotient.
        fn reference(w: &Matrix, u: &mut [f64], iterations: u32) -> f64 {
            let mut v = Vec::new();
            for _ in 0..iterations.max(1) {
                v = w.tr_matvec(u).unwrap();
                let nv = vector::norm2(&v).max(f64::MIN_POSITIVE);
                vector::scale(&mut v, 1.0 / nv);
                let new_u = w.matvec(&v).unwrap();
                let nu = vector::norm2(&new_u).max(f64::MIN_POSITIVE);
                for (ui, &nui) in u.iter_mut().zip(&new_u) {
                    *ui = nui / nu;
                }
            }
            vector::dot(u, &w.matvec(&v).unwrap())
        }
        let mut rng = SeedRng::new(23);
        let mut scratch = Vec::new();
        for &(fan_in, fan_out, iterations) in &[(16, 64, 1), (64, 32, 1), (32, 2, 3), (7, 7, 0)] {
            let mut layer = Dense::new(&mut rng, fan_in, fan_out, true);
            let mut u_ref = layer.power_u.clone();
            let want = reference(&layer.w, &mut u_ref, iterations);
            let cfg = SpectralConfig { cap: f64::INFINITY, power_iterations: iterations };
            let got = enforce(&mut layer, &cfg, &mut scratch);
            assert_eq!(got.to_bits(), want.to_bits(), "{fan_in}x{fan_out}");
            assert!(layer.power_u.iter().zip(&u_ref).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn power_iteration_counter_counts_the_steps_run() {
        // A request for zero steps still runs one (σ needs a `W v`), and
        // the counter must say so rather than the configured 0.
        use std::sync::Arc;
        let mut rng = SeedRng::new(29);
        let mut layer = Dense::new(&mut rng, 6, 5, true);
        let registry = Arc::new(faction_telemetry::Registry::new());
        {
            let handle = faction_telemetry::Handle::from(registry.clone());
            let _scope = handle.enter();
            let mut scratch = Vec::new();
            for iterations in [0, 1, 3] {
                let cfg = SpectralConfig { cap: f64::INFINITY, power_iterations: iterations };
                enforce(&mut layer, &cfg, &mut scratch);
            }
        }
        assert_eq!(registry.snapshot().counter("nn.spectral.power_iterations"), Some(1 + 1 + 3));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = SpectralConfig::default();
        assert!(cfg.cap > 0.0);
        assert!(cfg.power_iterations >= 1);
    }
}
