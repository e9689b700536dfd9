//! Cross-backend equivalence property suite.
//!
//! The dispatch facade promises that [`KernelBackend::Scalar`] and
//! [`KernelBackend::Simd`] are the *same arithmetic* — not merely close.
//! This suite drives both backends over
//! random shapes (including degenerate ones: `0×N`, `1×1`, `K = 0`, and
//! tails that are not multiples of the `MR`/`NR`/`KC` tile sizes) and
//! asserts both the ≤ 1e-10 numeric bound the issue asks for and the
//! stronger bit-for-bit equality the kernels are engineered to provide.
//!
//! The backend-specific entry points (`matmul_blocked`, `matmul_simd_into`)
//! are exercised directly so the property runs do not race other tests over
//! the process-global dispatch; the global facade
//! (`Matrix::matmul_into` under `set_active_backend`) is covered once under
//! a local mutex.

use std::sync::Mutex;

use faction_linalg::kernels::{matmul_blocked, matmul_simple, KC, MR, NR};
use faction_linalg::simd::matmul_simd_into;
use faction_linalg::{dispatch, KernelBackend, Matrix, SeedRng};
use proptest::prelude::*;

/// Guards the process-global backend so facade tests never interleave.
static GLOBAL_BACKEND: Mutex<()> = Mutex::new(());

fn random_mat(rows: usize, cols: usize, rng: &mut SeedRng) -> Vec<f64> {
    (0..rows * cols).map(|_| rng.uniform_range(-3.0, 3.0)).collect()
}

/// Runs one `(m, k, n)` product through both backends and checks both
/// the 1e-10 bound and exact bit equality against the i-k-j reference.
fn assert_all_backends_agree(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let mut reference = vec![0.0; m * n];
    matmul_simple(&a, &b, &mut reference, m, k, n);

    let mut scalar = vec![0.0; m * n];
    matmul_blocked(&a, &b, &mut scalar, m, k, n);
    let mut simd = vec![0.0; m * n];
    matmul_simd_into(&a, &b, &mut simd, m, k, n);

    for (name, got) in [("scalar", &scalar), ("simd", &simd)] {
        for (i, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
            assert!(
                (r - g).abs() <= 1e-10,
                "{name} {m}x{k}x{n} elem {i}: {r} vs {g}"
            );
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "{name} {m}x{k}x{n} elem {i} not bit-identical"
            );
        }
    }
}

proptest! {
    #[test]
    fn gemm_backends_agree_on_random_shapes(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        assert_all_backends_agree(m, k, n, seed);
    }

    #[test]
    fn gemm_backends_agree_on_tile_tails(
        dm in 0usize..MR,
        dk in 0usize..7,
        dn in 0usize..NR,
        seed in 0u64..1000,
    ) {
        // Shapes straddling every blocking boundary: one-past and one-short
        // of the register tile (MR × NR) and the k-panel (KC).
        assert_all_backends_agree(16 * MR + dm + 1, dk + 1, NR + dn + 1, seed);
        assert_all_backends_agree(MR + dm, KC + dk, NR + dn + 1, seed.wrapping_add(1));
    }

    #[test]
    fn transposed_products_and_matvec_agree_under_every_backend(
        m in 1usize..24,
        k in 1usize..20,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        // matmul_tn_into / matmul_nt_into / matvec_into are part of the
        // public product surface the issue names: pin that their results do
        // not depend on the active backend (they share the facade's
        // bit-identity contract trivially today; this test keeps it true if
        // they are ever routed through the dispatch).
        let _guard = GLOBAL_BACKEND.lock().unwrap();
        let prev = dispatch::active_backend();
        let mut rng = SeedRng::new(seed);
        let at = Matrix::from_vec(k, m, random_mat(k, m, &mut rng)).unwrap();
        let b = Matrix::from_vec(k, n, random_mat(k, n, &mut rng)).unwrap();
        let bt = Matrix::from_vec(n, k, random_mat(n, k, &mut rng)).unwrap();
        let a = Matrix::from_vec(m, k, random_mat(m, k, &mut rng)).unwrap();
        let x = random_mat(k, 1, &mut rng);

        let mut results: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            dispatch::set_active_backend(backend);
            let mut tn = Matrix::zeros(m, n);
            at.matmul_tn_into(&b, &mut tn).unwrap();
            let mut nt = Matrix::zeros(m, n);
            a.matmul_nt_into(&bt, &mut nt).unwrap();
            let mut mv = vec![0.0; m];
            a.matvec_into(&x, &mut mv).unwrap();
            results.push((tn.as_slice().to_vec(), nt.as_slice().to_vec(), mv));
        }
        dispatch::set_active_backend(prev);
        let (tn0, nt0, mv0) = &results[0];
        for (tn, nt, mv) in &results[1..] {
            prop_assert!(tn0.iter().zip(tn).all(|(x, y)| (x - y).abs() <= 1e-10));
            prop_assert!(nt0.iter().zip(nt).all(|(x, y)| (x - y).abs() <= 1e-10));
            prop_assert!(mv0.iter().zip(mv).all(|(x, y)| (x - y).abs() <= 1e-10));
            prop_assert!(tn0.iter().zip(tn).all(|(x, y)| x.to_bits() == y.to_bits()));
            prop_assert!(nt0.iter().zip(nt).all(|(x, y)| x.to_bits() == y.to_bits()));
            prop_assert!(mv0.iter().zip(mv).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[test]
fn degenerate_shapes_agree_across_backends() {
    // 0×N, 1×1, K = 0, empty output — every backend must fall through the
    // same small-shape path without panicking.
    for &(m, k, n) in &[
        (0usize, 5usize, 7usize),
        (5, 0, 7),
        (0, 0, 0),
        (1, 1, 1),
        (3, 4, 0),
        (0, 7, 0),
        (1, KC + 3, 1),
    ] {
        assert_all_backends_agree(m, k, n, 99);
    }
}

#[test]
fn facade_dispatch_honors_every_backend_bitwise() {
    // Matrix::matmul_into through the *global* dispatch, each backend in
    // turn, against the naive product — under the mutex so concurrent tests
    // cannot flip the backend mid-check.
    let _guard = GLOBAL_BACKEND.lock().unwrap();
    let prev = dispatch::active_backend();
    let mut rng = SeedRng::new(7);
    let (m, k, n) = (70, 33, 29);
    let a = Matrix::from_vec(m, k, random_mat(m, k, &mut rng)).unwrap();
    let b = Matrix::from_vec(k, n, random_mat(k, n, &mut rng)).unwrap();
    let mut reference = vec![0.0; m * n];
    matmul_simple(a.as_slice(), b.as_slice(), &mut reference, m, k, n);
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        dispatch::set_active_backend(backend);
        let mut out = Matrix::zeros(m, n);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(dispatch::active_backend(), backend);
        for (r, g) in reference.iter().zip(out.as_slice()) {
            assert_eq!(r.to_bits(), g.to_bits(), "backend {backend}");
        }
    }
    dispatch::set_active_backend(prev);
}
