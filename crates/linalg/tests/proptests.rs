//! Property-based tests for the linear-algebra substrate.

use std::f64::consts::PI;

use faction_linalg::cholesky::PANEL;
use faction_linalg::rng::block_rotation;
use faction_linalg::{kernels, vector, Cholesky, Matrix, SeedRng};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, len)
}

proptest! {
    #[test]
    fn dot_is_commutative(a in finite_vec(8), b in finite_vec(8)) {
        let ab = vector::dot(&a, &b);
        let ba = vector::dot(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn dot_is_bilinear(a in finite_vec(6), b in finite_vec(6), alpha in -10.0..10.0f64) {
        let scaled: Vec<f64> = a.iter().map(|x| alpha * x).collect();
        let lhs = vector::dot(&scaled, &b);
        let rhs = alpha * vector::dot(&a, &b);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn norm_triangle_inequality(a in finite_vec(8), b in finite_vec(8)) {
        let sum = vector::add(&a, &b);
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&a) + vector::norm2(&b) + 1e-9);
    }

    #[test]
    fn min_max_normalize_bounds(a in proptest::collection::vec(-1e6..1e6f64, 1..64)) {
        let n = vector::min_max_normalize(&a);
        prop_assert_eq!(n.len(), a.len());
        for v in &n {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn min_max_normalize_preserves_order(a in proptest::collection::vec(-1e3..1e3f64, 2..32)) {
        let n = vector::min_max_normalize(&a);
        for i in 0..a.len() {
            for j in 0..a.len() {
                if a[i] < a[j] {
                    prop_assert!(n[i] <= n[j] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn logsumexp_ge_max(a in proptest::collection::vec(-50.0..50.0f64, 1..32)) {
        let m = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = vector::logsumexp(&a);
        prop_assert!(lse >= m - 1e-12);
        prop_assert!(lse <= m + (a.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn matmul_associative(seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let rand_mat = |rng: &mut SeedRng, r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
            Matrix::from_vec(r, c, data).unwrap()
        };
        let a = rand_mat(&mut rng, 3, 4);
        let b = rand_mat(&mut rng, 4, 5);
        let c = rand_mat(&mut rng, 5, 2);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_reverses_product(seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let rand_mat = |rng: &mut SeedRng, r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
            Matrix::from_vec(r, c, data).unwrap()
        };
        let a = rand_mat(&mut rng, 3, 4);
        let b = rand_mat(&mut rng, 4, 2);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_solve_roundtrip(seed in 0u64..500) {
        // Build an SPD matrix A = G Gᵀ + I and verify A * solve(A, b) == b.
        let mut rng = SeedRng::new(seed);
        let d = 4;
        let g_data: Vec<f64> = (0..d * d).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let g = Matrix::from_vec(d, d, g_data).unwrap();
        let mut a = g.matmul(&g.transpose()).unwrap();
        a.add_diagonal(1.0);
        let chol = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..d).map(|_| rng.uniform_range(-5.0, 5.0)).collect();
        let x = chol.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8);
        }
        // Quadratic form must be non-negative for SPD A.
        prop_assert!(chol.quadratic_form(&b).unwrap() >= 0.0);
    }

    #[test]
    fn rotation_is_orthogonal(angle in -PI..PI, seed in 0u64..100) {
        let mut rng = SeedRng::new(seed);
        let d = 6;
        let r = block_rotation(d, angle);
        let v: Vec<f64> = (0..d).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
        let rv = r.matvec(&v).unwrap();
        prop_assert!((vector::norm2(&v) - vector::norm2(&rv)).abs() < 1e-9);
        // Rᵀ R = I.
        let rtr = r.transpose().matmul(&r).unwrap();
        let id = Matrix::identity(d);
        for (x, y) in rtr.as_slice().iter().zip(id.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn covariance_psd(seed in 0u64..300, n in 2usize..20) {
        let mut rng = SeedRng::new(seed);
        let d = 3;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.uniform_range(-4.0, 4.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cov = faction_linalg::stats::covariance(&refs, 1e-8).unwrap();
        prop_assert!(cov.is_symmetric(1e-10));
        // PSD check via jittered Cholesky (must succeed with tiny jitter).
        prop_assert!(Cholesky::factor_with_jitter(&cov, 1e-10, 10).is_ok());
    }

    #[test]
    fn bernoulli_extremes(seed in 0u64..100) {
        let mut rng = SeedRng::new(seed);
        prop_assert!(rng.bernoulli(1.0));
        prop_assert!(!rng.bernoulli(0.0));
    }

    #[test]
    fn blocked_matmul_matches_simple_bitwise(
        seed in 0u64..200,
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
    ) {
        let mut rng = SeedRng::new(seed);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0)).collect())
            .unwrap();
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.uniform_range(-2.0, 2.0)).collect())
            .unwrap();
        let blocked = a.matmul(&b).unwrap();
        let mut simple = vec![0.0; m * n];
        kernels::matmul_simple(a.as_slice(), b.as_slice(), &mut simple, m, k, n);
        for (x, y) in blocked.as_slice().iter().zip(&simple) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "blocked {} vs simple {}", x, y);
        }
    }

    #[test]
    fn matvec_matches_the_per_row_dot_bitwise(
        seed in 0u64..300,
        m in 1usize..40,
        k in 0usize..70,
        zero_row in 0usize..40,
        negative_zero in 0usize..2,
    ) {
        // Row blocks of 8 dots at once plus a per-row tail, against one
        // `vector::dot` per row, bitwise. One row is all zeros of either
        // sign, so zero signs are compared too, and k = 0 is the empty dot.
        let mut rng = SeedRng::new(seed);
        let mut data: Vec<f64> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let z = zero_row % m;
        let zero = if negative_zero == 1 { -0.0 } else { 0.0 };
        data[z * k..(z + 1) * k].fill(zero);
        let a = Matrix::from_vec(m, k, data).unwrap();
        let x: Vec<f64> = (0..k).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let mut got = vec![f64::NAN; m];
        a.matvec_into(&x, &mut got).unwrap();
        for (i, g) in got.iter().enumerate() {
            let want = vector::dot(&a.as_slice()[i * k..(i + 1) * k], &x);
            prop_assert_eq!(want.to_bits(), g.to_bits(), "row {} of {}x{}", i, m, k);
        }
    }

    #[test]
    fn blocked_transpose_matches_elementwise(seed in 0u64..200, m in 1usize..70, n in 1usize..70) {
        let mut rng = SeedRng::new(seed);
        let a = Matrix::from_vec(m, n, (0..m * n).map(|_| rng.uniform_range(-3.0, 3.0)).collect())
            .unwrap();
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (n, m));
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(a.get(i, j).to_bits(), t.get(j, i).to_bits());
            }
        }
    }

    #[test]
    fn mahalanobis_panel_matches_per_column(
        seed in 0u64..150,
        d in 1usize..40,
        width in 1usize..PANEL + 1,
    ) {
        // The panel kernel against one solve_lower + dot per point, lane
        // for lane; lanes past `width` hold zeros, as in a partial last
        // panel of the GDA scorer.
        let mut rng = SeedRng::new(seed);
        let g = Matrix::from_vec(d, d, (0..d * d).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
            .unwrap();
        let mut spd = g.matmul(&g.transpose()).unwrap();
        spd.add_diagonal(1.0);
        let chol = Cholesky::factor(&spd).unwrap();
        let mean: Vec<f64> = (0..d).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let mut xt = vec![[0.0; PANEL]; d];
        for row in xt.iter_mut() {
            for v in row[..width].iter_mut() {
                *v = rng.uniform_range(-5.0, 5.0);
            }
        }
        let mut y = vec![[f64::NAN; PANEL]; d];
        let mut out = [f64::NAN; PANEL];
        chol.mahalanobis_panel_into(&mean, &xt, &mut y, &mut out);
        for (j, &q) in out.iter().enumerate() {
            let centered: Vec<f64> = (0..d).map(|i| xt[i][j] - mean[i]).collect();
            let solved = chol.solve_lower(&centered).unwrap();
            for (i, want) in solved.iter().enumerate() {
                prop_assert_eq!(y[i][j].to_bits(), want.to_bits());
            }
            prop_assert_eq!(q.to_bits(), vector::dot(&solved, &solved).to_bits());
        }
    }

    #[test]
    fn covariance_matches_the_rank1_row_loop_bitwise(
        seed in 0u64..200,
        n in 1usize..160,
        d in 1usize..40,
        relu in any::<bool>(),
    ) {
        // ReLU features carry exact zeros, whose rank-1 terms the row loop
        // skips; the packed product adds them and must still agree bit for
        // bit (a sum seeded with +0.0 never turns into -0.0).
        let mut rng = SeedRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        let x = rng.uniform_range(-3.0, 3.0);
                        if relu { x.max(0.0) } else { x }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let want = covariance_by_row_loop(&refs, 1e-3);
        let got = faction_linalg::stats::covariance(&refs, 1e-3).unwrap();
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "packed {} vs row loop {}", x, y);
        }
    }
}

#[test]
fn covariance_matches_the_row_loop_at_pool_shapes() {
    // Labeled-pool cells of ReLU features: d = 32, a few hundred rows, so
    // the product runs the blocked kernel across several k-panels.
    let mut rng = SeedRng::new(5);
    for n in [100usize, 375, 800] {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..32).map(|_| rng.normal(0.2, 1.0).max(0.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let want = covariance_by_row_loop(&refs, 1e-3);
        let (mean, got) = faction_linalg::stats::mean_and_covariance(&refs, 1e-3).unwrap();
        assert_eq!(mean, faction_linalg::stats::mean_vector(&refs).unwrap());
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "n = {n}: packed {x} vs row loop {y}");
        }
    }
}

/// The row-by-row covariance `stats::covariance` used before it went
/// through the packed `Aᵀ·B` kernel: one lower-triangle rank-1 term per
/// row (zero terms skipped), scaled by `1/n`, mirrored, plus `ridge·I`.
fn covariance_by_row_loop(rows: &[&[f64]], ridge: f64) -> Matrix {
    let mean = faction_linalg::stats::mean_vector(rows).unwrap();
    let d = mean.len();
    let mut cov = Matrix::zeros(d, d);
    let mut centered = vec![0.0; d];
    for row in rows {
        for (c, (&x, &m)) in row.iter().zip(&mean).enumerate() {
            centered[c] = x - m;
        }
        for i in 0..d {
            let ci = centered[i];
            if ci == 0.0 {
                continue;
            }
            let cov_row = cov.row_mut(i);
            for j in 0..=i {
                cov_row[j] += ci * centered[j];
            }
        }
    }
    let inv_n = 1.0 / rows.len() as f64;
    for i in 0..d {
        for j in 0..=i {
            let v = cov.get(i, j) * inv_n;
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    cov.add_diagonal(ridge);
    cov
}

/// The explicit left-to-right sum these reductions are defined by: folded
/// from `-0.0`, the identity `f64`'s `Sum` starts from, so zero signs
/// compare too.
fn left_to_right(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(-0.0, |acc, t| acc + t)
}

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, 3..40)
}

// The float reductions whose evaluation order no end-to-end suite pins:
// each must equal its left-to-right fold bit for bit, so a reordered sum
// fails here instead of drifting the scores by an ulp.
proptest! {
    #[test]
    fn dist2_is_the_left_to_right_sum_bitwise(a in samples(), seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let b: Vec<f64> = a.iter().map(|_| rng.uniform_range(-100.0, 100.0)).collect();
        let want = left_to_right(a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)));
        prop_assert_eq!(vector::dist2(&a, &b).to_bits(), want.to_bits());
    }

    #[test]
    fn mean_and_variance_are_left_to_right_sums_bitwise(a in samples()) {
        let n = a.len() as f64;
        let mean = left_to_right(a.iter().copied()) / n;
        let variance = left_to_right(a.iter().map(|v| (v - mean) * (v - mean))) / (n - 1.0);
        prop_assert_eq!(vector::mean(&a).map(f64::to_bits), Some(mean.to_bits()));
        prop_assert_eq!(vector::variance(&a).map(f64::to_bits), Some(variance.to_bits()));
    }

    #[test]
    fn logsumexp_is_the_left_to_right_sum_bitwise(
        a in proptest::collection::vec(-3.0..3.0f64, 3..40),
    ) {
        // A narrow range, so every exp term is within e⁻⁶ of the largest
        // and none vanishes in the sum: the order shows in the last bits.
        let m = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let want = m + left_to_right(a.iter().map(|v| (v - m).exp())).ln();
        prop_assert_eq!(vector::logsumexp(&a).to_bits(), want.to_bits());
    }

    #[test]
    fn pearson_is_one_left_to_right_pass_bitwise(a in samples(), seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let b: Vec<f64> = a.iter().map(|_| rng.uniform_range(-100.0, 100.0)).collect();
        let n = a.len() as f64;
        let (ma, mb) = (left_to_right(a.iter().copied()) / n, left_to_right(b.iter().copied()) / n);
        let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
        for (x, y) in a.iter().zip(&b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma) * (x - ma);
            vb += (y - mb) * (y - mb);
        }
        let want = cov / (va.sqrt() * vb.sqrt());
        let got = faction_linalg::stats::pearson(&a, &b);
        prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()));
    }

    #[test]
    fn log_det_is_the_left_to_right_diagonal_sum_bitwise(seed in 0u64..500, d in 3usize..12) {
        let mut rng = SeedRng::new(seed);
        let g_data: Vec<f64> = (0..d * d).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let g = Matrix::from_vec(d, d, g_data).unwrap();
        let mut a = g.matmul(&g.transpose()).unwrap();
        a.add_diagonal(1.0);
        let chol = Cholesky::factor(&a).unwrap();
        let l = chol.factor_l();
        let want = left_to_right((0..d).map(|i| l.get(i, i).ln())) * 2.0;
        prop_assert_eq!(chol.log_det().to_bits(), want.to_bits());
    }
}
