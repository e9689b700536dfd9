//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The fairness-sensitive density estimator (paper Sec. IV-B) fits one
//! Gaussian per (class, sensitive) pair; evaluating its log-density requires
//! the Mahalanobis form `(z-μ)ᵀ Σ⁻¹ (z-μ)` and `log |Σ|`. Both come straight
//! from the Cholesky factor `Σ = L Lᵀ`: the quadratic form is `‖L⁻¹(z-μ)‖²`
//! (one forward substitution) and `log|Σ| = 2 Σᵢ log Lᵢᵢ`.
//!
//! Scoring a candidate batch runs the forward substitution on panels of
//! [`PANEL`] points at once ([`Cholesky::mahalanobis_panel_into`]): the
//! points are the lanes, so each element of `L` is loaded once per panel
//! and the whole working set stays in L1.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Points per forward-substitution panel: eight 256-bit (four 512-bit)
/// vectors of f64 lanes.
pub const PANEL: usize = 32;

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass matrices
    /// whose upper triangle carries numerical noise.
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", a.rows(), a.cols()),
                right: "square".into(),
                op: "cholesky",
            });
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a`, retrying with exponentially growing diagonal jitter
    /// when `a` is only positive **semi**-definite (common for empirical
    /// covariances of small or degenerate sample sets).
    ///
    /// Starts at `initial_jitter` and multiplies by 10 up to `max_tries`
    /// times. The GDA estimator relies on this to stay well-defined when a
    /// (class, sensitive) component has very few members early in a stream.
    ///
    /// # Errors
    /// Returns the final [`LinalgError::NotPositiveDefinite`] if the jitter
    /// budget is exhausted, or any shape error immediately.
    pub fn factor_with_jitter(a: &Matrix, initial_jitter: f64, max_tries: u32) -> Result<Self> {
        match Self::factor(a) {
            Ok(c) => return Ok(c),
            Err(e @ LinalgError::ShapeMismatch { .. }) => return Err(e),
            Err(_) => {}
        }
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        let mut last = LinalgError::NotPositiveDefinite { pivot: 0 };
        for _ in 0..max_tries {
            let mut jittered = a.clone();
            jittered.add_diagonal(jitter);
            match Self::factor(&jittered) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            jitter *= 10.0;
        }
        Err(last)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{n}x{n}"),
                right: format!("len {}", b.len()),
                op: "solve_lower",
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                sum -= self.l.get(i, k) * yk;
            }
            y[i] = sum / self.l.get(i, i);
        }
        Ok(y)
    }

    /// Solves `Lᵀ x = y` by backward substitution.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `y.len() != dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{n}x{n}"),
                right: format!("len {}", y.len()),
                op: "solve_upper",
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.l.get(k, i) * xk;
            }
            x[i] = sum / self.l.get(i, i);
        }
        Ok(x)
    }

    /// Solves the full system `A x = b` where `A = L Lᵀ`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Mahalanobis quadratic form `bᵀ A⁻¹ b = ‖L⁻¹ b‖²`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn quadratic_form(&self, b: &[f64]) -> Result<f64> {
        let y = self.solve_lower(b)?;
        Ok(crate::vector::dot(&y, &y))
    }

    /// Squared Mahalanobis distances of one panel of points from `mean`:
    /// lane `j` of `out` receives `‖L⁻¹(x_j − μ)‖²`, where `x_j` is lane `j`
    /// of the transposed panel `xt` (row `i` holds coordinate `i` of all
    /// [`PANEL`] points). `y` is scratch for the `d` solved rows; it is
    /// written before it is read, so its contents on entry do not matter.
    ///
    /// Every lane performs exactly the sequence of
    /// [`Cholesky::quadratic_form`] on `x_j − μ`: centre (`x − μ`), subtract
    /// `l[i][k]·y[k]` for ascending `k` as a rounded multiply and a rounded
    /// subtract (rustc never contracts them into an FMA), divide by
    /// `l[i][i]`, and sum `y_i²` over ascending `i` from `+0.0`. So each lane
    /// is bit for bit the scalar path's value.
    ///
    /// The lanes run in the innermost loops, and row `i` is built in a local
    /// panel (`acc`) and the squared sums in another (`q`), so the compiler
    /// vectorizes across the lanes and keeps both in registers across the
    /// `k` sweep.
    ///
    /// # Panics
    /// Panics if `mean`, `xt` or `y` does not have `dim()` entries (rows).
    // analyzer:hot-path
    // analyzer:ordered: per lane, ascending-k multiply then subtract, one divide per row, and the squares summed over ascending rows from +0.0 — the solve_lower + dot sequence
    pub fn mahalanobis_panel_into(
        &self,
        mean: &[f64],
        xt: &[[f64; PANEL]],
        y: &mut [[f64; PANEL]],
        out: &mut [f64; PANEL],
    ) {
        let d = self.dim();
        assert!(
            mean.len() == d && xt.len() == d && y.len() == d,
            "mahalanobis_panel: dim {d}, mean {}, xt {} rows, y {} rows",
            mean.len(),
            xt.len(),
            y.len()
        );
        let l = self.l.as_slice();
        let mut q = [0.0; PANEL];
        for i in 0..d {
            let (solved, rest) = y.split_at_mut(i);
            let mi = mean[i];
            let mut acc = [0.0; PANEL];
            for (a, &x) in acc.iter_mut().zip(&xt[i]) {
                *a = x - mi;
            }
            let row = &l[i * d..(i + 1) * d];
            for (&lik, yk) in row[..i].iter().zip(solved.iter()) {
                for (a, &w) in acc.iter_mut().zip(yk) {
                    *a -= lik * w;
                }
            }
            let lii = row[i];
            for ((o, v), a) in q.iter_mut().zip(rest[0].iter_mut()).zip(acc) {
                let a = a / lii;
                *v = a;
                *o += a * a;
            }
        }
        *out = q;
    }

    /// `log |A| = 2 Σᵢ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        // analyzer:ordered: ascending-diagonal log sum
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Reconstructs `A = L Lᵀ` (mainly for testing and diagnostics).
    #[expect(clippy::expect_used, reason = "L is square, so L·Lᵀ cannot shape-mismatch")]
    pub fn reconstruct(&self) -> Matrix {
        self.l.matmul(&self.l.transpose()).expect("factor is square; product cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B is SPD.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let r = c.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r.get(i, j) - a.get(i, j)).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_identity_scaling() {
        let mut a = Matrix::identity(4);
        a.scale(2.0);
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - 4.0 * 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn quadratic_form_identity_is_norm_sq() {
        let c = Cholesky::factor(&Matrix::identity(3)).unwrap();
        let q = c.quadratic_form(&[1.0, 2.0, 2.0]).unwrap();
        assert!((q - 9.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // indefinite
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 PSD matrix: xxᵀ with x = (1, 1).
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let c = Cholesky::factor_with_jitter(&a, 1e-9, 12).unwrap();
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn jitter_gives_up_eventually() {
        // Strongly indefinite matrix that small jitter cannot fix.
        let a = Matrix::from_rows(&[vec![0.0, 5.0], vec![5.0, 0.0]]).unwrap();
        assert!(Cholesky::factor_with_jitter(&a, 1e-12, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "mahalanobis_panel")]
    fn panel_rejects_a_wrong_dimension() {
        let c = Cholesky::factor(&Matrix::identity(3)).unwrap();
        let (xt, mut y, mut out) = ([[0.0; PANEL]; 2], [[0.0; PANEL]; 2], [0.0; PANEL]);
        c.mahalanobis_panel_into(&[0.0; 2], &xt, &mut y, &mut out);
    }

    #[test]
    fn solve_rejects_bad_len() {
        let c = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(c.solve(&[1.0]).is_err());
        assert!(c.quadratic_form(&[1.0, 2.0]).is_err());
    }
}
