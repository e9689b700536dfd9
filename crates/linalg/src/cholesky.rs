//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The fairness-sensitive density estimator (paper Sec. IV-B) fits one
//! Gaussian per (class, sensitive) pair; evaluating its log-density requires
//! the Mahalanobis form `(z-μ)ᵀ Σ⁻¹ (z-μ)` and `log |Σ|`. Both come straight
//! from the Cholesky factor `Σ = L Lᵀ`: the quadratic form is `‖L⁻¹(z-μ)‖²`
//! (one forward substitution) and `log|Σ| = 2 Σᵢ log Lᵢᵢ`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

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

    /// Batched forward substitution: solves `L Y = B` for a whole matrix of
    /// right-hand sides at once, one per **column** of `B`.
    ///
    /// `b` is `dim() × N` (each column an independent RHS) and `y` receives
    /// the `dim() × N` solution. The row sweep applies every elimination
    /// step to all N columns with contiguous axpy/scale passes, so the work
    /// per RHS is the same O(d²) as [`Cholesky::solve_lower`] but the inner
    /// loops stream cache lines instead of striding — this is what lets the
    /// GDA estimator score a whole candidate pool per component in one call.
    ///
    /// Per column, the operation sequence (subtract `l[i][k]·y[k]` for
    /// ascending `k`, then divide by `l[i][i]`) is exactly the scalar
    /// solver's, so each column is bit-identical to `solve_lower` of that
    /// column.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != dim()` or `y`
    /// has a different shape than `b`.
    // analyzer:hot-path
    pub fn solve_lower_batch_into(&self, b: &Matrix, y: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if b.rows() != n || y.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{n}x{n} vs b {}x{}", b.rows(), b.cols()), // analyzer:allow(hot-path-alloc): cold shape-mismatch exit, never taken on the scoring path
                right: format!("y {}x{}", y.rows(), y.cols()),
                op: "solve_lower_batch_into",
            });
        }
        let ncols = b.cols();
        y.as_mut_slice().copy_from_slice(b.as_slice());
        let data = y.as_mut_slice();
        for i in 0..n {
            let (solved, rest) = data.split_at_mut(i * ncols);
            let row_i = &mut rest[..ncols];
            for k in 0..i {
                let lik = self.l.get(i, k);
                let row_k = &solved[k * ncols..(k + 1) * ncols];
                for (yi, &yk) in row_i.iter_mut().zip(row_k) {
                    *yi -= lik * yk;
                }
            }
            let lii = self.l.get(i, i);
            for yi in row_i.iter_mut() {
                *yi /= lii;
            }
        }
        Ok(())
    }

    /// Batched Mahalanobis quadratic forms: for each column `b_j` of `b`,
    /// computes `‖L⁻¹ b_j‖²` into `out[j]`, using `y` as solve scratch.
    ///
    /// Each result is bit-identical to [`Cholesky::quadratic_form`] on the
    /// corresponding column (the row-major squared-sum accumulates over
    /// ascending rows, matching the scalar dot's ascending order).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on any shape disagreement.
    // analyzer:hot-path
    // analyzer:ordered: ascending-row squared-sum matches the scalar dot's order
    pub fn quadratic_forms_batch_into(
        &self,
        b: &Matrix,
        y: &mut Matrix,
        out: &mut [f64],
    ) -> Result<()> {
        if out.len() != b.cols() {
            return Err(LinalgError::ShapeMismatch {
                left: format!("b {}x{}", b.rows(), b.cols()), // analyzer:allow(hot-path-alloc): cold shape-mismatch exit, never taken on the scoring path
                right: format!("out len {}", out.len()),
                op: "quadratic_forms_batch_into",
            });
        }
        self.solve_lower_batch_into(b, y)?;
        out.fill(0.0);
        for r in 0..y.rows() {
            for (o, &v) in out.iter_mut().zip(y.row(r)) {
                *o += v * v;
            }
        }
        Ok(())
    }

    /// Mahalanobis quadratic form `bᵀ A⁻¹ b = ‖L⁻¹ b‖²`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn quadratic_form(&self, b: &[f64]) -> Result<f64> {
        let y = self.solve_lower(b)?;
        Ok(crate::vector::dot(&y, &y))
    }

    /// `log |A| = 2 Σᵢ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        // analyzer:ordered: ascending-diagonal log sum
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Reconstructs `A = L Lᵀ` (mainly for testing and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        self.l
            .matmul(&self.l.transpose())
            // analyzer:allow(unwrap-in-lib): L is square, so L·Lᵀ cannot shape-mismatch
            .expect("factor is square; product cannot fail")
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
    fn batch_solve_matches_scalar_bitwise() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        // Five RHS as columns of a 3x5 matrix.
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..3).map(|i| (i as f64 - 1.3) * (j as f64 + 0.7)).collect())
            .collect();
        let mut b = Matrix::zeros(3, 5);
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                b.set(i, j, v);
            }
        }
        let mut y = Matrix::zeros(3, 5);
        c.solve_lower_batch_into(&b, &mut y).unwrap();
        let mut q = vec![0.0; 5];
        let mut scratch = Matrix::zeros(3, 5);
        c.quadratic_forms_batch_into(&b, &mut scratch, &mut q).unwrap();
        for (j, col) in cols.iter().enumerate() {
            let want = c.solve_lower(col).unwrap();
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(w.to_bits(), y.get(i, j).to_bits(), "col {j} row {i}");
            }
            assert_eq!(c.quadratic_form(col).unwrap().to_bits(), q[j].to_bits(), "qform {j}");
        }
    }

    #[test]
    fn batch_solve_rejects_bad_shapes() {
        let c = Cholesky::factor(&Matrix::identity(3)).unwrap();
        let b = Matrix::zeros(2, 4);
        let mut y = Matrix::zeros(2, 4);
        assert!(c.solve_lower_batch_into(&b, &mut y).is_err());
        let b = Matrix::zeros(3, 4);
        let mut y = Matrix::zeros(3, 3);
        assert!(c.solve_lower_batch_into(&b, &mut y).is_err());
        let mut y = Matrix::zeros(3, 4);
        let mut out = vec![0.0; 2];
        assert!(c.quadratic_forms_batch_into(&b, &mut y, &mut out).is_err());
    }

    #[test]
    fn solve_rejects_bad_len() {
        let c = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(c.solve(&[1.0]).is_err());
        assert!(c.quadratic_form(&[1.0, 2.0]).is_err());
    }
}
