//! Multivariate sample statistics used by the density estimator.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Column-wise mean of a set of equal-length feature vectors.
///
/// # Errors
/// Returns [`LinalgError::EmptyInput`] for an empty set and
/// [`LinalgError::ShapeMismatch`] for ragged rows.
pub fn mean_vector(rows: &[&[f64]]) -> Result<Vec<f64>> {
    let first = rows.first().ok_or(LinalgError::EmptyInput { op: "mean_vector" })?;
    let d = first.len();
    let mut mean = vec![0.0; d];
    for (i, row) in rows.iter().enumerate() {
        if row.len() != d {
            return Err(LinalgError::ShapeMismatch {
                left: format!("row 0 len {d}"),
                right: format!("row {i} len {}", row.len()),
                op: "mean_vector",
            });
        }
        crate::vector::axpy(1.0, row, &mut mean);
    }
    crate::vector::scale(&mut mean, 1.0 / rows.len() as f64);
    Ok(mean)
}

/// Column mean and centered scatter `S = Σᵢ (xᵢ−μ)(xᵢ−μ)ᵀ` of a row set.
///
/// The rows are centered into one `n × d` matrix `Xc` and `S = Xcᵀ·Xc` is
/// formed by the packed `Aᵀ·B` kernel ([`Matrix::matmul_tn_into`]). Every
/// entry is the ascending-row sum of `(xᵣᵢ−μᵢ)·(xᵣⱼ−μⱼ)` seeded with `+0.0`,
/// so `S` is exactly symmetric and bit-identical to accumulating one
/// rank-1 term per row in row order.
///
/// # Errors
/// Returns [`LinalgError::EmptyInput`] for an empty set and
/// [`LinalgError::ShapeMismatch`] for ragged rows.
pub fn mean_and_scatter(rows: &[&[f64]]) -> Result<(Vec<f64>, Matrix)> {
    let mean = mean_vector(rows)?;
    let d = mean.len();
    let mut centered = Matrix::zeros(rows.len(), d);
    for (r, row) in rows.iter().enumerate() {
        for ((c, &x), &m) in centered.row_mut(r).iter_mut().zip(row.iter()).zip(&mean) {
            *c = x - m;
        }
    }
    let mut scatter = Matrix::zeros(d, d);
    centered.matmul_tn_into(&centered, &mut scatter)?;
    Ok((mean, scatter))
}

/// The maximum-likelihood covariance `S/n + ridge·I` of `n` rows whose
/// centered scatter is `S` (see [`mean_and_scatter`]).
///
/// Reads only the lower triangle of `scatter` and mirrors it, so a caller
/// that maintains just that triangle (the incremental GDA) gets the same
/// matrix, bit for bit, as [`covariance`] over the same scatter. The
/// caller validates `ridge` (non-negative).
pub fn covariance_from_scatter(scatter: &Matrix, n: usize, ridge: f64) -> Matrix {
    let d = scatter.rows();
    let inv_n = 1.0 / n as f64;
    let mut cov = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..=i {
            let v = scatter.get(i, j) * inv_n;
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    cov.add_diagonal(ridge);
    cov
}

/// Empirical covariance matrix with additive ridge on the diagonal.
///
/// Uses the maximum-likelihood normalization (divide by `n`) plus
/// `ridge * I`; the ridge keeps the matrix positive definite even for a
/// single sample (where the raw covariance is the zero matrix). The GDA
/// components of the density estimator are always fit through this function,
/// so components with few members degrade gracefully toward an isotropic
/// Gaussian instead of failing.
///
/// # Errors
/// Returns [`LinalgError::EmptyInput`] for an empty set,
/// [`LinalgError::ShapeMismatch`] for ragged rows, and
/// [`LinalgError::InvalidArgument`] for a negative ridge.
pub fn covariance(rows: &[&[f64]], ridge: f64) -> Result<Matrix> {
    Ok(mean_and_covariance(rows, ridge)?.1)
}

/// Mean and covariance from one centering pass over the same rows.
///
/// # Errors
/// As [`covariance`].
pub fn mean_and_covariance(rows: &[&[f64]], ridge: f64) -> Result<(Vec<f64>, Matrix)> {
    if ridge < 0.0 {
        return Err(LinalgError::InvalidArgument {
            what: format!("ridge must be non-negative, got {ridge}"),
        });
    }
    let (mean, scatter) = mean_and_scatter(rows)?;
    Ok((mean, covariance_from_scatter(&scatter, rows.len(), ridge)))
}

/// Pearson correlation between two equal-length samples.
///
/// Returns `None` when either sample is constant (undefined correlation) or
/// shorter than two elements.
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let ma = crate::vector::mean(a)?;
    let mb = crate::vector::mean(b)?;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;

    #[test]
    fn mean_vector_basic() {
        let rows: Vec<&[f64]> = vec![&[1.0, 2.0], &[3.0, 6.0]];
        assert_eq!(mean_vector(&rows).unwrap(), vec![2.0, 4.0]);
    }

    #[test]
    fn mean_vector_empty_errors() {
        let rows: Vec<&[f64]> = vec![];
        assert!(mean_vector(&rows).is_err());
    }

    #[test]
    fn mean_vector_ragged_errors() {
        let rows: Vec<&[f64]> = vec![&[1.0, 2.0], &[3.0]];
        assert!(mean_vector(&rows).is_err());
    }

    #[test]
    fn covariance_of_axis_aligned_data() {
        // Points on the x-axis: variance along x, zero along y.
        let rows: Vec<&[f64]> = vec![&[-1.0, 0.0], &[1.0, 0.0]];
        let cov = covariance(&rows, 0.0).unwrap();
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-12);
        assert_eq!(cov.get(1, 1), 0.0);
        assert_eq!(cov.get(0, 1), 0.0);
    }

    #[test]
    fn covariance_is_symmetric_and_spd_with_ridge() {
        let rows: Vec<&[f64]> = vec![&[1.0, 2.0, 0.5], &[0.0, 1.0, 1.5], &[2.0, 2.5, 0.0]];
        let cov = covariance(&rows, 1e-6).unwrap();
        assert!(cov.is_symmetric(1e-12));
        assert!(Cholesky::factor(&cov).is_ok());
    }

    #[test]
    fn single_sample_covariance_is_ridge_identity() {
        let rows: Vec<&[f64]> = vec![&[5.0, -3.0]];
        let cov = covariance(&rows, 0.25).unwrap();
        assert_eq!(cov.get(0, 0), 0.25);
        assert_eq!(cov.get(1, 1), 0.25);
        assert_eq!(cov.get(0, 1), 0.0);
    }

    #[test]
    fn negative_ridge_rejected() {
        let rows: Vec<&[f64]> = vec![&[0.0]];
        assert!(covariance(&rows, -1.0).is_err());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [-1.0, -2.0, -3.0];
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // constant a
        assert_eq!(pearson(&[1.0], &[1.0]), None); // too short
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None); // mismatched
    }
}
