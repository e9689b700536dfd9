//! A single multivariate Gaussian component.

use faction_linalg::cholesky::PANEL;
use faction_linalg::{stats, Cholesky, Matrix};

use crate::DensityError;

/// Natural log of 2π, used in the Gaussian normalization constant.
const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// A fitted multivariate Gaussian `N(μ, Σ)` stored via the Cholesky factor of
/// its covariance, so that log-density evaluation costs one forward
/// substitution.
#[derive(Debug, Clone)]
pub struct Gaussian {
    mean: Vec<f64>,
    chol: Cholesky,
    log_norm_const: f64,
}

impl Gaussian {
    /// Fits a Gaussian to the given feature vectors by maximum likelihood
    /// with `ridge * I` added to the covariance (see
    /// [`faction_linalg::stats::covariance`]); the ridge keeps single-sample
    /// and degenerate components well-defined, which matters early in an
    /// online stream when a (class, sensitive) cell has few members.
    ///
    /// # Errors
    /// * [`DensityError::NoData`] if `rows` is empty.
    /// * [`DensityError::Linalg`] if the regularized covariance still fails
    ///   to factor (pathological inputs).
    pub fn fit(rows: &[&[f64]], ridge: f64) -> Result<Self, DensityError> {
        if rows.is_empty() {
            return Err(DensityError::NoData);
        }
        let (mean, cov) = stats::mean_and_covariance(rows, ridge)?;
        Self::from_mean_cov(mean, &cov)
    }

    /// Builds a Gaussian from an explicit mean and covariance.
    ///
    /// # Errors
    /// Returns [`DensityError::Linalg`] if the covariance (after up to ten
    /// rounds of jitter) is not positive definite.
    pub fn from_mean_cov(mean: Vec<f64>, cov: &Matrix) -> Result<Self, DensityError> {
        let chol = Cholesky::factor_with_jitter(cov, 1e-9, 10)?;
        let d = mean.len() as f64;
        let log_norm_const = -0.5 * (d * LN_2PI + chol.log_det());
        Ok(Gaussian { mean, chol, log_norm_const })
    }

    /// Dimensionality of the component.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The component mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Log-density `log N(z; μ, Σ)`.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] if `z` has the wrong
    /// length.
    pub fn log_pdf(&self, z: &[f64]) -> Result<f64, DensityError> {
        if z.len() != self.mean.len() {
            return Err(DensityError::DimensionMismatch {
                expected: self.mean.len(),
                got: z.len(),
            });
        }
        let centered = faction_linalg::vector::sub(z, &self.mean);
        let maha = self.chol.quadratic_form(&centered)?;
        Ok(self.log_norm_const - 0.5 * maha)
    }

    /// Log-densities of one candidate panel: lane `j` of `out` receives
    /// `log N(x_j; μ, Σ)` for lane `j` of the transposed panel `xt` (`dim()`
    /// rows of [`PANEL`] lanes), with `y` as solve scratch. Each lane is bit
    /// for bit [`Gaussian::log_pdf`] of that point: the same centring, the
    /// same forward substitution and squared sum (see
    /// [`Cholesky::mahalanobis_panel_into`]), the same `c − ½·q`.
    ///
    /// # Panics
    /// Panics if `xt` or `y` does not have `dim()` rows.
    pub(crate) fn log_pdf_panel(
        &self,
        xt: &[[f64; PANEL]],
        y: &mut [[f64; PANEL]],
        out: &mut [f64; PANEL],
    ) {
        self.chol.mahalanobis_panel_into(&self.mean, xt, y, out);
        for v in out.iter_mut() {
            *v = self.log_norm_const - 0.5 * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_log_pdf_at_origin() {
        let g = Gaussian::from_mean_cov(vec![0.0, 0.0], &Matrix::identity(2)).unwrap();
        // log N(0; 0, I) in 2d = -log(2π).
        assert!((g.log_pdf(&[0.0, 0.0]).unwrap() + LN_2PI).abs() < 1e-9);
    }

    #[test]
    fn log_pdf_decreases_away_from_mean() {
        let g = Gaussian::from_mean_cov(vec![1.0, 1.0], &Matrix::identity(2)).unwrap();
        let near = g.log_pdf(&[1.1, 1.0]).unwrap();
        let far = g.log_pdf(&[4.0, -3.0]).unwrap();
        assert!(near > far);
    }

    #[test]
    fn fit_recovers_sample_mean() {
        let rows: Vec<&[f64]> = vec![&[0.0, 0.0], &[2.0, 4.0], &[4.0, 2.0], &[2.0, 2.0]];
        let g = Gaussian::fit(&rows, 1e-6).unwrap();
        assert!((g.mean()[0] - 2.0).abs() < 1e-12);
        assert!((g.mean()[1] - 2.0).abs() < 1e-12);
        assert_eq!(g.dim(), 2);
    }

    #[test]
    fn fit_single_sample_is_isotropic_at_sample() {
        let rows: Vec<&[f64]> = vec![&[3.0, -1.0]];
        let g = Gaussian::fit(&rows, 0.5).unwrap();
        // Max density at the sample itself.
        let at = g.log_pdf(&[3.0, -1.0]).unwrap();
        let off = g.log_pdf(&[4.0, -1.0]).unwrap();
        assert!(at > off);
    }

    #[test]
    fn fit_empty_errors() {
        let rows: Vec<&[f64]> = vec![];
        assert_eq!(Gaussian::fit(&rows, 1e-6).unwrap_err(), DensityError::NoData);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let g = Gaussian::from_mean_cov(vec![0.0, 0.0], &Matrix::identity(2)).unwrap();
        assert!(matches!(
            g.log_pdf(&[1.0]),
            Err(DensityError::DimensionMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn anisotropic_covariance_shapes_density() {
        // Large variance along x, small along y: same-distance points along y
        // are less likely.
        let cov =
            Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 0.25]]).unwrap();
        let g = Gaussian::from_mean_cov(vec![0.0, 0.0], &cov).unwrap();
        let along_x = g.log_pdf(&[1.0, 0.0]).unwrap();
        let along_y = g.log_pdf(&[0.0, 1.0]).unwrap();
        assert!(along_x > along_y);
    }

    #[test]
    fn log_pdf_integrates_to_one_in_1d() {
        // Riemann check in 1d: ∫ exp(log_pdf) dz ≈ 1.
        let g = Gaussian::from_mean_cov(vec![0.5], &Matrix::from_vec(1, 1, vec![2.0]).unwrap())
            .unwrap();
        let mut total = 0.0;
        let step = 0.01;
        let mut z = -20.0;
        while z < 20.0 {
            total += g.log_pdf(&[z]).unwrap().exp() * step;
            z += step;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }
}
