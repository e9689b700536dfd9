//! Environment-shift detection from epistemic uncertainty.
//!
//! The paper leans on the observation that out-of-distribution samples
//! exhibit high epistemic uncertainty (\[45], \[46]; Sec. IV-C "The Role of
//! Epistemic Uncertainty"): when a new task comes from a shifted
//! environment, its feature density under the pool-fitted estimator drops.
//! This module turns that signal into an explicit *drift detector* — a
//! diagnostic the paper uses implicitly (FACTION "adapts quickly" because
//! low density boosts query rates) and which downstream users of the
//! library want surfaced: "did the distribution just change, and by how
//! much?".

use faction_density::{DensityError, FairDensityConfig, FairDensityEstimator};
use faction_linalg::Matrix;

/// Outcome of scoring one incoming task against the current model state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Mean log-density of the incoming batch under the pool estimator.
    pub mean_log_density: f64,
    /// Mean log-density of the *pool itself* (the in-distribution
    /// reference level).
    pub reference_log_density: f64,
    /// `reference − incoming`: how many nats of density the batch lost
    /// relative to familiar data. Larger ⇒ stronger shift.
    pub density_drop: f64,
    /// Whether the drop exceeded the detector's threshold.
    pub drift_detected: bool,
}

/// A density-drop drift detector.
#[derive(Debug, Clone, Copy)]
pub struct DriftDetector {
    /// Detection threshold in nats of mean log-density drop. The right
    /// scale depends on the feature dimension; the default (5.0) is
    /// calibrated for the `standard` preset's 32-d feature space, where
    /// in-distribution fluctuation across tasks is ≈ 1–2 nats.
    pub threshold: f64,
    /// Density-estimator settings used for the reference fit.
    pub density: FairDensityConfig,
}

impl Default for DriftDetector {
    fn default() -> Self {
        DriftDetector { threshold: 5.0, density: FairDensityConfig::default() }
    }
}

impl DriftDetector {
    /// Fits the in-distribution reference once, for repeated scoring.
    ///
    /// The returned [`FittedDriftDetector`] owns the pool-fitted estimator
    /// and its cached reference log-density, so scoring `k` incoming batches
    /// against the same pool costs one fit + one pool-wide scoring pass
    /// total instead of `k` of each (the one-shot [`DriftDetector::score`]
    /// refitted the estimator and rescored the entire pool on every call).
    ///
    /// # Errors
    /// Propagates density-estimation failures (empty pool, dimension
    /// mismatch).
    pub fn fit_reference(
        &self,
        pool_features: &Matrix,
        pool_labels: &[usize],
        pool_sensitives: &[i8],
        num_classes: usize,
    ) -> Result<FittedDriftDetector, DensityError> {
        let _span = faction_telemetry::span("core.drift.fit_ns");
        let estimator = FairDensityEstimator::fit(
            pool_features,
            pool_labels,
            pool_sensitives,
            num_classes,
            &self.density,
        )?;
        let scores = estimator.log_density_batch(pool_features)?;
        let reference_log_density = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        Ok(FittedDriftDetector { threshold: self.threshold, estimator, reference_log_density })
    }

    /// Scores an incoming feature batch against pool features in one shot.
    ///
    /// `pool_features` / `pool_labels` / `pool_sensitives` describe the
    /// labeled data the model has seen; `incoming_features` is the new
    /// task's (unlabeled) feature batch, extracted with the same model.
    ///
    /// Thin wrapper over [`DriftDetector::fit_reference`] +
    /// [`FittedDriftDetector::score`]; reports are identical to the fitted
    /// path by construction.
    ///
    /// # Errors
    /// Propagates density-estimation failures (empty pool, dimension
    /// mismatch).
    pub fn score(
        &self,
        pool_features: &Matrix,
        pool_labels: &[usize],
        pool_sensitives: &[i8],
        num_classes: usize,
        incoming_features: &Matrix,
    ) -> Result<DriftReport, DensityError> {
        self.fit_reference(pool_features, pool_labels, pool_sensitives, num_classes)?
            .score(incoming_features)
    }
}

/// A drift detector with its reference distribution already fitted: the
/// pool estimator plus the cached mean log-density of the pool itself.
#[derive(Debug, Clone)]
pub struct FittedDriftDetector {
    threshold: f64,
    estimator: FairDensityEstimator,
    reference_log_density: f64,
}

impl FittedDriftDetector {
    /// The cached in-distribution reference level (mean pool log-density).
    pub fn reference_log_density(&self) -> f64 {
        self.reference_log_density
    }

    /// The detection threshold inherited from the [`DriftDetector`].
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Scores one incoming feature batch against the cached reference.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] if the batch width
    /// disagrees with the fitted estimator.
    pub fn score(&self, incoming_features: &Matrix) -> Result<DriftReport, DensityError> {
        let _span = faction_telemetry::span("core.drift.check_ns");
        faction_telemetry::counter_add("core.drift.checks", 1);
        let scores = self.estimator.log_density_batch(incoming_features)?;
        let mean_log_density = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        let density_drop = self.reference_log_density - mean_log_density;
        if density_drop > self.threshold {
            faction_telemetry::counter_add("core.drift.detected", 1);
        }
        Ok(DriftReport {
            mean_log_density,
            reference_log_density: self.reference_log_density,
            density_drop,
            drift_detected: density_drop > self.threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_linalg::SeedRng;

    fn cluster(n: usize, center: f64, rng: &mut SeedRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| vec![rng.normal(center, 0.5), rng.normal(center, 0.5)])
            .collect()
    }

    fn pool(rng: &mut SeedRng) -> (Matrix, Vec<usize>, Vec<i8>) {
        let mut rows = cluster(40, 0.0, rng);
        rows.extend(cluster(40, 3.0, rng));
        let labels: Vec<usize> = (0..80).map(|i| usize::from(i >= 40)).collect();
        let sens: Vec<i8> = (0..80).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        (Matrix::from_rows(&rows).unwrap(), labels, sens)
    }

    #[test]
    fn in_distribution_batch_is_not_drift() {
        let mut rng = SeedRng::new(1);
        let (px, py, ps) = pool(&mut rng);
        let incoming = Matrix::from_rows(&cluster(30, 0.0, &mut rng)).unwrap();
        let report =
            DriftDetector::default().score(&px, &py, &ps, 2, &incoming).unwrap();
        assert!(!report.drift_detected, "drop {}", report.density_drop);
        assert!(report.density_drop < 5.0);
    }

    #[test]
    fn shifted_batch_is_detected() {
        let mut rng = SeedRng::new(2);
        let (px, py, ps) = pool(&mut rng);
        let incoming = Matrix::from_rows(&cluster(30, 25.0, &mut rng)).unwrap();
        let report =
            DriftDetector::default().score(&px, &py, &ps, 2, &incoming).unwrap();
        assert!(report.drift_detected, "drop {}", report.density_drop);
        assert!(report.mean_log_density < report.reference_log_density);
    }

    #[test]
    fn drop_grows_with_shift_magnitude() {
        let mut rng = SeedRng::new(3);
        let (px, py, ps) = pool(&mut rng);
        let near = Matrix::from_rows(&cluster(30, 6.0, &mut rng)).unwrap();
        let far = Matrix::from_rows(&cluster(30, 30.0, &mut rng)).unwrap();
        let detector = DriftDetector::default();
        let near_report = detector.score(&px, &py, &ps, 2, &near).unwrap();
        let far_report = detector.score(&px, &py, &ps, 2, &far).unwrap();
        assert!(far_report.density_drop > near_report.density_drop);
    }

    #[test]
    fn fitted_detector_matches_one_shot_bitwise() {
        // `fit_reference` + repeated `score` must reproduce the one-shot
        // path exactly — same estimator, same reference, same reports — so
        // callers can amortize the pool fit without changing results.
        let mut rng = SeedRng::new(9);
        let (px, py, ps) = pool(&mut rng);
        let batches: Vec<Matrix> = [0.0, 4.0, 12.0]
            .iter()
            .map(|&c| Matrix::from_rows(&cluster(20, c, &mut rng)).unwrap())
            .collect();
        let detector = DriftDetector::default();
        let fitted = detector.fit_reference(&px, &py, &ps, 2).unwrap();
        for batch in &batches {
            let one_shot = detector.score(&px, &py, &ps, 2, batch).unwrap();
            let amortized = fitted.score(batch).unwrap();
            assert_eq!(
                one_shot.mean_log_density.to_bits(),
                amortized.mean_log_density.to_bits()
            );
            assert_eq!(
                one_shot.reference_log_density.to_bits(),
                amortized.reference_log_density.to_bits()
            );
            assert_eq!(one_shot.density_drop.to_bits(), amortized.density_drop.to_bits());
            assert_eq!(one_shot.drift_detected, amortized.drift_detected);
        }
        assert_eq!(
            fitted.reference_log_density().to_bits(),
            detector.score(&px, &py, &ps, 2, &batches[0]).unwrap().reference_log_density.to_bits()
        );
        assert_eq!(fitted.threshold(), detector.threshold);
    }

    #[test]
    fn empty_pool_errors() {
        let detector = DriftDetector::default();
        let empty = Matrix::zeros(0, 2);
        let incoming = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        assert!(detector.score(&empty, &[], &[], 2, &incoming).is_err());
    }

    #[test]
    fn detects_environment_boundaries_in_generated_stream() {
        // End-to-end: run the detector along an RCMNIST-style stream using
        // raw inputs as features; density should drop at rotation changes
        // more than within an environment.
        use faction_data::{datasets::Dataset, Scale};
        let stream = Dataset::Rcmnist.stream(7, Scale::Full);
        // Generous ridge: the reference fit must generalize, not memorize,
        // or the finite-sample gap swamps the shift signal.
        let detector = DriftDetector {
            threshold: 1.0,
            density: FairDensityConfig { ridge: 0.1, ..Default::default() },
        };
        // Pool = task 0 (rot0); compare drop for task 1 (same environment)
        // vs task 9 (first task of the rot45 environment).
        let t0 = &stream.tasks[0];
        let same_env = detector
            .score(&t0.features(), &t0.labels(), &t0.sensitives(), 2, &stream.tasks[1].features())
            .unwrap();
        let new_env = detector
            .score(&t0.features(), &t0.labels(), &t0.sensitives(), 2, &stream.tasks[9].features())
            .unwrap();
        assert!(
            new_env.density_drop > same_env.density_drop,
            "env boundary {} must exceed within-env {}",
            new_env.density_drop,
            same_env.density_drop
        );
    }
}
