//! Property-based tests for the fairness-sensitive density estimator.

use faction_density::{DensityScratch, FairDensityConfig, FairDensityEstimator, Gaussian};
use faction_linalg::{Matrix, SeedRng};
use proptest::prelude::*;

fn clustered_data(
    n_per_cell: usize,
    d: usize,
    spread: f64,
    seed: u64,
) -> (Matrix, Vec<usize>, Vec<i8>) {
    let mut rng = SeedRng::new(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut sens = Vec::new();
    for &(y, s) in &[(0usize, 1i8), (0, -1), (1, 1), (1, -1)] {
        for _ in 0..n_per_cell {
            let mut x = rng.standard_normal_vec(d);
            faction_linalg::vector::scale(&mut x, spread);
            x[0] += if y == 1 { 4.0 } else { -4.0 };
            x[1 % d] += 2.0 * f64::from(s);
            rows.push(x);
            labels.push(y);
            sens.push(s);
        }
    }
    (Matrix::from_rows(&rows).unwrap(), labels, sens)
}

proptest! {
    #[test]
    fn gaussian_log_pdf_peaks_at_mean(seed in 0u64..300) {
        let mut rng = SeedRng::new(seed);
        let d = 3;
        let rows: Vec<Vec<f64>> =
            (0..20).map(|_| rng.standard_normal_vec(d)).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let g = Gaussian::fit(&refs, 1e-3).unwrap();
        let at_mean = g.log_pdf(g.mean().to_vec().as_slice()).unwrap();
        for _ in 0..10 {
            let probe: Vec<f64> = (0..d).map(|_| rng.uniform_range(-6.0, 6.0)).collect();
            prop_assert!(g.log_pdf(&probe).unwrap() <= at_mean + 1e-9);
        }
    }

    #[test]
    fn density_monotone_under_distance_from_all_clusters(seed in 0u64..200) {
        let (x, y, s) = clustered_data(15, 3, 0.4, seed);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        // Points along the ray away from all clusters must have decreasing
        // density.
        let near = est.log_density(&[0.0, 0.0, 0.0]).unwrap();
        let mid = est.log_density(&[15.0, 15.0, 15.0]).unwrap();
        let far = est.log_density(&[40.0, 40.0, 40.0]).unwrap();
        prop_assert!(near > mid, "near {near} mid {mid}");
        prop_assert!(mid > far, "mid {mid} far {far}");
    }

    #[test]
    fn delta_g_nonnegative_everywhere(seed in 0u64..200) {
        let (x, y, s) = clustered_data(12, 4, 0.5, seed);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let mut rng = SeedRng::new(seed ^ 5);
        for _ in 0..20 {
            let probe: Vec<f64> = (0..4).map(|_| rng.uniform_range(-8.0, 8.0)).collect();
            for c in 0..2 {
                let gap = est.delta_g(&probe, c).unwrap();
                prop_assert!(gap >= 0.0 && gap.is_finite());
            }
        }
    }

    #[test]
    fn class_only_never_exceeds_component_count(seed in 0u64..200, n in 4usize..40) {
        let mut rng = SeedRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..n).map(|_| rng.standard_normal_vec(2)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let est =
            FairDensityEstimator::fit_class_only(&x, &labels, 2, &FairDensityConfig::default())
                .unwrap();
        prop_assert!(est.num_components() <= 2);
    }

    #[test]
    fn shared_and_free_covariance_agree_on_ranking_of_extremes(seed in 0u64..100) {
        // Both GDA variants must agree that a far-away point is less dense
        // than a cluster center, even though their absolute values differ.
        let (x, y, s) = clustered_data(15, 3, 0.4, seed);
        for shared in [false, true] {
            let cfg = FairDensityConfig { shared_covariance: shared, ..Default::default() };
            let est = FairDensityEstimator::fit(&x, &y, &s, 2, &cfg).unwrap();
            let center = est.log_density(&[4.0, 2.0, 0.0]).unwrap();
            let far = est.log_density(&[50.0, -50.0, 50.0]).unwrap();
            prop_assert!(center > far, "shared={shared}: {center} vs {far}");
        }
    }

    #[test]
    fn single_sample_cells_are_survivable(seed in 0u64..200) {
        // One sample per (class, sensitive) cell: ridge must keep everything
        // finite.
        let mut rng = SeedRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..4).map(|_| rng.standard_normal_vec(3)).collect();
        let labels = vec![0, 0, 1, 1];
        let sens = vec![1i8, -1, 1, -1];
        let x = Matrix::from_rows(&rows).unwrap();
        let est = FairDensityEstimator::fit(&x, &labels, &sens, 2, &FairDensityConfig::default())
            .unwrap();
        prop_assert_eq!(est.num_components(), 4);
        let probe: Vec<f64> = rng.standard_normal_vec(3);
        prop_assert!(est.log_density(&probe).unwrap().is_finite());
    }

    #[test]
    fn batch_log_density_matches_per_sample_exactly(seed in 0u64..150, n in 1usize..40) {
        let (x, y, s) = clustered_data(12, 4, 0.5, seed);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let mut rng = SeedRng::new(seed ^ 0xBA7C);
        let probe = Matrix::from_rows(
            &(0..n).map(|_| rng.standard_normal_vec(4)).collect::<Vec<_>>(),
        )
        .unwrap();
        let batch = est.log_density_batch(&probe).unwrap();
        prop_assert_eq!(batch.len(), n);
        for (i, &ld) in batch.iter().enumerate() {
            let scalar = est.log_density(probe.row(i)).unwrap();
            prop_assert_eq!(ld.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn batch_score_matches_per_sample_exactly(seed in 0u64..150, n in 1usize..40) {
        let (x, y, s) = clustered_data(12, 4, 0.5, seed);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let mut rng = SeedRng::new(seed ^ 0x5C0E);
        let probe = Matrix::from_rows(
            &(0..n).map(|_| rng.standard_normal_vec(4)).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut scratch = DensityScratch::new();
        let mut log_density = vec![0.0; n];
        let mut gaps = Matrix::zeros(0, 0);
        est.score_batch_into(&probe, &mut scratch, &mut log_density, &mut gaps).unwrap();
        prop_assert_eq!(log_density.len(), n);
        prop_assert_eq!(gaps.shape(), (2, n));
        for (i, ld) in log_density.iter().enumerate() {
            let scalar_ld = est.log_density(probe.row(i)).unwrap();
            prop_assert_eq!(ld.to_bits(), scalar_ld.to_bits());
            let scalar_gaps = est.delta_g_all(probe.row(i)).unwrap();
            for (c, scalar_gap) in scalar_gaps[..2].iter().enumerate() {
                prop_assert_eq!(gaps.get(c, i).to_bits(), scalar_gap.to_bits());
            }
        }
    }
}
