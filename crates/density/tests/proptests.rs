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
    fn batch_log_density_matches_per_sample_exactly(seed in 0u64..150, n in 1usize..100) {
        let (x, y, s) = clustered_data(12, 4, 0.5, seed);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let probe = probes(n, 4, seed ^ 0xBA7C);
        let batch = est.log_density_batch(&probe).unwrap();
        prop_assert_eq!(batch.len(), n);
        for (i, &ld) in batch.iter().enumerate() {
            let scalar = est.log_density(probe.row(i)).unwrap();
            prop_assert_eq!(ld.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn batch_score_matches_per_sample_exactly(seed in 0u64..150, n in 1usize..100) {
        // Candidate counts on both sides of the 32-row scoring panel, most
        // of them leaving a partial last panel.
        let (x, y, s) = clustered_data(12, 4, 0.5, seed);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        assert_score_batch_matches_scalar(&est, &probes(n, 4, seed ^ 0x5C0E));
    }

    #[test]
    fn batch_score_matches_per_sample_with_single_member_cells(
        seed in 0u64..150,
        n in 1usize..100,
    ) {
        // One row per (class, sensitive) cell: every covariance is the ridge
        // alone.
        let mut rng = SeedRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..4).map(|_| rng.standard_normal_vec(4)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let est = FairDensityEstimator::fit(
            &x,
            &[0, 0, 1, 1],
            &[1, -1, 1, -1],
            2,
            &FairDensityConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(est.num_components(), 4);
        assert_score_batch_matches_scalar(&est, &probes(n, 4, seed ^ 0x51C1));
    }

    #[test]
    fn batch_score_matches_per_sample_with_a_missing_cell(seed in 0u64..150, n in 1usize..100) {
        // Cell (1, −1) has no rows: three components, and class 1's gap is 0.
        let (x, y, s) = clustered_data(12, 4, 0.5, seed);
        let keep: Vec<usize> = (0..x.rows()).filter(|&i| !(y[i] == 1 && s[i] == -1)).collect();
        let rows: Vec<Vec<f64>> = keep.iter().map(|&i| x.row(i).to_vec()).collect();
        let labels: Vec<usize> = keep.iter().map(|&i| y[i]).collect();
        let sens: Vec<i8> = keep.iter().map(|&i| s[i]).collect();
        let est = FairDensityEstimator::fit(
            &Matrix::from_rows(&rows).unwrap(),
            &labels,
            &sens,
            2,
            &FairDensityConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(est.num_components(), 3);
        prop_assert!(!est.has_component(1, -1));
        assert_score_batch_matches_scalar(&est, &probes(n, 4, seed ^ 0x0CE1));
    }
}

/// `n` standard-normal probe rows of width `d`.
fn probes(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = SeedRng::new(seed);
    Matrix::from_rows(&(0..n).map(|_| rng.standard_normal_vec(d)).collect::<Vec<_>>()).unwrap()
}

/// `score_batch_into` against the scalar `log_density` / `delta_g_all` of
/// every probe row, bit for bit, through a scratch first used at another
/// shape.
fn assert_score_batch_matches_scalar(est: &FairDensityEstimator, probe: &Matrix) {
    let n = probe.rows();
    let classes = est.num_classes();
    let mut scratch = DensityScratch::new();
    let mut log_density = vec![0.0; 45];
    let mut gaps = Matrix::zeros(0, 0);
    est.score_batch_into(&probes(45, est.dim(), 7), &mut scratch, &mut log_density, &mut gaps)
        .unwrap();
    let mut log_density = vec![0.0; n];
    est.score_batch_into(probe, &mut scratch, &mut log_density, &mut gaps).unwrap();
    prop_assert_eq!(gaps.shape(), (classes, n));
    for (i, ld) in log_density.iter().enumerate() {
        let scalar_ld = est.log_density(probe.row(i)).unwrap();
        prop_assert_eq!(ld.to_bits(), scalar_ld.to_bits(), "row {}", i);
        let scalar_gaps = est.delta_g_all(probe.row(i)).unwrap();
        for (c, scalar_gap) in scalar_gaps.iter().enumerate() {
            prop_assert_eq!(gaps.get(c, i).to_bits(), scalar_gap.to_bits(), "row {} class {}", i, c);
        }
    }
}
