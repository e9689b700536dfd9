//! Property-based tests for the fairness machinery.

use faction_fairness::calibration::{brier_score, expected_calibration_error};
use faction_fairness::{ddp, eod, mutual_information, TotalLossConfig};
use proptest::prelude::*;

/// The fairness term's value and `dTerm/dh` in a fresh buffer.
fn term(cfg: &TotalLossConfig, outputs: &[f64], sensitive: &[i8]) -> (f64, Vec<f64>) {
    let mut grad = Vec::new();
    (cfg.fairness_term(outputs, sensitive, &mut grad), grad)
}

fn binary_groups(n: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], n)
}

proptest! {
    /// The relaxed DDP value is invariant to adding a constant to every
    /// output (its coefficients sum to zero).
    #[test]
    fn relaxed_ddp_shift_invariant(
        outputs in proptest::collection::vec(0.0..1.0f64, 6),
        sens in binary_groups(6),
        shift in -5.0..5.0f64,
    ) {
        let fairness = TotalLossConfig::default();
        let v0 = fairness.fairness_value(&outputs, &sens);
        let shifted: Vec<f64> = outputs.iter().map(|h| h + shift).collect();
        let v1 = fairness.fairness_value(&shifted, &sens);
        prop_assert!((v0 - v1).abs() < 1e-9);
    }

    /// Swapping every sensitive attribute negates the relaxed value.
    #[test]
    fn relaxed_ddp_antisymmetric_under_group_swap(
        outputs in proptest::collection::vec(0.0..1.0f64, 8),
        sens in binary_groups(8),
    ) {
        let fairness = TotalLossConfig::default();
        let v = fairness.fairness_value(&outputs, &sens);
        let flipped: Vec<i8> = sens.iter().map(|s| -s).collect();
        let v_flipped = fairness.fairness_value(&outputs, &flipped);
        prop_assert!((v + v_flipped).abs() < 1e-9);
    }

    /// Constant predictions are perfectly fair under every metric.
    #[test]
    fn constant_predictions_are_fair(
        constant in 0usize..2,
        n in 2usize..50,
        seed in 0u64..200,
    ) {
        let mut rng = faction_linalg::SeedRng::new(seed);
        let preds = vec![constant; n];
        let labels: Vec<usize> = (0..n).map(|_| usize::from(rng.bernoulli(0.5))).collect();
        let sens: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        prop_assert_eq!(ddp(&preds, &sens), 0.0);
        prop_assert_eq!(eod(&preds, &labels, &sens), 0.0);
        prop_assert!(mutual_information(&preds, &sens) < 1e-12);
    }

    /// The fairness term's analytic gradient matches finite differences for
    /// arbitrary batches (away from the |v| = 0 kink).
    #[test]
    fn fairness_term_gradient_correct(
        outputs in proptest::collection::vec(0.01..0.99f64, 6),
        sens in binary_groups(6),
        mu in 0.1..3.0f64,
    ) {
        let cfg = TotalLossConfig { mu, epsilon: 0.0 };
        let (value, grad) = term(&cfg, &outputs, &sens);
        prop_assume!(value.abs() > 1e-4); // skip the kink neighborhood
        let eps = 1e-7;
        for i in 0..outputs.len() {
            let mut hp = outputs.clone();
            hp[i] += eps;
            let mut hm = outputs.clone();
            hm[i] -= eps;
            let (fp, _) = term(&cfg, &hp, &sens);
            let (fm, _) = term(&cfg, &hm, &sens);
            let numeric = (fp - fm) / (2.0 * eps);
            prop_assert!((numeric - grad[i]).abs() < 1e-5);
        }
    }

    /// ECE and Brier score are bounded in [0, 1] for probabilities.
    #[test]
    fn calibration_metrics_bounded(
        probs in proptest::collection::vec(0.0..1.0f64, 1..60),
        seed in 0u64..200,
    ) {
        let mut rng = faction_linalg::SeedRng::new(seed);
        let labels: Vec<usize> =
            (0..probs.len()).map(|_| usize::from(rng.bernoulli(0.5))).collect();
        let ece = expected_calibration_error(&probs, &labels, 10);
        prop_assert!((0.0..=1.0).contains(&ece));
        let brier = brier_score(&probs, &labels);
        prop_assert!((0.0..=1.0).contains(&brier));
    }

    /// A perfectly calibrated binary predictor (prob = empirical rate in
    /// every bin) has near-zero ECE when bins align.
    #[test]
    fn sharp_correct_predictor_is_calibrated(
        labels in proptest::collection::vec(0usize..2, 4..40),
    ) {
        let probs: Vec<f64> = labels.iter().map(|&y| y as f64).collect();
        let ece = expected_calibration_error(&probs, &labels, 10);
        prop_assert!(ece < 1e-9);
        prop_assert!(brier_score(&probs, &labels) < 1e-12);
    }
}
