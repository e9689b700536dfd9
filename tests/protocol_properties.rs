//! Cross-crate property-based tests of protocol invariants.

use faction::core::selection::{acquire, desirability_from_scores, AcquisitionMode};
use faction::density::{FairDensityConfig, FairDensityEstimator};
use faction::fairness::{ddp, eod, mutual_information};
use faction::linalg::{Matrix, SeedRng};
use proptest::prelude::*;

proptest! {
    /// Acquisition never exceeds the batch, never repeats, never invents
    /// indices — for any score vector and either mode.
    #[test]
    fn acquisition_invariants(
        scores in proptest::collection::vec(-1e3..1e3f64, 0..64),
        batch in 0usize..80,
        alpha in 0.01..10.0f64,
        probabilistic in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let desirability = desirability_from_scores(&scores);
        let mode = if probabilistic {
            AcquisitionMode::Probabilistic { alpha }
        } else {
            AcquisitionMode::TopK
        };
        let mut rng = SeedRng::new(seed);
        let picked = acquire(&desirability, batch, mode, &mut rng);
        prop_assert_eq!(picked.len(), batch.min(scores.len()));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picked.len(), "duplicate selections");
        prop_assert!(picked.iter().all(|&i| i < scores.len()));
    }

    /// Eq. 7 desirability always lands in [0, 1] and anti-correlates with
    /// the raw score ordering.
    #[test]
    fn desirability_is_valid_probability_base(
        scores in proptest::collection::vec(-1e6..1e6f64, 1..64),
    ) {
        let w = desirability_from_scores(&scores);
        prop_assert!(w.iter().all(|v| (0.0..=1.0).contains(v)));
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] < scores[j] {
                    prop_assert!(w[i] >= w[j] - 1e-12);
                }
            }
        }
    }

    /// Fairness metrics over arbitrary binary predictions stay in range.
    #[test]
    fn metrics_bounded(
        n in 1usize..100,
        seed in 0u64..1000,
    ) {
        let mut rng = SeedRng::new(seed);
        let preds: Vec<usize> = (0..n).map(|_| usize::from(rng.bernoulli(0.5))).collect();
        let labels: Vec<usize> = (0..n).map(|_| usize::from(rng.bernoulli(0.5))).collect();
        let sens: Vec<i8> = (0..n).map(|_| if rng.bernoulli(0.5) { 1 } else { -1 }).collect();
        prop_assert!((0.0..=1.0).contains(&ddp(&preds, &sens)));
        prop_assert!((0.0..=1.0).contains(&eod(&preds, &labels, &sens)));
        let mi = mutual_information(&preds, &sens);
        prop_assert!((0.0..=2f64.ln() + 1e-12).contains(&mi));
    }

    /// The density estimator produces finite scores and non-negative gaps on
    /// arbitrary (well-formed) training sets.
    #[test]
    fn density_estimator_total_function(
        n in 8usize..60,
        seed in 0u64..500,
    ) {
        let mut rng = SeedRng::new(seed);
        let d = 3;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.uniform_range(-5.0, 5.0)).collect())
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let sens: Vec<i8> = (0..n).map(|_| if rng.bernoulli(0.5) { 1 } else { -1 }).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let est = FairDensityEstimator::fit(&x, &labels, &sens, 2, &FairDensityConfig::default())
            .unwrap();
        let probe: Vec<f64> = (0..d).map(|_| rng.uniform_range(-10.0, 10.0)).collect();
        let logg = est.log_density(&probe).unwrap();
        prop_assert!(logg.is_finite(), "log density {logg}");
        for gap in est.delta_g_all(&probe).unwrap() {
            prop_assert!(gap.is_finite() && gap >= 0.0);
        }
    }

    /// Warm-start + budget arithmetic: the pool after a full run contains
    /// exactly warm_start + Σ queries samples.
    #[test]
    fn pool_accounting(seed in 0u64..20) {
        use faction::core::strategies::random::Random;
        use faction::core::{run_experiment, ExperimentConfig};
        use faction::data::{datasets::Dataset, Scale};
        let stream = Dataset::Ffhq.stream_prefix(seed, Scale::Quick, Some(2), Some(70));
        let cfg = ExperimentConfig {
            budget: 20,
            acquisition_batch: 10,
            warm_start: 15,
            epochs_per_iteration: 1,
            ..ExperimentConfig::quick()
        };
        let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, seed);
        let record = run_experiment(&stream, &mut Random, &arch, &cfg, seed);
        let total_queries: usize = record.records.iter().map(|r| r.queries).sum();
        // Each task can supply at most its own size; budget is 20 per task.
        prop_assert!(total_queries <= 2 * cfg.budget);
        prop_assert!(record.records.iter().all(|r| r.queries == cfg.budget),
            "with ample candidates the full budget must be spent: {:?}",
            record.records.iter().map(|r| r.queries).collect::<Vec<_>>());
    }
}
