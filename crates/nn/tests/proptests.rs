//! Property-based tests for the neural-network substrate.

use faction_linalg::{Matrix, SeedRng};
use faction_nn::loss::{entropy_per_row, log_softmax, softmax};
use faction_nn::{BatchLoss, BatchMeta, CrossEntropyLoss, Mlp, MlpConfig, Optimizer, Sgd};
use proptest::prelude::*;

fn logits_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-30.0..30.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #[test]
    fn softmax_rows_are_distributions(m in logits_matrix(4, 3)) {
        let p = softmax(&m);
        for r in 0..p.rows() {
            let sum: f64 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(m in logits_matrix(2, 4), shift in -50.0..50.0f64) {
        let mut shifted = m.clone();
        for v in shifted.as_mut_slice() {
            *v += shift;
        }
        let a = softmax(&m);
        let b = softmax(&shifted);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax(m in logits_matrix(3, 3)) {
        let lp = log_softmax(&m);
        let p = softmax(&m);
        for (l, v) in lp.as_slice().iter().zip(p.as_slice()) {
            prop_assert!((l.exp() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn entropy_bounds(m in logits_matrix(5, 4)) {
        let p = softmax(&m);
        for h in entropy_per_row(&p) {
            prop_assert!(h >= -1e-12);
            prop_assert!(h <= 4f64.ln() + 1e-9);
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_grad_rows_sum_zero(
        m in logits_matrix(4, 3),
        labels in proptest::collection::vec(0usize..3, 4),
    ) {
        let sens = vec![1i8; 4];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };
        let (loss, grad) = CrossEntropyLoss.loss_and_grad(&m, &meta);
        prop_assert!(loss >= -1e-12);
        for r in 0..grad.rows() {
            let sum: f64 = grad.row(r).iter().sum();
            prop_assert!(sum.abs() < 1e-9, "row {r} grad sum {sum}");
        }
    }

    #[test]
    fn forward_pass_is_deterministic_and_finite(seed in 0u64..500) {
        let mlp = Mlp::new(&MlpConfig::new(vec![5, 8, 3], seed));
        let mut rng = SeedRng::new(seed ^ 1);
        let x = Matrix::from_vec(6, 5, (0..30).map(|_| rng.uniform_range(-5.0, 5.0)).collect())
            .unwrap();
        let a = mlp.logits(&x);
        let b = mlp.logits(&x);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert!(a.as_slice().iter().all(|v| v.is_finite()));
        let feats = mlp.features(&x);
        // Post-ReLU features are non-negative by construction.
        prop_assert!(feats.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn one_sgd_step_reduces_batch_loss(seed in 0u64..200) {
        // For a small step on a smooth loss, a gradient step must not
        // increase the loss on the same batch.
        let mut mlp = Mlp::new(&MlpConfig::new(vec![3, 6, 2], seed).without_spectral_norm());
        let mut rng = SeedRng::new(seed ^ 2);
        let x = Matrix::from_vec(8, 3, (0..24).map(|_| rng.uniform_range(-2.0, 2.0)).collect())
            .unwrap();
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let sens = vec![1i8; 8];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };
        let mut opt = Sgd::new(0.01);
        let before = mlp.train_step(&x, &meta, &CrossEntropyLoss, &mut opt);
        // Evaluate after the step with a zero-lr step (loss only).
        opt.set_learning_rate(0.0);
        let after = mlp.train_step(&x, &meta, &CrossEntropyLoss, &mut opt);
        prop_assert!(after <= before + 1e-9, "loss rose: {before} -> {after}");
    }

    #[test]
    fn projection_radius_is_respected(seed in 0u64..200, radius in 0.1..10.0f64) {
        let mut mlp = Mlp::new(&MlpConfig::new(vec![4, 6, 2], seed));
        mlp.project_params(radius);
        prop_assert!(mlp.param_norm() <= radius + 1e-9);
    }
}
