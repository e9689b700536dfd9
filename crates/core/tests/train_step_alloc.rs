//! Allocation gate for the SGD step.
//!
//! Retraining on the labeled pool is most of a round's time, and every step
//! of it goes through `Mlp::train_step_with`. Once its `MlpWorkspace` has
//! seen the batch shape (one warm-up step, which also creates the
//! optimizer's momentum state), a step must make no heap allocation at all:
//! the forward pass, the loss and its gradient, backprop and the spectral
//! power iteration all write into reused buffers. This suite counts every
//! allocation the test thread makes during a step with a counting global
//! allocator and asserts zero under both training losses at every shape
//! the benchmark trains: the standard preset (`[16, 64, 32, 2]`,
//! mini-batch 64) and the tiny preset (`[d, 16, 2]`, mini-batch 32, for the
//! input widths `d` of the serve workload's datasets). The GEMM pack
//! buffers are per-thread scratch, so a step that needed one built lazily
//! would show here as an allocation after warm-up.

mod alloc_counter;

use alloc_counter::allocations_during;
use faction_core::FairTotalLoss;
use faction_fairness::TotalLossConfig;
use faction_linalg::{Matrix, SeedRng};
use faction_nn::{
    presets, BatchLoss, BatchMeta, CrossEntropyLoss, Mlp, MlpConfig, MlpWorkspace, Sgd,
};

const BATCH: usize = 64;
const INPUT_DIM: usize = 16;
/// The tiny preset's mini-batch and the input widths it trains at.
const TINY_BATCH: usize = 32;
const TINY_INPUT_DIMS: [usize; 3] = [16, 24, 32];

/// Warms a model of `cfg`'s architecture up with one step at mini-batch
/// `batch`, then asserts that each of the next few steps allocates nothing.
fn assert_steady_state_steps_allocate_nothing(
    cfg: &MlpConfig,
    batch: usize,
    loss: &dyn BatchLoss,
    name: &str,
) {
    let input_dim = cfg.layer_sizes[0];
    let mut mlp = Mlp::new(cfg);
    // The optimizer the online model trains with.
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let mut rng = SeedRng::new(5);
    let data = (0..batch * input_dim).map(|_| rng.normal(0.0, 1.0)).collect();
    let x = Matrix::from_vec(batch, input_dim, data).expect("batch shape");
    // Both classes and both groups, so the fairness term is live.
    let labels: Vec<usize> = (0..batch).map(|i| (i / 3) % 2).collect();
    let sensitive: Vec<i8> = (0..batch).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    let meta = BatchMeta { labels: &labels, sensitive: &sensitive };
    let mut ws = MlpWorkspace::new();
    mlp.train_step_with(&x, &meta, loss, &mut opt, &mut ws);
    for step in 1..=4 {
        let mut value = f64::NAN;
        let allocations = allocations_during(|| {
            value = mlp.train_step_with(&x, &meta, loss, &mut opt, &mut ws);
        });
        assert!(value.is_finite(), "{name}: step {step} loss {value}");
        assert_eq!(allocations, 0, "{name}: step {step} made {allocations} heap allocations");
    }
}

#[test]
fn cross_entropy_step_allocates_nothing_after_warm_up() {
    let cfg = presets::standard(INPUT_DIM, 2, 11);
    assert_steady_state_steps_allocate_nothing(&cfg, BATCH, &CrossEntropyLoss, "CrossEntropyLoss");
}

#[test]
fn fair_total_loss_step_allocates_nothing_after_warm_up() {
    let loss = FairTotalLoss::new(TotalLossConfig::default());
    let cfg = presets::standard(INPUT_DIM, 2, 11);
    assert_steady_state_steps_allocate_nothing(&cfg, BATCH, &loss, "FairTotalLoss");
}

#[test]
fn tiny_preset_steps_allocate_nothing_after_warm_up() {
    let fair = FairTotalLoss::new(TotalLossConfig::default());
    for d in TINY_INPUT_DIMS {
        let cfg = presets::tiny(d, 2, 11);
        let losses: [(&dyn BatchLoss, &str); 2] =
            [(&CrossEntropyLoss, "CrossEntropyLoss"), (&fair, "FairTotalLoss")];
        for (loss, name) in losses {
            let what = format!("tiny [{d}, 16, 2] {name}");
            assert_steady_state_steps_allocate_nothing(&cfg, TINY_BATCH, loss, &what);
        }
    }
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the gate against vacuity: a step on a fresh workspace must
    // register its buffer allocations.
    let mut mlp = Mlp::new(&presets::standard(INPUT_DIM, 2, 3));
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let x = Matrix::zeros(BATCH, INPUT_DIM);
    let labels = vec![0usize; BATCH];
    let sensitive = vec![1i8; BATCH];
    let meta = BatchMeta { labels: &labels, sensitive: &sensitive };
    let allocations = allocations_during(|| {
        mlp.train_step_with(&x, &meta, &CrossEntropyLoss, &mut opt, &mut MlpWorkspace::new());
    });
    assert!(allocations > 0, "a cold step must allocate its workspace");
}
