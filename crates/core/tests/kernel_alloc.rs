//! Allocation gate for the numeric kernels under the training and scoring
//! loops.
//!
//! `train_step_alloc.rs` and `scoring_alloc.rs` gate the two loops end to
//! end. This suite gates the kernels they are built from one by one, at
//! the shapes the benchmark workloads issue, so an allocation that slips
//! into a kernel names the kernel: the GEMM products of the standard
//! `[16, 64, 32, 2]` MLP at mini-batch 64 and of the tiny `[d, 16, 2]` MLP
//! at mini-batch 32 (forward `A·B`, backprop `Aᵀ·B` and `A·Bᵀ`), the
//! spectral power iteration's matrix–vector products, the blocked
//! transpose, the GDA panel solve at the 32-wide penultimate features, and
//! the mixture log-density of a whole candidate batch. Each kernel runs
//! once to warm its per-thread pack scratch, then must not allocate.

mod alloc_counter;

use alloc_counter::allocations_during;
use faction_density::{DensityScratch, FairDensityConfig, FairDensityEstimator};
use faction_linalg::cholesky::PANEL;
use faction_linalg::{kernels, Cholesky, Matrix, SeedRng};

/// The standard preset's layers at mini-batch 64, then the tiny preset's at
/// mini-batch 32 and input width 24: `(batch, in, out)` per dense layer.
const LAYERS: [(usize, usize, usize); 5] =
    [(64, 16, 64), (64, 64, 32), (64, 32, 2), (32, 24, 16), (32, 16, 2)];
/// Width of the penultimate features GDA scores, and the candidate count
/// of one scoring round (two full panels and a partial one).
const FEATURE_DIM: usize = 32;
const CANDIDATES: usize = 83;

fn random(rng: &mut SeedRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
}

/// Runs `kernel` once to warm it up, then asserts the next runs allocate
/// nothing.
fn assert_warm_kernel_allocates_nothing(name: &str, mut kernel: impl FnMut()) {
    kernel();
    for run in 1..=3 {
        let allocations = allocations_during(&mut kernel);
        assert_eq!(allocations, 0, "{name}: run {run} made {allocations} heap allocations");
    }
}

#[test]
fn gemm_products_allocate_nothing_at_the_training_shapes() {
    let mut rng = SeedRng::new(11);
    for (batch, fan_in, fan_out) in LAYERS {
        let x = random(&mut rng, batch * fan_in);
        let w = random(&mut rng, fan_in * fan_out);
        let delta = random(&mut rng, batch * fan_out);
        let shape = format!("{batch}x{fan_in}x{fan_out}");
        let mut z = vec![0.0; batch * fan_out];
        assert_warm_kernel_allocates_nothing(&format!("matmul_into {shape}"), || {
            z.fill(0.0);
            kernels::matmul_into(&x, &w, &mut z, batch, fan_in, fan_out);
        });
        let mut grad_w = vec![0.0; fan_in * fan_out];
        assert_warm_kernel_allocates_nothing(&format!("matmul_tn_into {shape}"), || {
            grad_w.fill(0.0);
            kernels::matmul_tn_into(&x, &delta, &mut grad_w, batch, fan_in, fan_out);
        });
        let mut dx = vec![0.0; batch * fan_in];
        assert_warm_kernel_allocates_nothing(&format!("matmul_nt_into {shape}"), || {
            kernels::matmul_nt_into(&delta, &w, &mut dx, batch, fan_out, fan_in);
        });
    }
}

#[test]
fn gemv_and_transpose_allocate_nothing_at_the_weight_shapes() {
    let mut rng = SeedRng::new(12);
    for (batch, fan_in, fan_out) in LAYERS {
        let w = random(&mut rng, fan_in * fan_out);
        let v = random(&mut rng, fan_out);
        let mut wv = vec![0.0; fan_in];
        assert_warm_kernel_allocates_nothing(&format!("gemv_into {fan_in}x{fan_out}"), || {
            kernels::gemv_into(&w, &v, &mut wv, fan_in, fan_out);
        });
        let x = random(&mut rng, batch * fan_in);
        let mut xt = vec![0.0; batch * fan_in];
        assert_warm_kernel_allocates_nothing(&format!("transpose_into {batch}x{fan_in}"), || {
            kernels::transpose_into(&x, &mut xt, batch, fan_in);
        });
    }
}

#[test]
fn gda_panel_solve_allocates_nothing() {
    let mut rng = SeedRng::new(13);
    let d = FEATURE_DIM;
    let b = Matrix::from_vec(d, d, random(&mut rng, d * d)).expect("square");
    let mut spd = b.matmul(&b.transpose()).expect("square product");
    for i in 0..d {
        spd.set(i, i, spd.get(i, i) + 1.0);
    }
    let chol = Cholesky::factor(&spd).expect("B·Bᵀ + I is positive definite");
    let mean = random(&mut rng, d);
    let xt: Vec<[f64; PANEL]> =
        (0..d).map(|_| std::array::from_fn(|_| rng.normal(0.0, 1.0))).collect();
    let mut y = vec![[0.0; PANEL]; d];
    let mut out = [0.0; PANEL];
    assert_warm_kernel_allocates_nothing("mahalanobis_panel_into", || {
        chol.mahalanobis_panel_into(&mean, &xt, &mut y, &mut out);
    });
    assert!(out.iter().all(|q| q.is_finite() && *q >= 0.0));
}

#[test]
fn batched_log_density_allocates_nothing() {
    let mut rng = SeedRng::new(14);
    let rows = 160;
    let features = Matrix::from_vec(rows, FEATURE_DIM, random(&mut rng, rows * FEATURE_DIM))
        .expect("feature shape");
    let labels: Vec<usize> = (0..rows).map(|i| i % 2).collect();
    let sensitive: Vec<i8> = (0..rows).map(|i| if (i / 2) % 2 == 0 { 1 } else { -1 }).collect();
    let estimator =
        FairDensityEstimator::fit(&features, &labels, &sensitive, 2, &FairDensityConfig::default())
            .expect("every cell has rows");
    let candidates =
        Matrix::from_vec(CANDIDATES, FEATURE_DIM, random(&mut rng, CANDIDATES * FEATURE_DIM))
            .expect("candidate shape");
    let mut scratch = DensityScratch::new();
    let mut out = vec![0.0; CANDIDATES];
    assert_warm_kernel_allocates_nothing("log_density_batch_into", || {
        estimator
            .log_density_batch_into(&candidates, &mut scratch, &mut out)
            .expect("shapes agree");
    });
    assert!(out.iter().all(|v| v.is_finite()));
}

#[test]
fn the_counter_sees_a_kernel_allocation() {
    // Guards the gate against vacuity: the allocating wrapper around the
    // same product must register its output buffer.
    let a = Matrix::zeros(64, 16);
    let b = Matrix::zeros(16, 64);
    let allocations = allocations_during(|| {
        let _ = a.matmul(&b);
    });
    assert!(allocations > 0, "an allocating product must be counted");
}
