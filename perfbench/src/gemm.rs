//! The `linalg` layer measured at the shapes training issues: one SGD step
//! of the standard preset (`[in, 64, 32, C]`, mini-batch 64) through the
//! `Matrix` product facade on the resolved kernel backend.

use std::time::{Duration, Instant};

use faction_linalg::{Matrix, SeedRng};

use crate::stats::median;

const BATCH: usize = 64;
const SETS_PER_BLOCK: usize = 50;

fn random(rows: usize, cols: usize, rng: &mut SeedRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.uniform_range(-1.0, 1.0))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("length matches shape")
}

/// Per layer `k → n`: the forward product `A·W` (64×k · k×n), the weight
/// gradient `Aᵀ·Δ`, and — past the input layer — the input gradient `Δ·Wᵀ`.
struct Layer {
    a: Matrix,
    w: Matrix,
    delta: Matrix,
    z: Matrix,
    grad_w: Matrix,
    grad_a: Option<Matrix>,
}

/// Microseconds per train-step GEMM set and the GFLOP/s that implies,
/// timed in blocks for about `budget` and reported as the block median.
pub fn train_shapes(input_dim: usize, classes: usize, budget: Duration) -> (f64, f64) {
    let sizes = [input_dim, 64, 32, classes];
    let mut rng = SeedRng::new(0x6E44);
    let mut layers: Vec<Layer> = sizes
        .windows(2)
        .enumerate()
        .map(|(l, kn)| {
            let (k, n) = (kn[0], kn[1]);
            Layer {
                a: random(BATCH, k, &mut rng),
                w: random(k, n, &mut rng),
                delta: random(BATCH, n, &mut rng),
                z: Matrix::zeros(BATCH, n),
                grad_w: Matrix::zeros(k, n),
                grad_a: (l > 0).then(|| Matrix::zeros(BATCH, k)),
            }
        })
        .collect();
    let flops: usize = sizes
        .windows(2)
        .enumerate()
        .map(|(l, kn)| 2 * BATCH * kn[0] * kn[1] * if l > 0 { 3 } else { 2 })
        .sum();
    let mut step = || {
        for layer in &mut layers {
            layer
                .a
                .matmul_into(&layer.w, &mut layer.z)
                .expect("forward shapes");
            layer
                .a
                .matmul_tn_into(&layer.delta, &mut layer.grad_w)
                .expect("weight-gradient shapes");
            if let Some(grad_a) = &mut layer.grad_a {
                layer
                    .delta
                    .matmul_nt_into(&layer.w, grad_a)
                    .expect("input-gradient shapes");
            }
            std::hint::black_box(&layer.z);
        }
    };
    for _ in 0..SETS_PER_BLOCK {
        step();
    }
    let started = Instant::now();
    let mut per_set = Vec::new();
    while per_set.len() < 3 || started.elapsed() < budget {
        let block = Instant::now();
        for _ in 0..SETS_PER_BLOCK {
            step();
        }
        per_set.push(block.elapsed().as_secs_f64() / SETS_PER_BLOCK as f64);
    }
    let seconds = median(&per_set);
    (seconds * 1e6, flops as f64 / seconds / 1e9)
}
