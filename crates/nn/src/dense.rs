//! Fully-connected layer with cached gradients.

use faction_linalg::{Matrix, SeedRng};

use crate::activation::relu_value;
use crate::init;

/// A dense (fully-connected) layer computing `Y = X W + b` for a batch `X`
/// of shape `(n, fan_in)`, producing `(n, fan_out)`.
///
/// The layer owns its gradient buffers; [`Dense::backward`] fills them and
/// the optimizer consumes them via [`Dense::params_and_grads_mut`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Dense {
    /// Weight matrix, shape `(fan_in, fan_out)`.
    pub(crate) w: Matrix,
    /// Bias vector, length `fan_out`.
    pub(crate) b: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    /// Warm-started left singular vector estimate for power iteration.
    pub(crate) power_u: Vec<f64>,
}

impl Dense {
    /// Creates a layer with He-normal weights (hidden layers) or Xavier
    /// weights (`relu_follows == false`, i.e. the output layer).
    pub fn new(rng: &mut SeedRng, fan_in: usize, fan_out: usize, relu_follows: bool) -> Self {
        let w = if relu_follows {
            init::he_normal(rng, fan_in, fan_out)
        } else {
            init::xavier_uniform(rng, fan_in, fan_out)
        };
        let power_u = {
            let mut u = rng.standard_normal_vec(fan_in);
            let n = faction_linalg::vector::norm2(&u).max(f64::MIN_POSITIVE);
            faction_linalg::vector::scale(&mut u, 1.0 / n);
            u
        };
        Dense {
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            b: vec![0.0; fan_out],
            w,
            power_u,
        }
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Borrow the weight matrix (read-only; mutation goes through the
    /// optimizer or spectral normalization).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// Forward pass: `X W + b`.
    ///
    /// # Panics
    /// Panics if `x.cols() != fan_in` (programming error in model wiring).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.fan_out());
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass into a caller-provided buffer (reshaped as needed):
    /// the allocation-free sibling of [`Dense::forward`].
    ///
    /// # Panics
    /// Panics if `x.cols() != fan_in` (programming error in model wiring).
    // analyzer:hot-path
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        self.affine_into(x, out, |v| v);
    }

    /// Hidden-layer forward pass, `relu(X W + b)`, into a caller-provided
    /// buffer in one pass over the product: each element is the same
    /// `(X W)[r][c] + b[c]` as [`Dense::forward_into`]'s, then clamped by
    /// [`relu_value`], so it equals `relu(forward(x))` bit for bit.
    ///
    /// # Panics
    /// Panics if `x.cols() != fan_in` (programming error in model wiring).
    // analyzer:hot-path
    pub fn forward_relu_into(&self, x: &Matrix, out: &mut Matrix) {
        self.affine_into(x, out, relu_value);
    }

    /// `act(X W + b)` into `out`. The product seeds `out` itself, so the
    /// reshape clears nothing.
    #[inline]
    fn affine_into(&self, x: &Matrix, out: &mut Matrix, act: impl Fn(f64) -> f64) {
        out.reshape_for_overwrite(x.rows(), self.fan_out());
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract (see `# Panics` on the callers)"
        )]
        x.matmul_into(&self.w, out).expect("dense forward shape");
        for r in 0..out.rows() {
            for (v, &bi) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v = act(*v + bi);
            }
        }
    }

    /// Backward pass. `x` is the input that produced the forward pass,
    /// `delta` is `dL/dY` (shape `(n, fan_out)`). Accumulates `dL/dW` and
    /// `dL/db` into the layer's gradient buffers (overwriting them) and
    /// returns `dL/dX`.
    pub fn backward(&mut self, x: &Matrix, delta: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(delta.rows(), self.fan_in());
        self.backward_into(x, delta, &mut dx);
        dx
    }

    /// Backward pass writing `dL/dX` into a caller-provided buffer. Uses the
    /// transpose-free GEMM kernels (`XᵀΔ` and `ΔWᵀ` without materializing
    /// either transpose), so the only state touched is the layer's own
    /// gradient buffers and `dx`.
    // analyzer:hot-path
    pub fn backward_into(&mut self, x: &Matrix, delta: &Matrix, dx: &mut Matrix) {
        self.backward_params(x, delta);
        // The product writes every element of `dx` (from its own `-0.0`
        // seed), so the reshape clears nothing.
        dx.reshape_for_overwrite(delta.rows(), self.fan_in());
        #[expect(
            clippy::expect_used,
            reason = "`dx` reshaped to the matching shape on the line above"
        )]
        delta.matmul_nt_into(&self.w, dx).expect("dense backward dX shape");
    }

    /// Parameters-only backward pass: fills `dL/dW` and `dL/db` exactly as
    /// [`Dense::backward_into`] does (bit for bit) but skips `dL/dX`. This is
    /// the input layer's backward step, whose input gradient nobody reads.
    pub fn backward_params(&mut self, x: &Matrix, delta: &Matrix) {
        debug_assert_eq!(x.rows(), delta.rows(), "batch size mismatch");
        #[expect(
            clippy::expect_used,
            reason = "gradient buffers are layer-shaped by construction"
        )]
        x.matmul_tn_into(delta, &mut self.grad_w).expect("dense backward shape");
        // dL/db is the column sum of delta, accumulated row by row in
        // ascending r from `-0.0` (the identity `f64`'s `Sum` folds from), so
        // it equals a per-column `.sum()` bit for bit.
        self.grad_b.fill(-0.0);
        for row in delta.iter_rows() {
            for (g, &d) in self.grad_b.iter_mut().zip(row) {
                *g += d;
            }
        }
    }

    /// Yields `(params, grads)` slice pairs for the optimizer, weights first
    /// then biases.
    pub fn params_and_grads_mut(&mut self) -> [(&mut [f64], &[f64]); 2] {
        [
            (self.w.as_mut_slice(), self.grad_w.as_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_slice()),
        ]
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_affine_map() {
        let mut rng = SeedRng::new(3);
        let mut layer = Dense::new(&mut rng, 2, 2, false);
        // Overwrite with a known affine map.
        layer.w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        layer.b = vec![10.0, 20.0];
        let x = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let y = layer.forward(&x);
        assert_eq!(y.row(0), &[13.0, 28.0]);
    }

    #[test]
    fn fused_relu_forward_matches_forward_then_relu_bitwise() {
        let mut rng = SeedRng::new(12);
        let mut layer = Dense::new(&mut rng, 6, 9, true);
        // A zero column in W with a zero and a negative bias produce `+0.0`
        // and negative pre-activations next to ordinary ones.
        for r in 0..6 {
            layer.w.set(r, 2, 0.0);
        }
        layer.b = (0..9)
            .map(|c| if c == 2 { -0.0 } else { rng.uniform_range(-0.5, 0.5) })
            .collect();
        let x = Matrix::from_vec(13, 6, (0..78).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
            .unwrap();
        let want = crate::activation::relu(&layer.forward(&x));
        // A stale, larger buffer: the fused pass must overwrite all of it.
        let mut got = Matrix::filled(20, 9, f64::NAN);
        layer.forward_relu_into(&x, &mut got);
        assert_eq!(got.shape(), want.shape());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut rng = SeedRng::new(4);
        let mut layer = Dense::new(&mut rng, 3, 2, true);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let delta = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let dx = layer.backward(&x, &delta);
        assert_eq!(dx.shape(), (2, 3));
        // Bias gradient is the column sum of delta.
        let [(_, _), (_, gb)] = layer.params_and_grads_mut();
        assert_eq!(gb, &[1.0, 1.0]);
    }

    #[test]
    fn numeric_gradient_check_weights() {
        // Finite-difference check of dL/dW for L = sum(Y).
        let mut rng = SeedRng::new(5);
        let mut layer = Dense::new(&mut rng, 3, 2, true);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.25, -0.75]]).unwrap();
        let ones = Matrix::filled(2, 2, 1.0); // dL/dY for L = sum(Y)
        layer.backward(&x, &ones);
        let analytic = layer.grad_w.clone();
        let eps = 1e-6;
        for i in 0..3 {
            for j in 0..2 {
                let orig = layer.w.get(i, j);
                layer.w.set(i, j, orig + eps);
                let lp: f64 = layer.forward(&x).as_slice().iter().sum();
                layer.w.set(i, j, orig - eps);
                let lm: f64 = layer.forward(&x).as_slice().iter().sum();
                layer.w.set(i, j, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(i, j)).abs() < 1e-6,
                    "dW[{i}][{j}]: numeric {numeric} vs analytic {}",
                    analytic.get(i, j)
                );
            }
        }
    }

    #[test]
    fn params_only_backward_matches_full_backward_bitwise() {
        let mut rng = SeedRng::new(8);
        let mut full = Dense::new(&mut rng, 5, 3, true);
        let mut params_only = full.clone();
        // A zero column and a column of negative zeros pin the `-0.0`
        // seed of the bias-gradient sum.
        let x = Matrix::from_vec(6, 5, (0..30).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
            .unwrap();
        let mut delta =
            Matrix::from_vec(6, 3, (0..18).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
                .unwrap();
        for r in 0..6 {
            delta.set(r, 1, 0.0);
            delta.set(r, 2, -0.0);
        }
        full.backward(&x, &delta);
        params_only.backward_params(&x, &delta);
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(full.grad_w.as_slice()), bits(params_only.grad_w.as_slice()));
        assert_eq!(bits(&full.grad_b), bits(&params_only.grad_b));
        // And both equal the explicit-transpose product and the per-column
        // `.sum()` reference.
        let want_w = x.transpose().matmul(&delta).unwrap();
        assert_eq!(bits(full.grad_w.as_slice()), bits(want_w.as_slice()));
        let want: Vec<f64> = (0..3).map(|c| (0..6).map(|r| delta.get(r, c)).sum()).collect();
        assert_eq!(bits(&full.grad_b), bits(&want));
        assert!(full.grad_b[2].is_sign_negative(), "all -0.0 column sums to -0.0");
    }

    #[test]
    fn param_count() {
        let mut rng = SeedRng::new(6);
        let layer = Dense::new(&mut rng, 10, 4, true);
        assert_eq!(layer.param_count(), 44);
    }
}
