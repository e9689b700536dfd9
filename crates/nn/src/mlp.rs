//! The multi-layer perceptron model: forward, backprop, feature extraction
//! and mini-batch training.

use faction_linalg::{Matrix, SeedRng};

use crate::activation::relu_backward;
use crate::dense::Dense;
use crate::loss::{softmax_in_place, BatchLoss, BatchMeta, LossScratch};
use crate::optimizer::Optimizer;
use crate::spectral::{self, SpectralConfig};

/// Reusable forward/backward buffers for an [`Mlp`].
///
/// One workspace amortizes every per-layer allocation of the hot path:
/// `acts` caches the hidden activations (backprop masks by them, so no
/// hidden pre-activation is kept), `logits` the output layer's
/// pre-activation, `delta`/`dx` ping-pong the gradient flowing backwards
/// (the loss writes the logits gradient straight into `delta`), `loss`
/// holds the loss's intermediates, and `sigma` is the spectral power
/// iteration's scratch. Buffers grow to the high-water batch size on first
/// use and are reshaped in place afterwards
/// ([`Matrix::reshape_for_overwrite`]), so once a workspace has seen the
/// batch shape, training steps and scoring calls make no heap allocation
/// (given an optimizer whose state already exists).
/// A workspace is tied to nothing — the same one can serve different models
/// and batch shapes.
#[derive(Debug, Clone, Default)]
pub struct MlpWorkspace {
    acts: Vec<Matrix>,
    logits: Matrix,
    delta: Matrix,
    dx: Matrix,
    loss: LossScratch,
    sigma: Vec<f64>,
}

impl MlpWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Architecture and initialization configuration for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Layer widths `[input, hidden…, classes]`. A two-element vector yields
    /// a linear (logistic-regression) model, which is what the Theorem 1
    /// validation harness uses to stay inside the convexity assumption.
    pub layer_sizes: Vec<usize>,
    /// Spectral-normalization settings; `None` disables the regularizer
    /// (one of the ablation axes in `DESIGN.md` §5).
    pub spectral: Option<SpectralConfig>,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl MlpConfig {
    /// Convenience constructor with spectral normalization enabled at the
    /// default cap — the configuration FACTION and DDU use.
    pub fn new(layer_sizes: Vec<usize>, seed: u64) -> Self {
        MlpConfig { layer_sizes, spectral: Some(SpectralConfig::default()), seed }
    }

    /// Disables spectral normalization.
    pub fn without_spectral_norm(mut self) -> Self {
        self.spectral = None;
        self
    }
}

/// Mini-batch training options.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct TrainOptions {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions { epochs: 10, batch_size: 64 }
    }
}

/// A feed-forward ReLU network with optional spectral normalization.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    spectral: Option<SpectralConfig>,
}

impl Mlp {
    /// Builds the network described by `cfg`.
    ///
    /// # Panics
    /// Panics if fewer than two layer sizes are given (no model to build).
    pub fn new(cfg: &MlpConfig) -> Self {
        assert!(
            cfg.layer_sizes.len() >= 2,
            "MlpConfig needs at least [input, output] sizes"
        );
        let mut rng = SeedRng::new(cfg.seed);
        let n_layers = cfg.layer_sizes.len() - 1;
        let layers = (0..n_layers)
            .map(|i| {
                let relu_follows = i + 1 < n_layers;
                Dense::new(&mut rng, cfg.layer_sizes[i], cfg.layer_sizes[i + 1], relu_follows)
            })
            .collect();
        Mlp { layers, spectral: cfg.spectral }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Number of output classes.
    #[expect(clippy::expect_used, reason = "`Mlp::new` rejects empty architectures")]
    pub fn num_classes(&self) -> usize {
        self.layers.last().expect("non-empty").fan_out()
    }

    /// Dimensionality of the feature space `z = r(x, θ)` consumed by the
    /// density estimator: the width of the last hidden layer, or the input
    /// dimension for a linear model.
    pub fn feature_dim(&self) -> usize {
        if self.layers.len() == 1 {
            self.input_dim()
        } else {
            self.layers[self.layers.len() - 1].fan_in()
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Raw logits for a batch, shape `(n, classes)`.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.logits_into(x, &mut MlpWorkspace::default(), &mut out);
        out
    }

    /// Writes the raw logits for a batch into `out` using `ws` for the
    /// intermediate layers; allocation-free once both have reached the batch
    /// shape. Bit-identical to [`Mlp::logits`].
    pub fn logits_into(&self, x: &Matrix, ws: &mut MlpWorkspace, out: &mut Matrix) {
        self.forward_into(x, &mut ws.acts, out);
    }

    /// The forward pass: each hidden layer's activation `relu(X W + b)`
    /// into `acts` (one per hidden layer, sized here), the logits into
    /// `out`.
    fn forward_into(&self, x: &Matrix, acts: &mut Vec<Matrix>, out: &mut Matrix) {
        let hidden = self.layers.len() - 1;
        acts.resize_with(hidden, Matrix::default);
        for i in 0..hidden {
            let (head, tail) = acts.split_at_mut(i);
            let input: &Matrix = if i == 0 { x } else { &head[i - 1] };
            self.layers[i].forward_relu_into(input, &mut tail[0]);
        }
        let input = if hidden == 0 { x } else { &acts[hidden - 1] };
        self.layers[hidden].forward_into(input, out);
    }

    /// Penultimate features `z = r(x, θ)` — post-ReLU activations of the
    /// last hidden layer (paper Sec. IV-B; for tabular MLPs the paper
    /// extracts "from the first linear layer", which for its two-layer MLP
    /// *is* the last hidden layer). Returns a copy of `x` for linear models.
    pub fn features(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.features_into(x, &mut MlpWorkspace::default(), &mut out);
        out
    }

    /// Writes the penultimate features into `out` using `ws` for the
    /// intermediate layers; allocation-free once both have reached the batch
    /// shape. Bit-identical to [`Mlp::features`].
    pub fn features_into(&self, x: &Matrix, ws: &mut MlpWorkspace, out: &mut Matrix) {
        let n_layers = self.layers.len();
        if n_layers == 1 {
            out.reshape_for_overwrite(x.rows(), x.cols());
            out.as_mut_slice().copy_from_slice(x.as_slice());
            return;
        }
        let hidden = n_layers - 1;
        let acts = &mut ws.acts;
        acts.resize_with(hidden, Matrix::default);
        for i in 0..hidden {
            let (head, tail) = acts.split_at_mut(i);
            let input: &Matrix = if i == 0 { x } else { &head[i - 1] };
            let dst: &mut Matrix = if i + 1 == hidden { out } else { &mut tail[0] };
            self.layers[i].forward_relu_into(input, dst);
        }
    }

    /// Softmax class probabilities, shape `(n, classes)`.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut out = self.logits(x);
        softmax_in_place(&mut out);
        out
    }

    /// Writes softmax class probabilities into `out` using `ws` for the
    /// intermediate layers. Bit-identical to [`Mlp::predict_proba`].
    pub fn predict_proba_into(&self, x: &Matrix, ws: &mut MlpWorkspace, out: &mut Matrix) {
        self.logits_into(x, ws, out);
        softmax_in_place(out);
    }

    /// Writes softmax class probabilities into `out` from penultimate
    /// features `z` — the output of [`Mlp::features_into`] for a batch —
    /// running only the class head. Bit-identical to
    /// [`Mlp::predict_proba_into`] on the batch `z` came from, without
    /// recomputing the hidden stack.
    pub fn proba_from_features_into(&self, z: &Matrix, out: &mut Matrix) {
        #[expect(clippy::expect_used, reason = "`Mlp::new` rejects empty architectures")]
        self.layers.last().expect("non-empty").forward_into(z, out);
        softmax_in_place(out);
    }

    /// Hard class predictions (argmax of logits).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.logits(x)
            .iter_rows()
            .map(|row| faction_linalg::vector::argmax(row).unwrap_or(0))
            .collect()
    }

    /// One full-batch gradient step with the given loss and optimizer.
    /// Returns the batch loss value before the update.
    pub fn train_step(
        &mut self,
        x: &Matrix,
        meta: &BatchMeta<'_>,
        loss: &dyn BatchLoss,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        self.train_step_with(x, meta, loss, opt, &mut MlpWorkspace::default())
    }

    /// [`Mlp::train_step`] with caller-provided buffers: the forward pass,
    /// the loss and its gradient, the backward pass and the spectral power
    /// iteration all reuse `ws`, so after a warm-up step at the batch shape
    /// a step makes no heap allocation. The backward pass stops at the input
    /// layer's parameter gradients: `dL/dX` of the network input is never
    /// formed, since nothing reads it. Bit-identical to [`Mlp::train_step`].
    pub fn train_step_with(
        &mut self,
        x: &Matrix,
        meta: &BatchMeta<'_>,
        loss: &dyn BatchLoss,
        opt: &mut dyn Optimizer,
        ws: &mut MlpWorkspace,
    ) -> f64 {
        faction_telemetry::counter_add("nn.train.steps", 1);
        let n_layers = self.layers.len();
        let MlpWorkspace { acts, logits, delta, dx, loss: loss_scratch, sigma } = &mut *ws;
        self.forward_into(x, acts, logits);
        let loss_value = loss.loss_grad_into(logits, meta, loss_scratch, delta);
        // Backward pass: `delta`/`dx` ping-pong so each layer writes its
        // input gradient into the buffer the previous iteration vacated, then
        // masks it by the ReLU that produced that layer's input. The input
        // layer takes the parameters-only step.
        for i in (1..n_layers).rev() {
            self.layers[i].backward_into(&acts[i - 1], delta, dx);
            std::mem::swap(delta, dx);
            relu_backward(delta, &acts[i - 1]);
        }
        self.layers[0].backward_params(x, delta);
        // After an odd number of swaps each buffer holds the other's role;
        // swap back, so the loss gradient and each layer's input gradient
        // land in the same buffer every step and neither has to grow again
        // after the warm-up step.
        if n_layers.is_multiple_of(2) {
            std::mem::swap(delta, dx);
        }
        // Optimizer updates, then spectral cap enforcement.
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for (k, (params, grads)) in layer.params_and_grads_mut().into_iter().enumerate() {
                opt.step(2 * i + k, params, grads);
            }
        }
        if let Some(cfg) = self.spectral {
            for layer in &mut self.layers {
                spectral::enforce(layer, &cfg, sigma);
            }
        }
        loss_value
    }

    /// L2 norm of the full parameter vector (weights and biases).
    pub fn param_norm(&self) -> f64 {
        let mut sq = 0.0;
        for layer in &self.layers {
            sq += layer.weights().as_slice().iter().map(|v| v * v).sum::<f64>();
            sq += layer.bias().iter().map(|v| v * v).sum::<f64>();
        }
        sq.sqrt()
    }

    /// Projects the parameter vector onto the L2 ball of radius `radius`
    /// (no-op when already inside). This realizes the "convex and closed
    /// domain Θ" of the paper's Assumption 1 for the linear models used in
    /// the Theorem 1 validation harness.
    pub fn project_params(&mut self, radius: f64) {
        assert!(radius > 0.0, "projection radius must be positive");
        let norm = self.param_norm();
        if norm <= radius {
            return;
        }
        let factor = radius / norm;
        for layer in &mut self.layers {
            for (params, _) in layer.params_and_grads_mut() {
                for v in params {
                    *v *= factor;
                }
            }
        }
    }

    /// Mini-batch training over `(x, labels, sensitive)`. Returns the mean
    /// loss of each epoch (useful for convergence assertions in tests).
    ///
    /// # Panics
    /// Panics if row counts disagree or the dataset is empty.
    #[expect(clippy::too_many_arguments, reason = "full training configuration surface")]
    pub fn fit(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        sensitive: &[i8],
        loss: &dyn BatchLoss,
        opt: &mut dyn Optimizer,
        options: &TrainOptions,
        rng: &mut SeedRng,
    ) -> Vec<f64> {
        let n = x.rows();
        assert!(n > 0, "fit: empty dataset");
        assert_eq!(labels.len(), n, "fit: label count mismatch");
        assert_eq!(sensitive.len(), n, "fit: sensitive count mismatch");
        let bs = options.batch_size.clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(options.epochs);
        let mut ws = MlpWorkspace::new();
        let mut xb = Matrix::default();
        let mut yb: Vec<usize> = Vec::new();
        let mut sb: Vec<i8> = Vec::new();
        for _ in 0..options.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0;
            let mut batches = 0.0f64;
            for chunk in order.chunks(bs) {
                gather_rows_into(x, chunk, &mut xb);
                yb.clear();
                yb.extend(chunk.iter().map(|&i| labels[i]));
                sb.clear();
                sb.extend(chunk.iter().map(|&i| sensitive[i]));
                let meta = BatchMeta { labels: &yb, sensitive: &sb };
                total += self.train_step_with(&xb, &meta, loss, opt, &mut ws);
                batches += 1.0;
            }
            epoch_losses.push(total / batches.max(1.0));
        }
        epoch_losses
    }
}

/// Copies the listed rows of `x` into a new matrix (batch gather).
pub fn gather_rows(x: &Matrix, indices: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(indices.len(), x.cols());
    gather_rows_into(x, indices, &mut out);
    out
}

/// [`gather_rows`] into a caller-provided buffer (reshaped as needed) —
/// lets the mini-batch loop reuse one gather buffer across all batches.
pub fn gather_rows_into(x: &Matrix, indices: &[usize], out: &mut Matrix) {
    out.reshape_for_overwrite(indices.len(), x.cols());
    for (r, &i) in indices.iter().enumerate() {
        out.row_mut(r).copy_from_slice(x.row(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use crate::optimizer::Sgd;

    /// Two Gaussian blobs, linearly separable.
    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<i8>) {
        let mut rng = SeedRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2 * n_per {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            rows.push(vec![rng.normal(center, 0.5), rng.normal(center, 0.5)]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let s = vec![1i8; labels.len()];
        (x, labels, s)
    }

    #[test]
    fn shapes_and_dims() {
        let mlp = Mlp::new(&MlpConfig::new(vec![4, 16, 8, 3], 1));
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.num_classes(), 3);
        assert_eq!(mlp.feature_dim(), 8);
        assert_eq!(mlp.param_count(), 4 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3);
        let x = Matrix::zeros(5, 4);
        assert_eq!(mlp.logits(&x).shape(), (5, 3));
        assert_eq!(mlp.features(&x).shape(), (5, 8));
        assert_eq!(mlp.predict(&x).len(), 5);
    }

    #[test]
    fn linear_model_features_are_input() {
        let mlp = Mlp::new(&MlpConfig::new(vec![3, 2], 2));
        assert_eq!(mlp.feature_dim(), 3);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(mlp.features(&x), x);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mlp = Mlp::new(&MlpConfig::new(vec![2, 8, 2], 3));
        let x = Matrix::from_rows(&[vec![0.5, -0.5], vec![3.0, 3.0]]).unwrap();
        let p = mlp.predict_proba(&x);
        for r in 0..2 {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn head_on_features_matches_full_forward_bitwise() {
        let (x, ..) = blobs(40, 5);
        for sizes in [vec![2, 2], vec![2, 16, 8, 3]] {
            let mlp = Mlp::new(&MlpConfig::new(sizes, 9));
            let mut ws = MlpWorkspace::new();
            let (mut z, mut want, mut got) =
                (Matrix::default(), Matrix::default(), Matrix::default());
            mlp.predict_proba_into(&x, &mut ws, &mut want);
            mlp.features_into(&x, &mut ws, &mut z);
            mlp.proba_from_features_into(&z, &mut got);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fit_learns_separable_blobs() {
        let (x, y, s) = blobs(50, 42);
        let mut mlp = Mlp::new(&MlpConfig::new(vec![2, 16, 2], 7));
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut rng = SeedRng::new(0);
        let losses = mlp.fit(
            &x,
            &y,
            &s,
            &CrossEntropyLoss,
            &mut opt,
            &TrainOptions { epochs: 40, batch_size: 16 },
            &mut rng,
        );
        assert!(losses.last().unwrap() < &0.1, "final loss {:?}", losses.last());
        let preds = mlp.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn training_reduces_loss_monotonically_enough() {
        let (x, y, s) = blobs(40, 9);
        let mut mlp = Mlp::new(&MlpConfig::new(vec![2, 8, 2], 11));
        let mut opt = Sgd::new(0.05);
        let mut rng = SeedRng::new(1);
        let losses = mlp.fit(
            &x,
            &y,
            &s,
            &CrossEntropyLoss,
            &mut opt,
            &TrainOptions { epochs: 10, batch_size: 32 },
            &mut rng,
        );
        assert!(losses.first().unwrap() > losses.last().unwrap());
    }

    #[test]
    fn spectral_norm_keeps_weights_bounded_during_training() {
        let (x, y, s) = blobs(30, 13);
        let cap = 1.0;
        let mut cfg = MlpConfig::new(vec![2, 8, 2], 5);
        cfg.spectral = Some(SpectralConfig { cap, power_iterations: 2 });
        let mut mlp = Mlp::new(&cfg);
        let mut opt = Sgd::new(0.5); // aggressive lr to stress the cap
        let mut rng = SeedRng::new(2);
        mlp.fit(
            &x,
            &y,
            &s,
            &CrossEntropyLoss,
            &mut opt,
            &TrainOptions { epochs: 20, batch_size: 16 },
            &mut rng,
        );
        for layer in &mlp.layers {
            let mut u = vec![1.0; layer.fan_in()];
            let n = faction_linalg::vector::norm2(&u);
            faction_linalg::vector::scale(&mut u, 1.0 / n);
            let sigma = crate::spectral::estimate_sigma(layer.weights(), &mut u, 200);
            // One power-iteration step per update is approximate; allow slack.
            assert!(sigma < cap * 1.5, "layer sigma {sigma}");
        }
    }

    #[test]
    fn end_to_end_gradient_check() {
        // Finite differences through the whole network on a tiny problem.
        let mut mlp = Mlp::new(&MlpConfig::new(vec![2, 3, 2], 21).without_spectral_norm());
        let x = Matrix::from_rows(&[vec![0.3, -0.7], vec![-1.2, 0.4]]).unwrap();
        let labels = [0usize, 1usize];
        let sens = [1i8, -1i8];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };

        // Analytic gradient via a zero-lr "optimizer" that records grads.
        struct Recorder {
            grads: Vec<Vec<f64>>,
        }
        impl Optimizer for Recorder {
            fn step(&mut self, slot: usize, _params: &mut [f64], grads: &[f64]) {
                if self.grads.len() <= slot {
                    self.grads.resize(slot + 1, Vec::new());
                }
                self.grads[slot] = grads.to_vec();
            }
            fn reset(&mut self) {}
            fn learning_rate(&self) -> f64 {
                0.0
            }
            fn set_learning_rate(&mut self, _lr: f64) {}
        }
        let mut rec = Recorder { grads: Vec::new() };
        mlp.train_step(&x, &meta, &CrossEntropyLoss, &mut rec);

        let eps = 1e-6;
        let eval = |m: &Mlp| CrossEntropyLoss.loss(&m.logits(&x), &labels);
        for (li, layer) in mlp.layers.clone().iter().enumerate() {
            for idx in 0..layer.weights().as_slice().len() {
                let mut mp = mlp.clone();
                mp.layers[li].w.as_mut_slice()[idx] += eps;
                let mut mm = mlp.clone();
                mm.layers[li].w.as_mut_slice()[idx] -= eps;
                let numeric = (eval(&mp) - eval(&mm)) / (2.0 * eps);
                let analytic = rec.grads[2 * li][idx];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {li} w[{idx}]: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn projection_caps_param_norm() {
        let mut mlp = Mlp::new(&MlpConfig::new(vec![3, 4, 2], 31));
        let norm = mlp.param_norm();
        assert!(norm > 0.0);
        // Projection with a big radius is a no-op.
        let before = mlp.clone();
        mlp.project_params(norm + 1.0);
        assert_eq!(mlp.param_norm(), before.param_norm());
        // Projection with a small radius rescales to exactly that radius.
        mlp.project_params(0.5);
        assert!((mlp.param_norm() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gather_rows_selects() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let g = gather_rows(&x, &[2, 0]);
        assert_eq!(g.row(0), &[3.0]);
        assert_eq!(g.row(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn config_needs_two_sizes() {
        Mlp::new(&MlpConfig::new(vec![4], 0));
    }
}
