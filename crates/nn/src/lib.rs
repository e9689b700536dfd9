//! From-scratch feed-forward neural networks for the FACTION reproduction.
//!
//! The paper trains a ResNet-18 with spectral normalization on image data and
//! a two-layer MLP on tabular data (Sec. V-A3), then extracts penultimate
//! features `z = r(x, θ)` for the fairness-sensitive density estimator
//! (Sec. IV-B). Per the substitution documented in `DESIGN.md`, this
//! reproduction feeds all five simulated datasets through spectrally
//! normalized MLPs: the density estimator consumes features, not pixels, and
//! the load-bearing property is a smooth, sensitive (bi-Lipschitz) feature
//! space — exactly what spectral normalization provides.
//!
//! Components:
//! * [`dense::Dense`] — fully-connected layer with cached gradients;
//! * [`activation`] — ReLU forward/backward kernels;
//! * [`loss`] — stable softmax, cross-entropy, and the [`loss::BatchLoss`]
//!   trait that lets `faction-core` plug the fairness-regularized total loss
//!   (paper Eq. 9) into the same training loop;
//! * [`optimizer`] — SGD with momentum and Adam;
//! * [`spectral`] — power-iteration spectral normalization (Miyato et al.,
//!   the regularizer DDU and FACTION rely on);
//! * [`mlp::Mlp`] — the model: forward, backprop, feature extraction,
//!   mini-batch training;
//! * [`presets`] — the paper's architecture presets (standard and the
//!   Fig. 6 "wide" variant).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod activation;
pub mod dense;
pub mod init;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod presets;
pub mod spectral;

pub use loss::{BatchLoss, BatchMeta, CrossEntropyLoss, LossScratch};
pub use mlp::{Mlp, MlpConfig, MlpWorkspace, TrainOptions};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use spectral::SpectralConfig;
