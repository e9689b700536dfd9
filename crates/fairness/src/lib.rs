//! Group-fairness notions, losses, and evaluation metrics for FACTION.
//!
//! Two layers, matching the paper:
//!
//! * [`loss`] — the **relaxed linear fairness notion** `v(D, θ)` of
//!   Definition 1 / Eq. (1) (Lohaus et al., "Too Relaxed to Be Fair"),
//!   instantiated as the relaxed difference of demographic parity, and the
//!   **fairness-regularized training loss** of Eqs. (8)–(9):
//!   `L_total = L_CE + μ (|v| − ε)` with the symmetric penalty `|v|` and
//!   slack `ε`. `v` is linear in the classifier output `h(x, θ)`, so the
//!   gradient with respect to the outputs is provided and any backprop
//!   engine can consume it (`faction-nn` does).
//! * [`metrics`] — the **evaluation metrics** of Sec. V-A1: hard-prediction
//!   DDP, equalized-odds difference (EOD), mutual information (MI) between
//!   predictions and the sensitive attribute, and accuracy. They take any
//!   number of sensitive groups (Sec. III-A's multi-valued extension) and
//!   reduce to the paper's binary definitions for two.
//!
//! [`multi`] holds the per-group pieces of the multi-valued extension:
//! positive-prediction rates and one-vs-rest relaxed disparities.
//!
//! This crate is dependency-free and purely numerical: everything operates
//! on plain slices so it can be unit-tested exhaustively and reused by the
//! baselines as well as FACTION itself.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

pub mod calibration;
pub mod loss;
pub mod metrics;
pub mod multi;

pub use loss::TotalLossConfig;
pub use metrics::{accuracy, ddp, eod, mutual_information};
