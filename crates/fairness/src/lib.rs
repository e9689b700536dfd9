//! Group-fairness notions, losses, and evaluation metrics for FACTION.
//!
//! Three layers, matching the paper:
//!
//! * [`notion`] — the **relaxed linear fairness notion** `v(D, θ)` of
//!   Definition 1 / Eq. (1) (Lohaus et al., "Too Relaxed to Be Fair"). It is
//!   linear in the classifier output `h(x, θ)`, hence differentiable, and
//!   instantiates both the difference of demographic parity (DDP) and the
//!   difference of equality of opportunity (DEO) depending on how the group
//!   proportion `p̂₁` is estimated.
//! * [`loss`] — the **fairness-regularized training loss** of Eqs. (8)–(9):
//!   `L_total = L_CE + μ ([v]₊ − ε)`, with the hinge `[·]₊` and slack `ε`.
//!   The gradient with respect to the classifier outputs is provided so any
//!   backprop engine can consume it (`faction-nn` does).
//! * [`metrics`] — the **evaluation metrics** of Sec. V-A1: hard-prediction
//!   DDP, equalized-odds difference (EOD), mutual information (MI) between
//!   predictions and the sensitive attribute, and accuracy.
//!
//! One extension the paper sketches is implemented as well:
//!
//! * [`multi`] — multi-valued sensitive attributes (Sec. III-A): max
//!   pairwise-gap generalizations of DDP/EOD/MI and one-vs-rest relaxed
//!   disparities.
//!
//! This crate is dependency-free and purely numerical: everything operates
//! on plain slices so it can be unit-tested exhaustively and reused by the
//! baselines as well as FACTION itself.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod calibration;
pub mod loss;
pub mod metrics;
pub mod multi;
pub mod notion;

pub use loss::{FairnessPenalty, TotalLossConfig};
pub use metrics::{accuracy, ddp, eod, mutual_information, GroupConfusion};
pub use multi::{ddp_multi, eod_multi, mutual_information_multi};
pub use notion::{FairnessNotion, RelaxedFairness};
