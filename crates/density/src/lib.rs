//! Fairness-sensitive density estimation (FACTION paper, Section IV-B).
//!
//! The paper's central technical device is a Gaussian-Discriminant-Analysis
//! density estimator over the network's feature space whose mixture
//! components are indexed by **(class label, sensitive attribute)** pairs
//! rather than class labels alone. From it FACTION derives:
//!
//! * **epistemic uncertainty** — the overall feature density `g(z)` of
//!   Eq. (3): low density means the model has seen little similar data,
//!   which flags both informative samples and out-of-distribution samples
//!   after an environment shift;
//! * **fair epistemic uncertainty** — the per-class density gaps
//!   `Δg_c(z) = |g(z|y=c, s=+1) − g(z|y=c, s=−1)|` of Eqs. (4)–(5): a large
//!   gap means the sample's feature representation is strongly tied to one
//!   sensitive group within its class, i.e. the sample is "unfair".
//!
//! Numerics: densities in even modest feature dimensions underflow `f64`, so
//! this crate works in **log space** throughout (`log g`), exactly like the
//! reference DDU implementation. All of FACTION's downstream use is
//! rank-based (per-batch min–max normalization, Eq. 7), so the monotone
//! log transform preserves selection behavior; see `DESIGN.md` §2.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

pub mod gaussian;
pub mod gda;
pub mod incremental;

pub use gaussian::Gaussian;
pub use gda::{ComponentKey, DensityScratch, FairDensityConfig, FairDensityEstimator};
pub use incremental::IncrementalGda;

/// Errors produced by density-estimation routines.
#[derive(Debug, Clone, PartialEq)]
pub enum DensityError {
    /// The linear-algebra substrate reported a failure.
    Linalg(faction_linalg::LinalgError),
    /// No training samples were provided.
    NoData,
    /// Feature vectors of inconsistent dimensionality were supplied.
    DimensionMismatch {
        /// Expected feature dimension.
        expected: usize,
        /// Observed feature dimension.
        got: usize,
    },
    /// The incremental estimator cannot represent the request (unsupported
    /// configuration, unknown/duplicate row uid, or a cell that needs the
    /// batch escalation ladder). The caller should fall back to a clean
    /// batch fit.
    Incremental {
        /// Human-readable reason.
        what: String,
    },
}

impl std::fmt::Display for DensityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DensityError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            DensityError::NoData => write!(f, "no training samples supplied"),
            DensityError::DimensionMismatch { expected, got } => {
                write!(f, "feature dimension mismatch: expected {expected}, got {got}")
            }
            DensityError::Incremental { what } => {
                write!(f, "incremental estimator limitation: {what}")
            }
        }
    }
}

impl std::error::Error for DensityError {}

impl From<faction_linalg::LinalgError> for DensityError {
    fn from(e: faction_linalg::LinalgError) -> Self {
        DensityError::Linalg(e)
    }
}
