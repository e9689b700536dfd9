//! # FACTION — Fairness-Aware Active Online Learning with Changing Environments
//!
//! A from-scratch Rust reproduction of the ICDE 2025 paper. The system
//! addresses three simultaneous constraints on real-world classifiers:
//! data arrives as a *stream* of tasks whose distribution shifts over time,
//! labels are *expensive* and must be queried within a budget, and
//! predictions must stay *fair* across sensitive groups.
//!
//! FACTION's answer (Sec. IV): score every unlabeled sample by
//! `u(x) = g(z) − λ Σ_c p_c(x)·Δg_c(z)` — epistemic uncertainty from a
//! feature-space density estimator with one Gaussian component per
//! (class, sensitive) pair, minus a fairness gap derived from that same
//! estimator — query the *most uncertain and most unfair* samples by
//! Bernoulli trials, and train with a fairness-regularized loss.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`linalg`] | matrices, Cholesky, deterministic RNG |
//! | [`nn`] | MLPs with spectral normalization, optimizers, losses |
//! | [`density`] | the fairness-sensitive GDA estimator (Eqs. 3–5) |
//! | [`fairness`] | relaxed fairness notion (Eq. 1), losses (Eqs. 8–9), DDP/EOD/MI |
//! | [`data`] | the five simulated benchmark streams |
//! | [`core`] | protocol, FACTION, 7 baselines, runner, theory validation |
//! | [`engine`] | deterministic parallel execution: one-queue pool, grid jobs, journal |
//! | [`serve`] | multi-tenant online session server over the engine pool |
//!
//! ## Quickstart
//!
//! ```
//! use faction::core::strategies::faction::{Faction, FactionParams};
//! use faction::core::{run_experiment, ExperimentConfig};
//! use faction::data::{datasets::Dataset, Scale};
//!
//! let stream = Dataset::Nysf.stream_prefix(0, Scale::Quick, Some(2), None); // keep the doctest fast
//! let cfg = ExperimentConfig::quick();
//! let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
//! let mut strategy = Faction::new(FactionParams { loss: cfg.loss, ..Default::default() });
//! let record = run_experiment(&stream, &mut strategy, &arch, &cfg, 0);
//! assert_eq!(record.records.len(), stream.len());
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` for the full
//! experiment index.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use faction_core as core;
pub use faction_data as data;
pub use faction_density as density;
pub use faction_engine as engine;
pub use faction_fairness as fairness;
pub use faction_linalg as linalg;
pub use faction_nn as nn;
pub use faction_serve as serve;

/// Commonly used items in one import.
pub mod prelude {
    pub use faction_core::strategies::faction::{Faction, FactionParams, RefitMode};
    pub use faction_core::strategies::{SelectionContext, Strategy};
    pub use faction_core::drift::DriftDetector;
    pub use faction_core::{
        run_experiment, ExperimentConfig, FairTotalLoss, LabeledPool, MultiGroupFairLoss,
        OnlineModel, PoolPolicy, RunRecord,
    };
    pub use faction_data::datasets::Dataset;
    pub use faction_data::{Oracle, Sample, Scale, Task, TaskStream};
    pub use faction_engine::{Engine, EngineConfig, ExperimentJob};
    pub use faction_serve::{ServeConfig, SessionManager};
    pub use faction_density::{FairDensityConfig, FairDensityEstimator};
    pub use faction_fairness::{accuracy, ddp, eod, mutual_information, TotalLossConfig};
    pub use faction_linalg::{Matrix, SeedRng};
    pub use faction_nn::{Mlp, MlpConfig};
}
