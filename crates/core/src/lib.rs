//! FACTION: the Fair Active Online Learning protocol, the FACTION
//! selection algorithm, and the seven baselines of the paper's evaluation.
//!
//! Layered on the substrates (`faction-linalg`, `faction-nn`,
//! `faction-density`, `faction-fairness`, `faction-data`), this crate is the
//! paper's primary contribution:
//!
//! * [`pool`] — the growing labeled task pool `D_t` and the online model
//!   wrapper that retrains on it (Algorithm 1, lines 7–8);
//! * [`loss`] — the fairness-regularized total loss `L_CE + μ(L_fair − ε)`
//!   of Eq. (9), plugged into `faction-nn`'s training loop;
//! * [`selection`] — score normalization (Eq. 7) and the Bernoulli-trial
//!   acquisition loop (Algorithm 1, lines 19–36);
//! * [`strategies`] — [`strategies::Strategy`] implementations: **FACTION**
//!   (Eq. 6 scoring with ablation switches) and the baselines **Random**,
//!   **Entropy-AL**, **QuFUR**, **DDU**, **FAL**, **FAL-CUR** and
//!   **Decoupled** (D-FA²L), each adapted to the online setting as in
//!   Sec. V-A2;
//! * [`session`] — the per-round protocol body as an incremental state
//!   machine (`feed` → decisions, `apply_labels` → retrain) with full
//!   mid-stream snapshot/restore, shared by the batch runner and the
//!   multi-tenant serving layer;
//! * [`runner`] — the sequential protocol driver: per-task evaluation
//!   before adaptation, budget accounting, timing, metric recording;
//! * [`report`] — multi-seed aggregation and table formatting for the
//!   benchmark harnesses;
//! * [`theory`] — the convex (logistic) instantiation used to validate
//!   Theorem 1's regret / violation / query-complexity growth rates.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod drift;
pub mod kmeans;
pub mod loss;
pub mod pool;
pub mod report;
pub mod runner;
pub mod selection;
pub mod session;
pub mod strategies;
pub mod theory;

pub use config::ExperimentConfig;
pub use loss::{FairTotalLoss, MultiGroupFairLoss};
pub use pool::{LabeledPool, OnlineModel, PoolPolicy};
pub use runner::{run_experiment, RunRecord, TaskRecord};
pub use selection::{acquire, AcquisitionMode};
pub use session::{
    AcquisitionDecisions, OnlineSession, SessionSnapshot, TaskEvaluation, TrainOutcome,
};
pub use strategies::{SelectionContext, Strategy};
