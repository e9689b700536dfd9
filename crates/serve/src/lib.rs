//! faction-serve — a multi-tenant online session server.
//!
//! The paper's setting is inherently *online*: candidates arrive, the
//! learner decides whether to spend label budget, the model adapts as the
//! environment drifts. This crate turns the repo's batch experiment grids
//! into that shape — a long-lived [`SessionManager`] hosting many
//! concurrent [`faction_core::OnlineSession`]s, each owning its model,
//! budget, pool policy, and session-seed-derived RNG, sharded across the
//! engine's deterministic pool (one shared run queue).
//!
//! ## Determinism contract (the heart of it)
//!
//! A session's decision trace is a pure function of **(session seed,
//! config, its own request order)** — never of co-tenant *scheduling*.
//! Admission control and tenant-budget settlement run sequentially in
//! submission/slot order; only the per-session compute (scoring,
//! retraining) fans out across workers, and every session's state lives
//! behind its own lock. The serve determinism suite pins the whole trace
//! byte-for-byte across `jobs=1`, `jobs=8`, and
//! [`faction_engine::ChaosSchedule`] perturbation.
//!
//! Shared *resources* are different from shared *scheduling*: a tenant's
//! label budget is one ledger across its sessions, so a session can observe
//! co-tenant demand (denied labels) — but which requests contend is decided
//! by workload order alone, so the observation is deterministic too.
//!
//! ## Backpressure, never silent drops
//!
//! The session table is bounded ([`ServeConfig::max_sessions`]): an `open`
//! beyond it is answered [`Response::Shed`]. Each session's inbox is
//! bounded ([`ServeConfig::inbox_capacity`]): a request past it is answered
//! [`Response::Busy`]. Both are responses in the trace and events in the
//! journal — a request is either executed or visibly refused.
//!
//! There is no network layer: workloads are newline-delimited request
//! scripts ([`request`]) so the whole server is testable in-process
//! (`faction_cli serve`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

pub mod manager;
pub mod request;

pub use manager::{ServeConfig, SessionManager};
pub use request::{parse_workload, OpenSpec, Request, Response, WorkloadError};
