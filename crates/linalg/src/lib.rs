//! Dense linear-algebra and random-number substrate for the FACTION
//! reproduction.
//!
//! The FACTION system ("Fairness-Aware Active Online Learning with Changing
//! Environments", ICDE 2025) relies on a small but load-bearing amount of
//! numerical machinery: matrix products for neural-network layers, Cholesky
//! factorizations for the Gaussian discriminant density estimator, and
//! deterministic sampling for the synthetic task streams. This crate provides
//! all of it from scratch, with no external linear-algebra dependencies, so
//! that every numerical behavior in the reproduction is auditable.
//!
//! The crate keeps a simple surface — row-major dense `f64` storage, no
//! expression templates — but the hot products behind [`Matrix::matmul`]
//! dispatch through a [`KernelBackend`] chosen by runtime feature detection:
//! the explicit AVX-512 and AVX2 micro-kernels in [`simd`] when the host has
//! them, the packed/blocked scalar reference kernels in [`kernels`]
//! otherwise. All produce **bit-identical** f64 results (the SIMD kernels
//! vectorize across output lanes with separate multiply and add), so
//! artifacts stay reproducible byte-for-byte on any host. Reference implementations are
//! retained as `*_naive`/`*_simple` so benches and property tests can always
//! compare the paths in the same build.
//!
//! `unsafe` is denied crate-wide except in [`simd`], which needs it for
//! `core::arch` intrinsics; every unsafe site there carries a `// SAFETY:`
//! comment, which `clippy::undocumented_unsafe_blocks` enforces.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

pub mod cholesky;
pub mod dispatch;
pub mod error;
pub mod kernels;
pub mod matrix;
pub mod rng;
#[expect(
    unsafe_code,
    reason = "AVX2/AVX-512 intrinsics: each block states its invariant and the tiles are checked bitwise against the scalar kernels"
)]
pub mod simd;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use dispatch::KernelBackend;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use rng::SeedRng;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
