//! Hazards of the six analyzer rules that rustc and clippy now enforce,
//! one module per retired rule. Every line a lint must reject ends in a
//! marker comment naming that lint; `tests/golden.rs` runs clippy over
//! this crate and compares the (line, lint) set with the markers. The
//! crate root carries the library crates' lint line verbatim.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

pub mod banned_nondeterminism;
pub mod crate_hygiene;
pub mod float_eq;
pub mod lossy_cast;
pub mod nondeterministic_iteration;
pub mod unwrap_in_lib;
pub mod waivers;
