//! Retired `banned-nondeterminism`: wall-clock reads and seedless hashers
//! are `clippy::disallowed_methods` and `clippy::disallowed_types` in the
//! root `clippy.toml`. (`thread_rng` needs no entry: the workspace has no
//! `rand` crate.)

use std::hash::{DefaultHasher, RandomState}; //~ clippy::disallowed_types
use std::time::{Instant, SystemTime};

/// Reads the wall clock twice.
pub fn wall_clock() -> f64 {
    let t0 = Instant::now(); //~ clippy::disallowed_methods
    let _epoch = SystemTime::now(); //~ clippy::disallowed_methods
    t0.elapsed().as_secs_f64()
}

/// Builds the per-process-seeded and the unspecified hashers.
pub fn seedless_hashers() {
    let _state = RandomState::new(); //~ clippy::disallowed_methods //~ clippy::disallowed_types
    let _hasher = DefaultHasher::new(); //~ clippy::disallowed_methods //~ clippy::disallowed_types
    let _state = RandomState::default(); //~ clippy::disallowed_types
    let _hasher = DefaultHasher::default(); //~ clippy::disallowed_types
}

/// Mentions in comments and strings are not calls.
pub fn mentions_in_comments_and_strings_are_fine() -> &'static str {
    // thread_rng and Instant::now in a comment must not fire.
    "thread_rng SystemTime::now RandomState::new"
}
