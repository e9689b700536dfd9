//! faction-telemetry: zero-dependency observability with an inertness
//! contract.
//!
//! The workspace's headline guarantee (PR 2/3) is that run results are pure
//! functions of `(dataset, strategy, seed, config)` — byte-identical at any
//! worker count. Instrumentation must therefore be **provably inert**: it
//! may observe the computation but never perturb it. This crate enforces
//! that structurally:
//!
//! * Hot paths talk to a [`Recorder`] trait whose default implementation
//!   ([`NoopRecorder`]) does nothing; a recorder carries no RNG and its
//!   state is never read back on the result path.
//! * Wall-clock access is confined to this crate ([`Clock`] / [`span`]);
//!   `clippy::disallowed_methods` rejects `Instant::now()` everywhere else.
//! * The thread-safe [`Registry`] shards writes per thread and merges
//!   shards by sorted key at snapshot time, so a [`Snapshot`] renders
//!   byte-stably regardless of scheduling.
//!
//! Metric names follow `crate.component.metric` (e.g.
//! `engine.pool.requeues`, `core.runner.train_ns`); histogram keys carrying
//! nanosecond timings end in `_ns`, which is what
//! [`Snapshot::canonicalized`] keys on when zeroing wall-clock-dependent
//! fields for cross-run comparison.
//!
//! The proof that all of this changes nothing lives in
//! `tests/inertness.rs`: canonicalized engine grids are byte-identical with
//! recording on vs. off, at one worker and at eight.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

mod clock;
mod metrics;
mod recorder;
mod registry;
mod scope;

pub use clock::Clock;
pub use metrics::{bucket_index, bucket_lower_bound, Histogram, MetricValue, BUCKETS};
pub use recorder::{Handle, NoopRecorder, Recorder};
pub use registry::{Registry, Snapshot};
pub use scope::{
    counter_add, gauge_set, observe, observe_duration, recording, span, ScopeGuard, SpanTimer,
};

/// The checked-in telemetry key registry (`crates/telemetry/keys.txt`),
/// embedded so the sanctioned key set ships with the library.
///
/// Format: one key per line, `#` starts a comment, a trailing `*` marks a
/// prefix wildcard for dynamically-formatted key families. The
/// `tests/key_registry.rs` suite holds every literal key at a recording or
/// snapshot call site to this list, so a typo'd key (`engine.pool.park_wait`
/// vs `….park_waits`) fails `scripts/check.sh` instead of silently splitting a
/// metric in two.
pub const KEY_REGISTRY: &str = include_str!("../keys.txt");

#[cfg(test)]
mod key_registry_tests {
    use super::KEY_REGISTRY;

    /// Parses an entry line to its key, dropping comments and blanks.
    fn entries() -> Vec<&'static str> {
        KEY_REGISTRY
            .lines()
            .filter_map(|l| {
                let e = l.split('#').next().unwrap_or("").trim();
                (!e.is_empty()).then_some(e)
            })
            .collect()
    }

    #[test]
    fn registry_is_nonempty_sectioned_and_well_formed() {
        let entries = entries();
        assert!(entries.len() >= 40, "registry lists the workspace's keys, got {}", entries.len());
        for e in &entries {
            let bare = e.strip_suffix('*').unwrap_or(e);
            assert!(
                bare.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "key `{e}` violates the crate.component.metric naming scheme"
            );
            assert!(bare.contains('.'), "key `{e}` must be namespaced");
        }
    }

    #[test]
    fn registry_has_no_duplicate_entries() {
        let entries = entries();
        let unique: std::collections::BTreeSet<_> = entries.iter().collect();
        assert_eq!(unique.len(), entries.len(), "duplicate registry entries");
    }

    #[test]
    fn core_pool_keys_are_registered() {
        // Spot-check the keys the chaos sanitizer and inertness suite read.
        let entries = entries();
        for key in ["engine.pool.park_waits", "engine.pool.chaos_forced_requeues", "core.runner.rounds"]
        {
            assert!(entries.contains(&key), "`{key}` missing from keys.txt");
        }
    }
}
