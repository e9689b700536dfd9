//! The [`Recorder`] trait — the only interface hot-path code may touch —
//! plus the no-op default and the cloneable [`Handle`] the rest of the
//! workspace passes around.

use std::sync::Arc;

use crate::registry::Snapshot;
use crate::scope::ScopeGuard;

/// Write-only sink for telemetry events.
///
/// Every method has a do-nothing default so implementors opt into exactly
/// what they store. The trait is deliberately write-only from the caller's
/// perspective: [`Recorder::snapshot`] exists for report generation at the
/// *end* of a run. [`Handle::snapshot`] asserts, in debug builds, that no
/// recording scope is entered on the calling thread: job bodies and serve
/// operations run inside one, so a shard merge there panics in the test
/// suites instead of serializing workers, and recorded state cannot leak
/// back into algorithmic decisions.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&self, key: &str, delta: u64) {
        let _ = (key, delta);
    }

    /// Sets the named gauge (the registry also tracks its high-water mark).
    fn gauge_set(&self, key: &str, value: u64) {
        let _ = (key, value);
    }

    /// Records one observation into the named histogram.
    fn observe(&self, key: &str, value: u64) {
        let _ = (key, value);
    }

    /// Whether events are actually stored. Span timers skip their clock
    /// reads entirely when this is `false`, so a no-op recorder costs one
    /// thread-local load per span and nothing else.
    fn enabled(&self) -> bool {
        false
    }

    /// Merged view of everything recorded so far (`None` for sinks that
    /// store nothing). Report-time only — never call this on a hot path.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }
}

/// The do-nothing recorder: every event is discarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Cheaply cloneable, shareable handle to a recorder.
///
/// This is the type configuration structs embed (e.g. the engine's
/// `EngineConfig`): `Default` is the no-op recorder, so instrumented code
/// paths cost nothing unless a caller explicitly installs a
/// [`crate::Registry`].
#[derive(Clone)]
pub struct Handle {
    inner: Arc<dyn Recorder>,
}

impl Handle {
    /// A handle to the shared no-op recorder.
    pub fn noop() -> Handle {
        Handle { inner: Arc::new(NoopRecorder) }
    }

    /// Wraps an arbitrary recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Handle {
        Handle { inner: recorder }
    }

    /// Whether the underlying recorder stores events.
    pub fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    /// See [`Recorder::counter_add`].
    pub fn counter_add(&self, key: &str, delta: u64) {
        self.inner.counter_add(key, delta);
    }

    /// See [`Recorder::gauge_set`].
    pub fn gauge_set(&self, key: &str, value: u64) {
        self.inner.gauge_set(key, value);
    }

    /// See [`Recorder::observe`].
    pub fn observe(&self, key: &str, value: u64) {
        self.inner.observe(key, value);
    }

    /// See [`Recorder::snapshot`]. Report-time only: a snapshot merges
    /// every registry shard under its locks, so taking one while a
    /// recording scope is entered (inside a job body or a serve operation)
    /// is a debug-build panic.
    pub fn snapshot(&self) -> Option<Snapshot> {
        debug_assert!(
            !crate::scope::recording(),
            "Handle::snapshot inside a recording scope: take snapshots at report time, \
             outside job bodies and serve operations"
        );
        self.inner.snapshot()
    }

    /// Installs this recorder as the current thread's ambient sink for the
    /// guard's lifetime; the free functions in `crate::scope` route to it.
    pub fn enter(&self) -> ScopeGuard {
        crate::scope::enter(self.clone())
    }
}

impl Default for Handle {
    fn default() -> Self {
        Handle::noop()
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").field("enabled", &self.enabled()).finish()
    }
}

impl From<Arc<crate::Registry>> for Handle {
    fn from(registry: Arc<crate::Registry>) -> Handle {
        Handle { inner: registry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_discards_everything() {
        let h = Handle::default();
        assert!(!h.enabled());
        h.counter_add("a.b.c", 3);
        h.gauge_set("a.b.g", 9);
        h.observe("a.b.h", 1);
        assert!(h.snapshot().is_none());
        assert_eq!(format!("{h:?}"), "Handle { enabled: false }");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Handle::snapshot inside a recording scope")]
    fn snapshot_inside_a_recording_scope_panics() {
        let h = Handle::from(Arc::new(crate::Registry::new()));
        let _scope = h.enter();
        let _ = h.snapshot();
    }
}
