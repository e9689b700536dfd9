//! Ambient per-thread recorder scope and the free-function recording API.
//!
//! Deeply nested hot paths (a GDA fit inside a strategy inside the runner
//! inside an engine worker) would otherwise need a recorder handle threaded
//! through every signature. Instead the executor installs its handle for
//! the duration of each job body ([`crate::Handle::enter`]) and leaf code
//! calls [`counter_add`] / [`observe`] / [`span`]; with no scope installed
//! (or a no-op recorder) each call is one thread-local read.
//!
//! Scopes nest as a stack — the innermost handle wins — and the guard pops
//! on drop, so a panicking job cannot leak its recorder into the worker's
//! next job.

use std::cell::RefCell;
use std::time::Duration;

use crate::clock::Clock;
use crate::recorder::Handle;

thread_local! {
    static CURRENT: RefCell<Vec<Handle>> = const { RefCell::new(Vec::new()) };
}

/// Pushes `handle` onto the current thread's scope stack; popped when the
/// returned guard drops. Called via [`Handle::enter`].
pub(crate) fn enter(handle: Handle) -> ScopeGuard {
    CURRENT.with(|stack| {
        if let Ok(mut stack) = stack.try_borrow_mut() {
            stack.push(handle);
        }
    });
    ScopeGuard { _not_send: std::marker::PhantomData }
}

/// RAII guard for one installed recorder scope (see [`Handle::enter`]).
#[must_use = "the recorder scope ends when this guard drops"]
pub struct ScopeGuard {
    // !Send: the guard must drop on the thread that pushed the scope.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            if let Ok(mut stack) = stack.try_borrow_mut() {
                stack.pop();
            }
        });
    }
}

fn with_current(f: impl FnOnce(&Handle)) {
    CURRENT.with(|stack| {
        if let Ok(stack) = stack.try_borrow() {
            if let Some(handle) = stack.last() {
                f(handle);
            }
        }
    });
}

/// Whether the current thread has an enabled recorder installed.
pub fn recording() -> bool {
    let mut enabled = false;
    with_current(|h| enabled = h.enabled());
    enabled
}

/// Adds to a counter on the current scope's recorder (no-op without one).
pub fn counter_add(key: &str, delta: u64) {
    with_current(|h| h.counter_add(key, delta));
}

/// Sets a gauge on the current scope's recorder (no-op without one).
pub fn gauge_set(key: &str, value: u64) {
    with_current(|h| h.gauge_set(key, value));
}

/// Records a histogram observation on the current scope's recorder.
pub fn observe(key: &str, value: u64) {
    with_current(|h| h.observe(key, value));
}

/// Records a duration into a `_ns` histogram (saturating above `u64::MAX`
/// nanoseconds, i.e. after ~584 years).
pub fn observe_duration(key: &str, elapsed: Duration) {
    observe(key, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
}

/// Starts an RAII span timer: on drop it records the elapsed nanoseconds
/// into the `key` histogram.
///
/// The clock is read **only when an enabled recorder is in scope** — with
/// the no-op recorder a span performs zero wall-clock reads, which is what
/// keeps instrumented hot paths out of the analyzer's wall-clock rules and
/// the recording cost small (perfbench's `telemetry.overhead_pct`).
pub fn span(key: &'static str) -> SpanTimer {
    let start = if recording() { Some(Clock::start()) } else { None };
    SpanTimer { key, start }
}

/// Timer returned by [`span`]; records on drop.
#[must_use = "a span records when this timer drops"]
pub struct SpanTimer {
    key: &'static str,
    start: Option<Clock>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(clock) = &self.start {
            observe_duration(self.key, clock.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::sync::Arc;

    #[test]
    fn free_functions_route_to_the_installed_scope() {
        let registry = Arc::new(Registry::new());
        assert!(!recording());
        counter_add("t.orphan", 1); // no scope: dropped silently
        {
            let handle = Handle::from(registry.clone());
            let _guard = handle.enter();
            assert!(recording());
            counter_add("t.scoped", 2);
            observe("t.obs", 5);
            gauge_set("t.gauge", 3);
            {
                let _span = span("t.span_ns");
            }
        }
        assert!(!recording());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("t.scoped"), Some(2));
        assert_eq!(snap.counter("t.orphan"), None);
        assert_eq!(snap.gauge("t.gauge"), Some((3, 3)));
        assert_eq!(snap.histogram("t.obs").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("t.span_ns").map(|h| h.count), Some(1));
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let ho = Handle::from(outer.clone());
        let hi = Handle::from(inner.clone());
        let _go = ho.enter();
        {
            let _gi = hi.enter();
            counter_add("t.nested", 1);
        }
        counter_add("t.outer", 1);
        assert_eq!(inner.snapshot().counter("t.nested"), Some(1));
        assert_eq!(outer.snapshot().counter("t.nested"), None);
        assert_eq!(outer.snapshot().counter("t.outer"), Some(1));
    }

    #[test]
    fn spans_skip_the_clock_without_a_recorder() {
        let timer = span("t.idle_ns");
        assert!(timer.start.is_none(), "no recorder in scope: the clock must not be read");
        drop(timer);
    }
}
