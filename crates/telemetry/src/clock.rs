//! The workspace's sanctioned monotonic clock.
//!
//! This module is the **only** place any crate may read wall-clock time:
//! `clippy::disallowed_methods` (the root `clippy.toml`) rejects
//! `Instant::now()` / `SystemTime::now()` everywhere else, so all timing —
//! journal timestamps, runner phase seconds, span durations — funnels
//! through here. Confining the reads makes the inertness audit local: to
//! check that time never feeds algorithmic decisions you inspect this
//! crate's call sites, not the whole workspace.

use std::time::{Duration, Instant};

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// Reads the monotonic clock and starts a timer.
    ///
    /// Wall-clock here is measurement output only (durations for records,
    /// histograms, and journals); it must never feed control flow.
    #[expect(clippy::disallowed_methods, reason = "the one sanctioned wall-clock read")]
    pub fn start() -> Clock {
        Clock { start: Instant::now() }
    }

    /// Elapsed time since [`Clock::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed whole milliseconds (saturating).
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Elapsed nanoseconds (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed seconds as `f64`.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let clock = Clock::start();
        let a = clock.elapsed_ns();
        let b = clock.elapsed_ns();
        assert!(b >= a);
        assert!(clock.elapsed_seconds() >= 0.0);
        assert!(clock.elapsed_ms() <= clock.elapsed().as_millis() as u64 + 1);
    }
}
