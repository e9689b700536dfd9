//! Streaming task generators simulating the five FACTION evaluation
//! datasets (paper Sec. V-A1).
//!
//! The raw corpora (Rotated-Colored-MNIST, CelebA, FairFace, FFHQ-Features,
//! NY Stop-and-Frisk) are not redistributable / not available offline, and
//! the paper's method never touches pixels directly — it operates on learned
//! feature representations. Per the substitution rule in `DESIGN.md` §3,
//! each dataset is therefore simulated as a **latent-factor task stream**
//! that preserves exactly the structure the algorithms interact with:
//!
//! * sequential tasks grouped into *environments* with distribution shift
//!   between environments (rotations, attribute-combination mean shifts,
//!   per-race geometry, area × quarter drift);
//! * a binary label and a binary sensitive attribute with a controlled
//!   *label–sensitive correlation* (e.g. RCMNIST's color–label coefficients
//!   `{0.9, 0.8, 0.7, 0.6}`);
//! * class overlap (aleatoric noise) and group imbalance;
//! * task counts matching the paper: 12 / 12 / 21 / 12 / 16.
//!
//! All generators are deterministic given a seed, and a stream's prefix can
//! be generated on its own, bit-identical to the same prefix of the full
//! stream ([`datasets::Dataset::stream_prefix`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

pub mod datasets;
pub mod multigroup;
pub mod generator;
pub mod oracle;
pub mod poison;
pub mod stats;
pub mod task;

pub use generator::{EnvironmentSpec, StreamSpec};
pub use oracle::Oracle;
pub use poison::{poison, PoisonSpec, VanishGroup};
pub use task::{Sample, Task, TaskStream};

/// How much data to generate: `Full` approximates the paper's task sizes,
/// `Quick` is sized for unit tests and `--quick` harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Paper-scale tasks (hundreds to ~a thousand samples per task).
    #[default]
    Full,
    /// Small tasks for tests and smoke runs.
    Quick,
}

impl Scale {
    /// Scales a full-size per-task sample count down for quick runs.
    pub fn samples(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 6).max(60),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_but_keeps_floor() {
        assert_eq!(Scale::Full.samples(900), 900);
        assert_eq!(Scale::Quick.samples(900), 150);
        assert_eq!(Scale::Quick.samples(100), 60);
    }
}
