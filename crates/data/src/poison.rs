//! Deterministic stream-corruption combinator for fault-injection testing.
//!
//! The paper's protocol assumes well-behaved streams; real deployments do
//! not get that luxury — sensors emit NaN, upstream feature extractors
//! overflow, demographic groups disappear mid-stream, a task arrives with a
//! constant column or a single class. [`poison`] turns any clean
//! [`TaskStream`] into a controlled worst case so the containment and
//! degradation layers (DESIGN.md §10) can be exercised end to end:
//! `crates/core/tests/fault_injection.rs` runs every strategy over poisoned
//! streams and asserts the protocol still spends its full budget with
//! finite metrics and byte-identical parallel results.
//!
//! Everything here is deterministic given [`PoisonSpec::seed`] — the same
//! spec applied to the same stream yields the same corrupted stream,
//! bit for bit, which is what makes degraded runs replayable.

use faction_linalg::SeedRng;

use crate::task::{Sample, TaskStream};

/// Makes one sensitive group vanish from part of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VanishGroup {
    /// The group that disappears (its samples are reassigned to the
    /// opposite group, keeping task sizes intact).
    pub sensitive: i8,
    /// First task index (stream position) the vanishing applies to; every
    /// later task is affected too. Use `0` for the whole stream.
    pub from_task: usize,
}

/// What to corrupt, and how hard. The [`Default`] spec is inert: applying
/// it reproduces the input stream exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonSpec {
    /// Seed for every stochastic corruption decision.
    pub seed: u64,
    /// Per-feature-entry probability of replacement with `NaN`.
    pub nan_rate: f64,
    /// Per-feature-entry probability of replacement with `±∞` (sign drawn
    /// uniformly).
    pub inf_rate: f64,
    /// Optionally removes one sensitive group from part of the stream.
    pub vanish_sensitive: Option<VanishGroup>,
    /// Task indices whose features are all collapsed to a single constant
    /// row (zero covariance in every direction).
    pub constant_feature_tasks: Vec<usize>,
    /// Task indices whose labels are all forced to class `0` (no class
    /// diversity for the density estimator or the trainer).
    pub single_class_tasks: Vec<usize>,
}

impl Default for PoisonSpec {
    fn default() -> Self {
        PoisonSpec {
            seed: 0,
            nan_rate: 0.0,
            inf_rate: 0.0,
            vanish_sensitive: None,
            constant_feature_tasks: Vec::new(),
            single_class_tasks: Vec::new(),
        }
    }
}

impl PoisonSpec {
    /// A spec exercising every corruption class at once — the default
    /// worst case used by the fault-injection suite.
    pub fn havoc(seed: u64) -> Self {
        PoisonSpec {
            seed,
            nan_rate: 0.02,
            inf_rate: 0.01,
            vanish_sensitive: Some(VanishGroup { sensitive: -1, from_task: 1 }),
            constant_feature_tasks: vec![0],
            single_class_tasks: vec![1],
        }
    }
}

/// Applies `spec` to a stream, returning the corrupted copy.
///
/// Corruption order per sample: constant-feature collapse, then NaN/Inf
/// entry replacement, then single-class label forcing, then group
/// vanishing — so entry-level poison also lands on collapsed tasks. The
/// RNG is drawn per feature entry in sample order, making the output a
/// pure function of `(stream, spec)`.
pub fn poison(stream: &TaskStream, spec: &PoisonSpec) -> TaskStream {
    let mut rng = SeedRng::new(spec.seed ^ 0x0150_0150_DEAD_BEEF);
    let mut out = stream.clone();
    for (t, task) in out.tasks.iter_mut().enumerate() {
        let collapse = spec.constant_feature_tasks.contains(&t);
        let force_class = spec.single_class_tasks.contains(&t);
        for sample in &mut task.samples {
            poison_sample(sample, spec, collapse, force_class, t, &mut rng);
        }
    }
    out
}

fn poison_sample(
    sample: &mut Sample,
    spec: &PoisonSpec,
    collapse: bool,
    force_class: bool,
    task_index: usize,
    rng: &mut SeedRng,
) {
    if collapse {
        // Same constant everywhere: zero variance in every direction.
        for v in &mut sample.x {
            *v = 1.0;
        }
    }
    for v in &mut sample.x {
        // Two independent draws per entry keep the stream position of
        // later decisions independent of earlier hit/miss outcomes.
        let nan_hit = rng.uniform() < spec.nan_rate;
        let inf_hit = rng.uniform() < spec.inf_rate;
        if nan_hit {
            *v = f64::NAN;
        } else if inf_hit {
            *v = if rng.uniform() < 0.5 { f64::INFINITY } else { f64::NEG_INFINITY };
        }
    }
    if force_class {
        sample.label = 0;
    }
    if let Some(vanish) = spec.vanish_sensitive {
        if task_index >= vanish.from_task && sample.sensitive == vanish.sensitive {
            sample.sensitive = -vanish.sensitive;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{datasets::Dataset, Scale};

    fn stream() -> TaskStream {
        Dataset::Rcmnist.stream_prefix(3, Scale::Quick, Some(3), Some(40))
    }

    fn feature_bits(s: &TaskStream) -> Vec<u64> {
        s.tasks
            .iter()
            .flat_map(|t| t.samples.iter())
            .flat_map(|smp| smp.x.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn default_spec_is_identity() {
        let clean = stream();
        let out = poison(&clean, &PoisonSpec::default());
        assert_eq!(feature_bits(&clean), feature_bits(&out));
        for (a, b) in clean.tasks.iter().zip(&out.tasks) {
            for (sa, sb) in a.samples.iter().zip(&b.samples) {
                assert_eq!(sa.label, sb.label);
                assert_eq!(sa.sensitive, sb.sensitive);
            }
        }
    }

    #[test]
    fn poisoning_is_deterministic() {
        let clean = stream();
        let spec = PoisonSpec::havoc(9);
        let a = poison(&clean, &spec);
        let b = poison(&clean, &spec);
        assert_eq!(feature_bits(&a), feature_bits(&b));
    }

    #[test]
    fn nan_and_inf_rates_inject_poison() {
        let clean = stream();
        let spec = PoisonSpec { seed: 4, nan_rate: 0.1, inf_rate: 0.05, ..Default::default() };
        let out = poison(&clean, &spec);
        let total: usize = out.tasks.iter().map(|t| t.len() * out.input_dim).sum();
        let nans = feature_bits(&out)
            .iter()
            .filter(|&&b| f64::from_bits(b).is_nan())
            .count();
        let infs = feature_bits(&out)
            .iter()
            .filter(|&&b| f64::from_bits(b).is_infinite())
            .count();
        // Loose binomial bounds: both kinds must appear, at roughly the
        // configured rates.
        assert!(nans > total / 20, "{nans} NaN of {total}");
        assert!(infs > total / 100, "{infs} Inf of {total}");
    }

    #[test]
    fn vanish_empties_the_group_from_the_cut_point() {
        let clean = stream();
        let spec = PoisonSpec {
            vanish_sensitive: Some(VanishGroup { sensitive: -1, from_task: 1 }),
            ..Default::default()
        };
        let out = poison(&clean, &spec);
        assert!(out.tasks[0].samples.iter().any(|s| s.sensitive == -1));
        for t in &out.tasks[1..] {
            assert!(t.samples.iter().all(|s| s.sensitive == 1));
            // Task sizes are preserved — vanishing reassigns, not deletes.
            assert_eq!(t.len(), clean.tasks[t.id].len());
        }
    }

    #[test]
    fn constant_and_single_class_tasks_are_degenerate() {
        let clean = stream();
        let spec = PoisonSpec {
            constant_feature_tasks: vec![0],
            single_class_tasks: vec![2],
            ..Default::default()
        };
        let out = poison(&clean, &spec);
        assert!(out.tasks[0]
            .samples
            .iter()
            .all(|s| s.x.iter().all(|&v| v.to_bits() == 1.0f64.to_bits())));
        assert!(out.tasks[2].samples.iter().all(|s| s.label == 0));
        // Untargeted tasks are untouched bit for bit.
        assert_eq!(
            feature_bits(&TaskStream { tasks: vec![clean.tasks[1].clone()], ..clean.clone() }),
            feature_bits(&TaskStream { tasks: vec![out.tasks[1].clone()], ..out.clone() }),
        );
    }
}
