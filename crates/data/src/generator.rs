//! The latent-factor generative model behind every simulated dataset.
//!
//! Generation model for one sample in environment `e`:
//!
//! 1. draw the label `y ~ Bernoulli(base_rate)`;
//! 2. draw the sensitive attribute: with probability `bias(e)` it *aligns*
//!    with the label (`s = +1 ⇔ y = 1`), otherwise it anti-aligns. This is
//!    the paper's "deliberate label–color correlation" knob — `bias = 0.5`
//!    is unbiased, `0.9` highly biased;
//! 3. form the latent vector
//!    `z = y·class_dir·class_sep + s·group_dir·group_sep + ε`,
//!    with `ε ~ N(0, noise_std² I)`. The group direction is a *spurious
//!    channel*: features genuinely carry the sensitive attribute, which is
//!    what makes the (class, sensitive) density components separable and
//!    gives fairness-aware selection something to detect;
//! 4. apply the environment's affine map: `x = T_e z + m_e`. Rotations
//!    realize RCMNIST's angle environments; mean shifts realize attribute
//!    combinations (CelebA/FFHQ), geography (NYSF), and race clusters
//!    (FairFace);
//! 5. with probability `label_noise`, flip the *observed* label — the
//!    irreducible (aleatoric) part of the task.

use faction_linalg::{Matrix, SeedRng};

use crate::task::{Sample, Task, TaskStream};
use crate::Scale;

/// Per-environment generation parameters.
#[derive(Debug, Clone)]
pub struct EnvironmentSpec {
    /// Environment name, used to label tasks (e.g. `"rot30"`).
    pub name: String,
    /// Affine transform `T_e` applied to latent vectors (must be `d × d`).
    pub transform: Matrix,
    /// Mean shift `m_e` added after the transform (length `d`).
    pub mean_shift: Vec<f64>,
    /// Probability the sensitive attribute aligns with the label
    /// (`0.5` = independent, `0.9` = strongly biased).
    pub bias: f64,
    /// Fraction of labels flipped after generation (aleatoric noise).
    pub label_noise: f64,
    /// Marginal probability of `y = 1` before alignment.
    pub base_rate: f64,
    /// Samples generated per task in this environment (at `Scale::Full`).
    pub samples_per_task: usize,
    /// Number of consecutive tasks drawn from this environment.
    pub tasks: usize,
}

impl EnvironmentSpec {
    /// A neutral environment: identity transform, no shift, balanced labels.
    pub fn neutral(name: impl Into<String>, dim: usize, samples_per_task: usize, tasks: usize) -> Self {
        EnvironmentSpec {
            name: name.into(),
            transform: Matrix::identity(dim),
            mean_shift: vec![0.0; dim],
            bias: 0.5,
            label_noise: 0.05,
            base_rate: 0.5,
            samples_per_task,
            tasks,
        }
    }
}

/// Stream-level generation parameters shared by all environments.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Dataset name.
    pub name: String,
    /// Feature dimensionality `d`.
    pub input_dim: usize,
    /// Distance between class means along the class direction.
    pub class_separation: f64,
    /// Distance between group means along the (orthogonal) group direction.
    pub group_separation: f64,
    /// Isotropic latent noise standard deviation.
    pub noise_std: f64,
    /// Ordered environments; the stream visits them in sequence.
    pub environments: Vec<EnvironmentSpec>,
}

impl StreamSpec {
    /// Generates the full task stream deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if an environment's transform/mean shift disagrees with
    /// `input_dim` (a spec-construction bug).
    pub fn generate(&self, seed: u64, scale: Scale) -> TaskStream {
        self.generate_prefix(seed, scale, None, None)
    }

    /// Generates only the first `tasks` tasks of the stream, each holding
    /// only its first `samples` samples (`None` bounds nothing).
    ///
    /// The result is bit-identical to generating the full stream and
    /// truncating it: every task's RNG is forked from the stream RNG before
    /// any of its samples are drawn, and a task's samples are drawn in
    /// sequence, so neither a later task nor a later sample can change an
    /// earlier one. Environments past the task bound are never visited.
    ///
    /// # Panics
    /// Panics if a visited environment's transform/mean shift disagrees
    /// with `input_dim` (a spec-construction bug).
    pub fn generate_prefix(
        &self,
        seed: u64,
        scale: Scale,
        tasks: Option<usize>,
        samples: Option<usize>,
    ) -> TaskStream {
        let d = self.input_dim;
        let max_tasks = tasks.unwrap_or(usize::MAX);
        let max_samples = samples.unwrap_or(usize::MAX);
        let mut rng = SeedRng::new(seed);
        // Class and group directions: fixed unit vectors. Axis 0 carries the
        // class signal, axis 1 the group signal; environment transforms mix
        // them into all coordinates.
        let mut class_dir = vec![0.0; d];
        class_dir[0] = 1.0;
        let mut group_dir = vec![0.0; d];
        group_dir[1.min(d - 1)] = 1.0;

        let mut tasks = Vec::new();
        for (env_idx, env) in self.environments.iter().enumerate() {
            if tasks.len() == max_tasks {
                break;
            }
            assert_eq!(env.transform.shape(), (d, d), "environment transform shape");
            assert_eq!(env.mean_shift.len(), d, "environment mean shift length");
            let n = scale.samples(env.samples_per_task).min(max_samples);
            for _ in 0..env.tasks.min(max_tasks - tasks.len()) {
                let task_id = tasks.len();
                let mut task_rng = rng.fork(task_id as u64);
                // One latent buffer per task: a sample allocates only its `x`.
                let mut z = vec![0.0; d];
                let samples = (0..n)
                    .map(|_| {
                        self.generate_sample(
                            &mut task_rng,
                            env,
                            env_idx,
                            &class_dir,
                            &group_dir,
                            &mut z,
                        )
                    })
                    .collect();
                tasks.push(Task {
                    id: task_id,
                    env: env_idx,
                    env_name: env.name.clone(),
                    samples,
                });
            }
        }
        TaskStream {
            name: self.name.clone(),
            input_dim: d,
            num_classes: 2,
            tasks,
        }
    }

    /// Draws one sample, using `z` (length `d`) as its latent buffer.
    fn generate_sample(
        &self,
        rng: &mut SeedRng,
        env: &EnvironmentSpec,
        env_idx: usize,
        class_dir: &[f64],
        group_dir: &[f64],
        z: &mut [f64],
    ) -> Sample {
        // 1. True label.
        let y_true = usize::from(rng.bernoulli(env.base_rate));
        // 2. Sensitive attribute, aligned with the label with prob `bias`.
        let aligned = rng.bernoulli(env.bias);
        let sensitive: i8 = match (y_true == 1, aligned) {
            (true, true) | (false, false) => 1,
            _ => -1,
        };
        // 3. Latent vector.
        let y_sign = if y_true == 1 { 0.5 } else { -0.5 };
        let s_sign = 0.5 * f64::from(sensitive);
        for zi in z.iter_mut() {
            *zi = rng.standard_normal();
        }
        faction_linalg::vector::scale(z, self.noise_std);
        faction_linalg::vector::axpy(y_sign * self.class_separation, class_dir, z);
        faction_linalg::vector::axpy(s_sign * self.group_separation, group_dir, z);
        // 4. Environment affine map.
        let mut x = vec![0.0; z.len()];
        #[expect(clippy::expect_used, reason = "`transform` is built d×d for this generator's d")]
        env.transform.matvec_into(z, &mut x).expect("transform shape checked");
        faction_linalg::vector::axpy(1.0, &env.mean_shift, &mut x);
        // 5. Aleatoric label noise.
        let label = if rng.bernoulli(env.label_noise) { 1 - y_true } else { y_true };
        Sample { x, sensitive, label, env: env_idx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec(bias: f64) -> StreamSpec {
        let dim = 6;
        StreamSpec {
            name: "toy".into(),
            input_dim: dim,
            class_separation: 4.0,
            group_separation: 2.0,
            noise_std: 0.5,
            environments: vec![
                EnvironmentSpec { bias, ..EnvironmentSpec::neutral("e0", dim, 300, 2) },
                EnvironmentSpec {
                    bias,
                    mean_shift: vec![3.0; dim],
                    ..EnvironmentSpec::neutral("e1", dim, 300, 2)
                },
            ],
        }
    }

    #[test]
    fn stream_shape_matches_spec() {
        let stream = toy_spec(0.5).generate(1, Scale::Full);
        assert_eq!(stream.len(), 4);
        assert_eq!(stream.num_environments(), 2);
        assert_eq!(stream.input_dim, 6);
        assert!(stream.tasks.iter().all(|t| t.len() == 300));
        assert_eq!(stream.tasks[0].env_name, "e0");
        assert_eq!(stream.tasks[3].env_name, "e1");
        // Task ids are sequential.
        for (i, t) in stream.tasks.iter().enumerate() {
            assert_eq!(t.id, i);
        }
    }

    #[test]
    fn determinism() {
        let a = toy_spec(0.7).generate(42, Scale::Quick);
        let b = toy_spec(0.7).generate(42, Scale::Quick);
        for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(ta.samples, tb.samples);
        }
        let c = toy_spec(0.7).generate(43, Scale::Quick);
        assert_ne!(a.tasks[0].samples, c.tasks[0].samples);
    }

    #[test]
    fn bias_controls_alignment() {
        let biased = toy_spec(0.9).generate(7, Scale::Full);
        let unbiased = toy_spec(0.5).generate(7, Scale::Full);
        let align_biased = biased.tasks[0].label_sensitive_alignment();
        let align_unbiased = unbiased.tasks[0].label_sensitive_alignment();
        // Label noise (5%) slightly decouples the observed label, so the
        // alignment target is bias*(1-noise) + (1-bias)*noise ≈ 0.86.
        assert!(align_biased > 0.8, "biased alignment {align_biased}");
        assert!((align_unbiased - 0.5).abs() < 0.08, "unbiased alignment {align_unbiased}");
    }

    #[test]
    fn environment_shift_moves_features() {
        let stream = toy_spec(0.5).generate(3, Scale::Full);
        let mean_of = |task: &crate::task::Task| {
            let f = task.features();
            f.as_slice().iter().sum::<f64>() / f.as_slice().len() as f64
        };
        let m0 = mean_of(&stream.tasks[0]);
        let m3 = mean_of(&stream.tasks[3]);
        assert!((m3 - m0) > 2.0, "env shift must move the mean: {m0} vs {m3}");
    }

    #[test]
    fn classes_are_separable_in_latent_space() {
        let stream = toy_spec(0.5).generate(5, Scale::Full);
        let task = &stream.tasks[0];
        // Mean of axis 0 (class direction) per class should differ by
        // roughly class_separation.
        let mut sums = [0.0f64; 2];
        let mut counts = [0usize; 2];
        for s in &task.samples {
            sums[s.label] += s.x[0];
            counts[s.label] += 1;
        }
        let gap = sums[1] / counts[1] as f64 - sums[0] / counts[0] as f64;
        // 5% label flips shrink the observed gap slightly below 4.0.
        assert!(gap > 2.5, "class gap {gap}");
    }

    #[test]
    fn groups_are_separated_in_latent_space() {
        let stream = toy_spec(0.5).generate(9, Scale::Full);
        let task = &stream.tasks[0];
        let mut sums = [0.0f64; 2];
        let mut counts = [0usize; 2];
        for s in &task.samples {
            let gi = usize::from(s.sensitive > 0);
            sums[gi] += s.x[1];
            counts[gi] += 1;
        }
        let gap = sums[1] / counts[1] as f64 - sums[0] / counts[0] as f64;
        assert!(gap > 1.0, "group gap {gap}");
    }

    #[test]
    fn label_noise_bounds_accuracy_ceiling() {
        let dim = 4;
        let spec = StreamSpec {
            name: "noisy".into(),
            input_dim: dim,
            class_separation: 10.0,
            group_separation: 0.0,
            noise_std: 0.01,
            environments: vec![EnvironmentSpec {
                label_noise: 0.25,
                ..EnvironmentSpec::neutral("e", dim, 2000, 1)
            }],
        };
        let stream = spec.generate(11, Scale::Full);
        // With huge separation the latent class is recoverable from sign of
        // x[0]; the observed label should disagree ~25% of the time.
        let task = &stream.tasks[0];
        let disagree = task
            .samples
            .iter()
            .filter(|s| (s.x[0] > 0.0) != (s.label == 1))
            .count() as f64
            / task.len() as f64;
        assert!((disagree - 0.25).abs() < 0.04, "disagree {disagree}");
    }
}
