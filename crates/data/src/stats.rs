//! Descriptive statistics over task streams.
//!
//! The paper's dataset section (V-A1) characterizes each benchmark by its
//! environment structure, label–sensitive correlation, and group balance.
//! This module computes those characteristics from any [`TaskStream`], so
//! the simulated benchmarks can be audited against their specs (tests do
//! exactly that) and users can profile their own streams before running
//! experiments.

use std::collections::BTreeMap;

use crate::task::{Task, TaskStream};

/// Per-task descriptive statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStats {
    /// Task position.
    pub task_id: usize,
    /// Environment name.
    pub env_name: String,
    /// Sample count.
    pub samples: usize,
    /// Fraction of positive labels.
    pub positive_rate: f64,
    /// Fraction per sensitive group code.
    pub group_fractions: BTreeMap<i8, f64>,
    /// Label–sensitive alignment (0.5 = independent; see
    /// [`Task::label_sensitive_alignment`]).
    pub alignment: f64,
    /// Mean feature vector (used for shift-magnitude computations).
    pub feature_mean: Vec<f64>,
}

/// Computes statistics for one task.
///
/// # Panics
/// Panics on an empty task (nothing to describe).
pub fn task_stats(task: &Task) -> TaskStats {
    assert!(!task.is_empty(), "task_stats: empty task");
    let n = task.len() as f64;
    let positive_rate = task.samples.iter().filter(|s| s.label == 1).count() as f64 / n;
    let mut group_counts: BTreeMap<i8, usize> = BTreeMap::new();
    for s in &task.samples {
        *group_counts.entry(s.sensitive).or_insert(0) += 1;
    }
    let group_fractions =
        group_counts.into_iter().map(|(g, c)| (g, c as f64 / n)).collect();
    let d = task.samples[0].x.len();
    let mut feature_mean = vec![0.0; d];
    for s in &task.samples {
        faction_linalg::vector::axpy(1.0, &s.x, &mut feature_mean);
    }
    faction_linalg::vector::scale(&mut feature_mean, 1.0 / n);
    TaskStats {
        task_id: task.id,
        env_name: task.env_name.clone(),
        samples: task.len(),
        positive_rate,
        group_fractions,
        alignment: task.label_sensitive_alignment(),
        feature_mean,
    }
}

/// Stream-level profile: per-task stats plus consecutive-task shift
/// magnitudes (Euclidean distance of feature means).
#[derive(Debug, Clone)]
pub struct StreamProfile {
    /// Dataset name.
    pub name: String,
    /// Per-task statistics in stream order.
    pub tasks: Vec<TaskStats>,
    /// `‖mean_t − mean_{t−1}‖` for `t ≥ 1` (length `T − 1`).
    pub mean_shifts: Vec<f64>,
}

impl StreamProfile {
    /// Profiles a whole stream.
    pub fn of(stream: &TaskStream) -> StreamProfile {
        let tasks: Vec<TaskStats> = stream.tasks.iter().map(task_stats).collect();
        let mean_shifts = tasks
            .windows(2)
            .map(|w| {
                faction_linalg::vector::norm2(&faction_linalg::vector::sub(
                    &w[1].feature_mean,
                    &w[0].feature_mean,
                ))
            })
            .collect();
        StreamProfile { name: stream.name.clone(), tasks, mean_shifts }
    }

    /// Renders a fixed-width profile table.
    pub fn render(&self) -> String {
        let mut out = format!("stream profile: {}\n", self.name);
        out.push_str(&format!(
            "{:<6} {:<16} {:>8} {:>8} {:>10} {:>10}\n",
            "task", "environment", "samples", "pos-rate", "alignment", "shift"
        ));
        for (i, t) in self.tasks.iter().enumerate() {
            let shift = if i == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", self.mean_shifts[i - 1])
            };
            out.push_str(&format!(
                "{:<6} {:<16} {:>8} {:>8.3} {:>10.3} {:>10}\n",
                t.task_id, t.env_name, t.samples, t.positive_rate, t.alignment, shift
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::Scale;

    #[test]
    fn rcmnist_profile_matches_spec() {
        let stream = datasets::rcmnist(1, Scale::Full);
        let profile = StreamProfile::of(&stream);
        assert_eq!(profile.tasks.len(), 12);
        // Alignment decays across the bias schedule {0.9, …, 0.6}.
        assert!(profile.tasks[0].alignment > profile.tasks[11].alignment + 0.1);
        // Positive rate near 0.5 everywhere.
        for t in &profile.tasks {
            assert!((t.positive_rate - 0.5).abs() < 0.08, "task {} rate {}", t.task_id, t.positive_rate);
        }
    }

    #[test]
    fn group_fractions_sum_to_one() {
        let stream = datasets::celeba(3, Scale::Quick);
        for t in &stream.tasks {
            let stats = task_stats(t);
            let total: f64 = stats.group_fractions.values().sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn render_contains_all_tasks() {
        let stream = datasets::ffhq(4, Scale::Quick);
        let table = StreamProfile::of(&stream).render();
        assert!(table.contains("FFHQ"));
        assert!(table.contains("happy"));
        assert_eq!(table.lines().count(), 2 + stream.len());
    }

    #[test]
    #[should_panic(expected = "empty task")]
    fn empty_task_panics() {
        let task = Task { id: 0, env: 0, env_name: "e".into(), samples: vec![] };
        task_stats(&task);
    }
}
