//! Core data types: samples, tasks, and task streams.

use faction_linalg::Matrix;

/// One observation in the stream: features, sensitive attribute, label, and
/// the (hidden) environment it was generated in.
///
/// The label is physically present on every sample — this mirrors the
/// paper's protocol, where labels exist but are *invisible* to the learner
/// until queried through the [`crate::Oracle`] (and are used freely for
/// test-time metric computation, Sec. IV-F: "labels available only for
/// calculating test metrics").
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Input feature vector `x ∈ ℝ^d`.
    pub x: Vec<f64>,
    /// Sensitive attribute `s ∈ {−1, +1}`.
    pub sensitive: i8,
    /// Ground-truth class label `y ∈ {0, 1}`.
    pub label: usize,
    /// Environment index this sample was drawn from.
    pub env: usize,
}

/// A task `D_t`: one batch of the sequential stream, drawn from a single
/// environment.
#[derive(Debug, Clone)]
pub struct Task {
    /// Position in the stream, `t ∈ [T]`.
    pub id: usize,
    /// Environment index (several consecutive tasks share an environment).
    pub env: usize,
    /// Human-readable environment name, e.g. `"rot30"` or `"Bronx-Q2"`.
    pub env_name: String,
    /// The task's samples.
    pub samples: Vec<Sample>,
}

impl Task {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the task has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Stacks all feature vectors into an `(n, d)` matrix.
    ///
    /// # Panics
    /// Panics if the task is empty or features are ragged (generator bug).
    #[expect(clippy::expect_used, reason = "documented panic contract (see `# Panics` above)")]
    pub fn features(&self) -> Matrix {
        let rows: Vec<Vec<f64>> = self.samples.iter().map(|s| s.x.clone()).collect();
        Matrix::from_rows(&rows).expect("task features are rectangular and non-empty")
    }

    /// Stacks the feature vectors of a subset of samples, by index.
    #[expect(clippy::expect_used, reason = "same generator invariant as `features` above")]
    pub fn features_of(&self, indices: &[usize]) -> Matrix {
        let rows: Vec<Vec<f64>> = indices.iter().map(|&i| self.samples[i].x.clone()).collect();
        Matrix::from_rows(&rows).expect("subset features are rectangular and non-empty")
    }

    /// Like [`Task::features_of`], but writes into a caller-provided buffer
    /// so the acquisition loop can reuse one candidate matrix across rounds
    /// (the pool only shrinks, so the buffer reaches its high-water size on
    /// round one and never reallocates again).
    pub fn features_of_into(&self, indices: &[usize], out: &mut Matrix) {
        let d = self.samples.first().map_or(0, |s| s.x.len());
        out.reset_to_zeros(indices.len(), d);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(&self.samples[i].x);
        }
    }

    /// Ground-truth labels (test-metric use only; learners must go through
    /// the oracle).
    pub fn labels(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.label).collect()
    }

    /// Sensitive attributes. The paper treats `s` as observable without
    /// querying (it is part of the input, not the label).
    pub fn sensitives(&self) -> Vec<i8> {
        self.samples.iter().map(|s| s.sensitive).collect()
    }

    /// Empirical label–sensitive alignment: fraction of samples where
    /// `s = +1 ⇔ y = 1`. `0.5` means no correlation; the RCMNIST bias
    /// coefficients target exactly this statistic.
    pub fn label_sensitive_alignment(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.5;
        }
        let aligned = self
            .samples
            .iter()
            .filter(|s| (s.sensitive == 1) == (s.label == 1))
            .count();
        aligned as f64 / self.samples.len() as f64
    }
}

/// A full sequential benchmark: an ordered list of tasks plus stream-level
/// metadata.
#[derive(Debug, Clone)]
pub struct TaskStream {
    /// Dataset name, e.g. `"RCMNIST"`.
    pub name: String,
    /// Feature dimensionality `d`.
    pub input_dim: usize,
    /// Number of classes (2 throughout the paper's experiments).
    pub num_classes: usize,
    /// The ordered tasks `{D_t}_{t=1}^T`.
    pub tasks: Vec<Task>,
}

impl TaskStream {
    /// Number of tasks `T`.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the stream has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of distinct environments in the stream.
    pub fn num_environments(&self) -> usize {
        let mut envs: Vec<usize> = self.tasks.iter().map(|t| t.env).collect();
        envs.sort_unstable();
        envs.dedup();
        envs.len()
    }

    /// Total sample count across all tasks.
    pub fn total_samples(&self) -> usize {
        self.tasks.iter().map(Task::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(x: Vec<f64>, s: i8, y: usize) -> Sample {
        Sample { x, sensitive: s, label: y, env: 0 }
    }

    fn toy_task() -> Task {
        Task {
            id: 0,
            env: 0,
            env_name: "e0".into(),
            samples: vec![
                sample(vec![1.0, 2.0], 1, 1),
                sample(vec![3.0, 4.0], -1, 0),
                sample(vec![5.0, 6.0], 1, 0),
            ],
        }
    }

    #[test]
    fn features_matrix_layout() {
        let t = toy_task();
        let f = t.features();
        assert_eq!(f.shape(), (3, 2));
        assert_eq!(f.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn features_of_subset() {
        let t = toy_task();
        let f = t.features_of(&[2, 0]);
        assert_eq!(f.shape(), (2, 2));
        assert_eq!(f.row(0), &[5.0, 6.0]);
    }

    #[test]
    fn features_of_into_reuses_buffer() {
        let t = toy_task();
        let mut buf = Matrix::zeros(0, 0);
        t.features_of_into(&[2, 0], &mut buf);
        assert_eq!(buf, t.features_of(&[2, 0]));
        // Shrinking reuse keeps the results identical to a fresh build.
        t.features_of_into(&[1], &mut buf);
        assert_eq!(buf, t.features_of(&[1]));
    }

    #[test]
    fn labels_and_sensitives() {
        let t = toy_task();
        assert_eq!(t.labels(), vec![1, 0, 0]);
        assert_eq!(t.sensitives(), vec![1, -1, 1]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn alignment_statistic() {
        let t = toy_task();
        // Aligned: (s=1,y=1) yes; (s=-1,y=0) yes; (s=1,y=0) no → 2/3.
        assert!((t.label_sensitive_alignment() - 2.0 / 3.0).abs() < 1e-12);
        let empty = Task { id: 0, env: 0, env_name: String::new(), samples: vec![] };
        assert_eq!(empty.label_sensitive_alignment(), 0.5);
    }

    #[test]
    fn stream_aggregates() {
        let mut t1 = toy_task();
        t1.env = 0;
        let mut t2 = toy_task();
        t2.id = 1;
        t2.env = 1;
        let stream = TaskStream {
            name: "toy".into(),
            input_dim: 2,
            num_classes: 2,
            tasks: vec![t1, t2],
        };
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.num_environments(), 2);
        assert_eq!(stream.total_samples(), 6);
        assert!(!stream.is_empty());
    }
}
