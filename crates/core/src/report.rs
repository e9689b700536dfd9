//! Multi-seed aggregation and table rendering for the benchmark harnesses.
//!
//! The paper repeats every experiment five times and reports mean ± standard
//! deviation (Sec. V-A3); this module turns a set of [`RunRecord`]s into the
//! per-task curves of Fig. 2/4/6 and the per-method summaries of Table I.

use serde::{Deserialize, Serialize};

use crate::runner::{RunRecord, TaskRecord};

/// Mean ± standard deviation of one metric at one task position.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, Default)]
pub struct MeanStd {
    /// Mean across seeds.
    pub mean: f64,
    /// Population standard deviation across seeds.
    pub std: f64,
}

impl MeanStd {
    /// Computes mean and population standard deviation of the values.
    pub fn of(values: &[f64]) -> MeanStd {
        if values.is_empty() {
            return MeanStd::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        MeanStd { mean, std: var.sqrt() }
    }
}

/// Per-task aggregate across seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskAggregate {
    /// Task position `t`.
    pub task_id: usize,
    /// Environment name.
    pub env_name: String,
    /// Accuracy mean ± std.
    pub accuracy: MeanStd,
    /// DDP mean ± std.
    pub ddp: MeanStd,
    /// EOD mean ± std.
    pub eod: MeanStd,
    /// MI mean ± std.
    pub mi: MeanStd,
}

/// A strategy's aggregated curve over one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregatedRun {
    /// Strategy display name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Number of seeds aggregated.
    pub seeds: usize,
    /// Per-task aggregates in stream order.
    pub tasks: Vec<TaskAggregate>,
    /// Mean total runtime in seconds across seeds.
    pub mean_total_seconds: f64,
}

impl AggregatedRun {
    /// Aggregates runs of the *same strategy on the same dataset* across
    /// seeds.
    ///
    /// # Panics
    /// Panics if `runs` is empty or mixes strategies/datasets/task counts.
    pub fn from_runs(runs: &[RunRecord]) -> AggregatedRun {
        #[expect(clippy::expect_used, reason = "documented panic contract (see `# Panics` above)")]
        let first = runs.first().expect("at least one run to aggregate");
        let t = first.records.len();
        for r in runs {
            assert_eq!(r.strategy, first.strategy, "mixed strategies");
            assert_eq!(r.dataset, first.dataset, "mixed datasets");
            assert_eq!(r.records.len(), t, "mixed task counts");
        }
        let collect = |f: &dyn Fn(&TaskRecord) -> f64, task: usize| -> Vec<f64> {
            runs.iter().map(|r| f(&r.records[task])).collect()
        };
        let tasks = (0..t)
            .map(|task| TaskAggregate {
                task_id: first.records[task].task_id,
                env_name: first.records[task].env_name.clone(),
                accuracy: MeanStd::of(&collect(&|r| r.accuracy, task)),
                ddp: MeanStd::of(&collect(&|r| r.ddp, task)),
                eod: MeanStd::of(&collect(&|r| r.eod, task)),
                mi: MeanStd::of(&collect(&|r| r.mi, task)),
            })
            .collect();
        AggregatedRun {
            strategy: first.strategy.clone(),
            dataset: first.dataset.clone(),
            seeds: runs.len(),
            tasks,
            mean_total_seconds: runs.iter().map(|r| r.total_seconds).sum::<f64>()
                / runs.len() as f64,
        }
    }

    /// Mean of the per-task means of a metric (the Table I row format).
    pub fn overall(&self, metric: impl Fn(&TaskAggregate) -> f64) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(&metric).sum::<f64>() / self.tasks.len() as f64
    }
}

/// Renders a fixed-width comparison table in the shape of Table I:
/// one row per aggregated run with runtime and the four metrics.
pub fn render_summary_table(rows: &[AggregatedRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<40} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
        "Model", "Runtime(s)", "Acc", "DDP", "EOD", "MI"
    ));
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<40} {:>10.1} {:>8.4} {:>8.4} {:>8.4} {:>8.4}\n",
            row.strategy,
            row.mean_total_seconds,
            row.overall(|t| t.accuracy.mean),
            row.overall(|t| t.ddp.mean),
            row.overall(|t| t.eod.mean),
            row.overall(|t| t.mi.mean),
        ));
    }
    out
}

/// Renders one metric's per-task curve for several strategies (the Fig. 2 /
/// Fig. 4 series), one line per strategy: `name: v1 v2 v3 …` with ±std.
pub fn render_curves(
    rows: &[AggregatedRun],
    metric_name: &str,
    metric: impl Fn(&TaskAggregate) -> MeanStd,
) -> String {
    let mut out = format!("metric: {metric_name}\n");
    for row in rows {
        out.push_str(&format!("{:<40}", row.strategy));
        for t in &row.tasks {
            let m = metric(t);
            out.push_str(&format!(" {:.3}±{:.3}", m.mean, m.std));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(strategy: &str, seed: u64, accs: &[f64]) -> RunRecord {
        RunRecord {
            strategy: strategy.into(),
            dataset: "D".into(),
            seed,
            records: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| TaskRecord {
                    task_id: i,
                    env_name: format!("e{i}"),
                    accuracy: a,
                    ddp: a / 2.0,
                    eod: a / 4.0,
                    mi: a / 8.0,
                    calibration_gap: a / 16.0,
                    queries: 10,
                    seconds: 1.0,
                    selection_seconds: 0.4,
                    training_seconds: 0.5,
                })
                .collect(),
            total_seconds: 2.0,
            kernel_backend: String::new(),
        }
    }

    #[test]
    fn mean_std_known_values() {
        let ms = MeanStd::of(&[1.0, 3.0]);
        assert!((ms.mean - 2.0).abs() < 1e-12);
        assert!((ms.std - 1.0).abs() < 1e-12);
        let empty = MeanStd::of(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn aggregation_across_seeds() {
        let runs = vec![record("X", 0, &[0.5, 0.7]), record("X", 1, &[0.7, 0.9])];
        let agg = AggregatedRun::from_runs(&runs);
        assert_eq!(agg.seeds, 2);
        assert_eq!(agg.tasks.len(), 2);
        assert!((agg.tasks[0].accuracy.mean - 0.6).abs() < 1e-12);
        assert!((agg.tasks[1].accuracy.mean - 0.8).abs() < 1e-12);
        assert!((agg.tasks[0].accuracy.std - 0.1).abs() < 1e-12);
        assert!((agg.overall(|t| t.accuracy.mean) - 0.7).abs() < 1e-12);
        assert!((agg.mean_total_seconds - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mixed strategies")]
    fn mixed_strategies_rejected() {
        AggregatedRun::from_runs(&[record("X", 0, &[0.5]), record("Y", 1, &[0.5])]);
    }

    #[test]
    fn tables_render_all_rows() {
        let agg = AggregatedRun::from_runs(&[record("FACTION", 0, &[0.8, 0.9])]);
        let table = render_summary_table(std::slice::from_ref(&agg));
        assert!(table.contains("FACTION"));
        assert!(table.contains("Acc"));
        let curves = render_curves(&[agg], "accuracy", |t| t.accuracy);
        assert!(curves.contains("accuracy"));
        assert!(curves.contains("0.800"));
        assert!(curves.contains("0.900"));
    }

    #[test]
    fn json_roundtrip() {
        let agg = AggregatedRun::from_runs(&[record("FACTION", 0, &[0.8])]);
        let json = serde_json::to_string(&agg).unwrap();
        let back: AggregatedRun = serde_json::from_str(&json).unwrap();
        assert_eq!(back.strategy, "FACTION");
        assert_eq!(back.tasks.len(), 1);
    }
}
