//! Experiment hyperparameters (paper Sec. V-A3).

use faction_fairness::TotalLossConfig;

use crate::pool::PoolPolicy;

/// Protocol-level configuration shared by FACTION and every baseline.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Label budget `B` per task (paper: 200).
    pub budget: usize,
    /// Acquisition batch size `A` per AL iteration (paper: 50).
    pub acquisition_batch: usize,
    /// Warm-start labeled set size drawn uniformly from the first task
    /// (paper: 100). Does not count against the first task's budget.
    pub warm_start: usize,
    /// Training epochs per AL iteration when retraining on the pool.
    pub epochs_per_iteration: usize,
    /// Mini-batch size for retraining.
    pub train_batch_size: usize,
    /// Constant learning rate `γ_t` (paper keeps it constant, Sec. IV-F).
    pub learning_rate: f64,
    /// Fairness-regularized loss configuration (μ, ε) — used by
    /// strategies that opt into fair regularization.
    pub loss: TotalLossConfig,
    /// Retention policy for the labeled pool (DESIGN.md §11). `Unbounded`
    /// reproduces the paper; the bounded policies cap refit and retraining
    /// cost for long streams.
    pub pool_policy: PoolPolicy,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            budget: 200,
            acquisition_batch: 50,
            warm_start: 100,
            epochs_per_iteration: 8,
            train_batch_size: 64,
            learning_rate: 0.05,
            loss: TotalLossConfig::default(),
            pool_policy: PoolPolicy::Unbounded,
        }
    }
}

impl ExperimentConfig {
    /// The paper's configuration: `B = 200`, `A = 50`, warm start 100.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A reduced configuration for unit tests and `--quick` harness runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            budget: 40,
            acquisition_batch: 20,
            warm_start: 30,
            epochs_per_iteration: 4,
            train_batch_size: 32,
            learning_rate: 0.05,
            loss: TotalLossConfig::default(),
            pool_policy: PoolPolicy::Unbounded,
        }
    }

    /// Number of AL iterations per task, `⌈B / A⌉`.
    pub fn iterations_per_task(&self) -> usize {
        self.budget.div_ceil(self.acquisition_batch.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(cfg.budget, 200);
        assert_eq!(cfg.acquisition_batch, 50);
        assert_eq!(cfg.warm_start, 100);
        assert_eq!(cfg.iterations_per_task(), 4);
        assert_eq!(cfg.pool_policy, PoolPolicy::Unbounded);
    }

    #[test]
    fn iterations_round_up() {
        let cfg = ExperimentConfig { budget: 90, acquisition_batch: 40, ..Default::default() };
        assert_eq!(cfg.iterations_per_task(), 3);
    }

    #[test]
    fn quick_is_smaller_than_paper() {
        let q = ExperimentConfig::quick();
        let p = ExperimentConfig::paper();
        assert!(q.budget < p.budget);
        assert!(q.warm_start < p.warm_start);
    }
}
