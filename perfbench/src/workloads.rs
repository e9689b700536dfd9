//! Workload generators. Every input the program receives — job lists and
//! serve request scripts — is a pure function of the workload seed.

use faction_core::{ExperimentConfig, PoolPolicy};
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::ExperimentJob;
use faction_serve::OpenSpec;

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["batch_paper", "bounded_window", "serve_mix"];

/// Seeds each batch job list fans out over.
const BATCH_PAPER_SEEDS: u64 = 2;
const BOUNDED_WINDOW_SEEDS: u64 = 4;
/// Retention window of `bounded_window`'s labeled pool.
pub const WINDOW: usize = 256;

/// `batch_paper`: FACTION on NYSF and RCMNIST at full scale and the paper
/// configuration (B=200, A=50, warm 100, 8 epochs), unbounded pool, two
/// seeds each — four jobs, dataset-major like `faction_engine::grid`.
pub fn batch_paper_jobs(seed: u64) -> Vec<ExperimentJob> {
    let mut jobs = Vec::new();
    for dataset in [Dataset::Nysf, Dataset::Rcmnist] {
        for j in 0..BATCH_PAPER_SEEDS {
            let job_seed = seed.wrapping_mul(BATCH_PAPER_SEEDS).wrapping_add(j);
            jobs.push(ExperimentJob::new(
                dataset,
                "faction",
                job_seed,
                ExperimentConfig::paper(),
                Scale::Full,
            ));
        }
    }
    jobs
}

/// `bounded_window`: incremental-refit FACTION on NYSF, paper
/// configuration, pool capped to the newest [`WINDOW`] labels.
pub fn bounded_window_jobs(seed: u64) -> Vec<ExperimentJob> {
    let cfg = ExperimentConfig {
        pool_policy: PoolPolicy::SlidingWindow(WINDOW),
        ..ExperimentConfig::paper()
    };
    (0..BOUNDED_WINDOW_SEEDS)
        .map(|j| {
            let job_seed = seed.wrapping_mul(BOUNDED_WINDOW_SEEDS).wrapping_add(j);
            ExperimentJob::new(
                Dataset::Nysf,
                "faction-incremental",
                job_seed,
                cfg.clone(),
                Scale::Full,
            )
        })
        .collect()
}

/// Live sessions the serve mix admits (the session-table bound).
pub const SESSIONS: usize = 64;
/// `open` requests sent; the ones past [`SESSIONS`] are shed.
pub const OPENS: usize = 72;
/// Tenants sharing the label ledgers.
pub const TENANTS: usize = 4;
/// Tasks each session walks through.
pub const TASKS: usize = 3;
/// Strategies the sessions cycle through.
pub const SERVE_STRATEGIES: [&str; 4] = ["faction", "faction-incremental", "entropy", "random"];
/// Per-session label budget per task and acquisition batch.
pub const SERVE_BUDGET: usize = 40;
pub const SERVE_BATCH: usize = 10;
/// Rounds each session sends per task (one of them is rolled back).
pub const ROUNDS_PER_TASK: usize = 4;
/// Label grants per tenant ledger: below the 16 sessions × 3 tasks × 4
/// rounds × 10 picks each tenant's sessions ask for, so the tail of the
/// grants is denied.
pub const TENANT_BUDGET: usize = 1800;

/// One client request of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Task(usize),
    Round,
    Snapshot,
    Restore,
    Close,
}

/// The script every client walks, one request per drain: per task, enter
/// it, run a round, snapshot, run a round, roll back to the snapshot, and
/// run two more rounds (the first replays the rolled-back one); then close.
pub fn session_script() -> Vec<Step> {
    let mut script = Vec::new();
    for k in 0..TASKS {
        script.extend([
            Step::Task(k),
            Step::Round,
            Step::Snapshot,
            Step::Round,
            Step::Restore,
            Step::Round,
            Step::Round,
        ]);
    }
    script.push(Step::Close);
    script
}

/// The serve mix's generated inputs.
#[derive(Debug, Clone)]
pub struct ServeMix {
    /// `open` requests in submission order; the first [`SESSIONS`] are
    /// admitted, the rest shed.
    pub opens: Vec<OpenSpec>,
    /// For each task, the session that probes its inbox bound with one
    /// extra `round` alongside its `task` request.
    pub probes: [usize; TASKS],
}

/// `serve_mix`: 72 opens over 5 datasets × 4 strategies × 4 tenants, tiny
/// architecture at quick scale, three tasks per session.
pub fn serve_mix(seed: u64) -> ServeMix {
    let cfg = ExperimentConfig {
        budget: SERVE_BUDGET,
        acquisition_batch: SERVE_BATCH,
        ..ExperimentConfig::quick()
    };
    let opens = (0..OPENS)
        .map(|i| OpenSpec {
            session: format!("s{i:02}"),
            tenant: format!("t{}", i % TENANTS),
            dataset: Dataset::ALL[i % Dataset::ALL.len()],
            strategy: SERVE_STRATEGIES[(i / Dataset::ALL.len()) % SERVE_STRATEGIES.len()]
                .to_string(),
            seed: seed.wrapping_mul(OPENS as u64).wrapping_add(i as u64),
            cfg: cfg.clone(),
            truncate_tasks: Some(TASKS),
            truncate_samples: None,
        })
        .collect();
    let probes = std::array::from_fn(|k| (seed as usize).wrapping_add(23 * k) % SESSIONS);
    ServeMix { opens, probes }
}

/// A one-line rendering of every generated input, for the determinism test
/// and the run log.
pub fn describe(workload: &str, seed: u64) -> String {
    match workload {
        "batch_paper" => describe_jobs(&batch_paper_jobs(seed)),
        "bounded_window" => describe_jobs(&bounded_window_jobs(seed)),
        _ => {
            let mix = serve_mix(seed);
            let opens: Vec<String> = mix
                .opens
                .iter()
                .map(|o| {
                    format!(
                        "{}:{}:{}:{}:{}",
                        o.session,
                        o.tenant,
                        o.dataset.name(),
                        o.strategy,
                        o.seed
                    )
                })
                .collect();
            format!("{} probes={:?}", opens.join(","), mix.probes)
        }
    }
}

fn describe_jobs(jobs: &[ExperimentJob]) -> String {
    jobs.iter()
        .map(|j| format!("{}:{}", j.key(), j.cfg.pool_policy))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_seed_dependent() {
        for w in WORKLOADS {
            assert_eq!(describe(w, 7), describe(w, 7), "{w}");
            assert_ne!(describe(w, 7), describe(w, 8), "{w}");
        }
    }

    #[test]
    fn batch_jobs_match_the_documented_shape() {
        let jobs = batch_paper_jobs(3);
        assert_eq!(jobs.len(), 4);
        assert!(jobs
            .iter()
            .all(|j| j.strategy == "faction" && j.cfg.pool_policy == PoolPolicy::Unbounded));
        assert_eq!(jobs[0].cfg.budget, 200);
        let jobs = bounded_window_jobs(3);
        assert!(jobs
            .iter()
            .all(|j| j.cfg.pool_policy == PoolPolicy::SlidingWindow(WINDOW)));
        let mut keys: Vec<String> = jobs.iter().map(ExperimentJob::key).collect();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "job keys are unique");
    }

    #[test]
    fn serve_mix_covers_every_dataset_strategy_and_tenant() {
        let mix = serve_mix(0);
        assert_eq!(mix.opens.len(), OPENS);
        let admitted = &mix.opens[..SESSIONS];
        for d in Dataset::ALL {
            for s in SERVE_STRATEGIES {
                assert!(
                    admitted.iter().any(|o| o.dataset == d && o.strategy == s),
                    "{} {s}",
                    d.name()
                );
            }
        }
        for t in 0..TENANTS {
            assert_eq!(
                admitted
                    .iter()
                    .filter(|o| o.tenant == format!("t{t}"))
                    .count(),
                SESSIONS / TENANTS
            );
        }
        let demand = SESSIONS / TENANTS * TASKS * ROUNDS_PER_TASK * SERVE_BATCH;
        assert!(
            TENANT_BUDGET < demand,
            "the tenant ledger must deny the tail"
        );
        let rounds = session_script()
            .iter()
            .filter(|s| **s == Step::Round)
            .count();
        assert_eq!(rounds, TASKS * ROUNDS_PER_TASK);
        assert!(mix.probes.iter().all(|&p| p < SESSIONS));
    }
}
