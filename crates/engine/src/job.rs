//! The FAL job layer: experiment descriptions the engine can execute.
//!
//! An [`ExperimentJob`] is a *value* describing one `(dataset, strategy,
//! seed)` cell of the paper's evaluation grid (Tables I–III / Fig. 5) plus
//! the protocol configuration it runs under. Everything a job's execution
//! consumes — the stream, the architecture init, the protocol RNG — is
//! derived from the job's own fields, never from submission order, worker
//! id, or completion order. That is the engine's determinism contract: the
//! same grid produces byte-identical canonical results at `--jobs 1` and
//! `--jobs 8`.
//!
//! The strategy registry here is the single name → [`Strategy`] table shared
//! by `faction_cli`, the grid runner, the serve layer, the figure harnesses,
//! the tests and the examples, so none of them can drift apart on what
//! `"fal-cur"` means.

use faction_core::strategies::decoupled::Decoupled;
use faction_core::strategies::entropy::EntropyAl;
use faction_core::strategies::faction::{Faction, FactionParams, RefitMode};
use faction_core::strategies::fal::{Fal, FalParams};
use faction_core::strategies::falcur::FalCur;
use faction_core::strategies::qufur::QuFur;
use faction_core::strategies::random::Random;
use faction_core::strategies::Ddu;
use faction_core::{run_experiment, ExperimentConfig, RunRecord, Strategy};
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_nn::MlpConfig;

/// Registry names accepted by [`build_strategy`], in presentation order.
pub const STRATEGY_NAMES: &[&str] = &[
    "faction",
    "faction-incremental",
    "faction-no-select",
    "faction-no-reg",
    "faction-uncertainty",
    "fal",
    "fal-cur",
    "decoupled",
    "qufur",
    "ddu",
    "entropy",
    "random",
];

/// The Fig. 2 method lineup by registry name: FACTION and the seven
/// baselines of Sec. V-A2, in presentation order.
pub const PAPER_METHODS: &[&str] =
    &["faction", "fal", "fal-cur", "decoupled", "qufur", "ddu", "entropy", "random"];

/// Builds a strategy by registry name. `quick` scales down the cost knobs
/// of FAL (subsample sizes) exactly as the CLI and harnesses always have.
/// Returns `None` for unknown names.
pub fn build_strategy(
    name: &str,
    loss: faction_fairness::TotalLossConfig,
    lambda: f64,
    quick: bool,
) -> Option<Box<dyn Strategy>> {
    let params = FactionParams { loss, lambda, ..Default::default() };
    let fal_params = if quick {
        FalParams { l: 16, retrain_subsample: 48, probe_subsample: 48, ..Default::default() }
    } else {
        FalParams::default()
    };
    Some(match name.to_ascii_lowercase().as_str() {
        "faction" => Box::new(Faction::new(params)),
        "faction-incremental" => Box::new(Faction::new(FactionParams {
            refit: RefitMode::Incremental { reanchor_every: 64 },
            ..params
        })),
        "faction-no-select" => Box::new(Faction::without_fair_select(params)),
        "faction-no-reg" => Box::new(Faction::without_fair_reg(params)),
        "faction-uncertainty" => Box::new(Faction::uncertainty_only(params)),
        "fal" => Box::new(Fal::new(fal_params)),
        "fal-cur" | "falcur" => Box::new(FalCur::default()),
        "decoupled" => Box::new(Decoupled::default()),
        "qufur" => Box::new(QuFur::default()),
        "ddu" => Box::new(Ddu::default()),
        "entropy" | "entropy-al" => Box::new(EntropyAl),
        "random" => Box::new(Random),
        _ => return None,
    })
}

/// Network preset a job trains (see `faction_nn::presets`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArchPreset {
    /// The paper's standard spectrally-normalized architecture.
    #[default]
    Standard,
    /// The Fig. 6 wide architecture.
    Wide,
    /// The unit-test architecture (fast, tiny).
    Tiny,
}

impl ArchPreset {
    fn build(self, input_dim: usize, num_classes: usize, seed: u64) -> MlpConfig {
        match self {
            ArchPreset::Standard => faction_nn::presets::standard(input_dim, num_classes, seed),
            ArchPreset::Wide => faction_nn::presets::wide(input_dim, num_classes, seed),
            ArchPreset::Tiny => faction_nn::presets::tiny(input_dim, num_classes, seed),
        }
    }
}

/// One `(dataset, strategy, seed)` cell of an evaluation grid.
#[derive(Debug, Clone)]
pub struct ExperimentJob {
    /// Benchmark stream to generate.
    pub dataset: Dataset,
    /// Strategy registry name (see [`STRATEGY_NAMES`]).
    pub strategy: String,
    /// Seed for stream generation, weight init and the protocol RNG. Part
    /// of the job key: the run is a pure function of this value, never of
    /// scheduling.
    pub seed: u64,
    /// Stream generation scale.
    pub scale: Scale,
    /// Protocol configuration (budget, batch, warm start, loss).
    pub cfg: ExperimentConfig,
    /// FACTION's fairness-gap weight λ.
    pub lambda: f64,
    /// Scale down baseline cost knobs (FAL subsampling) for quick runs.
    pub quick_knobs: bool,
    /// Architecture preset shared by all methods in a comparison.
    pub arch: ArchPreset,
    /// Generate only the first N tasks of the stream (tests / reduced grids).
    pub truncate_tasks: Option<usize>,
    /// Generate only the first N samples of every task (tests / reduced grids).
    pub truncate_samples: Option<usize>,
}

impl ExperimentJob {
    /// A full-grid job with default λ and no truncation.
    pub fn new(dataset: Dataset, strategy: &str, seed: u64, cfg: ExperimentConfig, scale: Scale) -> ExperimentJob {
        ExperimentJob {
            dataset,
            strategy: strategy.to_string(),
            seed,
            scale,
            cfg,
            lambda: 1.0,
            quick_knobs: scale == Scale::Quick,
            arch: ArchPreset::Standard,
            truncate_tasks: None,
            truncate_samples: None,
        }
    }

    /// Filename-safe job key, unique within a grid:
    /// `<dataset>-<strategy>-s<seed>`.
    pub fn key(&self) -> String {
        format!("{}-{}-s{}", self.dataset.name(), self.strategy, self.seed)
    }

    /// FNV-1a fingerprint of the key — a compact stable job id for journal
    /// correlation. A pure function of the key, like everything else about
    /// the job.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.key().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Whether [`Self::strategy`] resolves in the registry.
    pub fn strategy_known(&self) -> bool {
        build_strategy(&self.strategy, self.cfg.loss, self.lambda, self.quick_knobs).is_some()
    }

    /// Executes the experiment described by this job. Fails (without
    /// panicking) on an unknown strategy name.
    pub fn run(&self) -> Result<RunRecord, String> {
        let mut strategy = build_strategy(&self.strategy, self.cfg.loss, self.lambda, self.quick_knobs)
            .ok_or_else(|| format!("unknown strategy '{}'", self.strategy))?;
        let stream =
            self.dataset.stream_prefix(self.seed, self.scale, self.truncate_tasks, self.truncate_samples);
        let arch = self.arch.build(stream.input_dim, stream.num_classes, self.seed);
        Ok(run_experiment(&stream, strategy.as_mut(), &arch, &self.cfg, self.seed))
    }
}

/// Builds the dense grid `datasets × strategies × seeds` in deterministic
/// dataset-major, then strategy, then seed order — the submission order the
/// engine's result table preserves.
pub fn grid(
    datasets: &[Dataset],
    strategies: &[&str],
    seeds: u64,
    cfg: &ExperimentConfig,
    scale: Scale,
) -> Vec<ExperimentJob> {
    let mut jobs = Vec::with_capacity(datasets.len() * strategies.len() * usize::try_from(seeds).unwrap_or(0));
    for &dataset in datasets {
        for &strategy in strategies {
            for seed in 0..seeds {
                jobs.push(ExperimentJob::new(dataset, strategy, seed, cfg.clone(), scale));
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_listed_name() {
        for name in STRATEGY_NAMES {
            assert!(
                build_strategy(name, Default::default(), 1.0, true).is_some(),
                "registry missing '{name}'"
            );
        }
        assert!(build_strategy("nope", Default::default(), 1.0, true).is_none());
    }

    fn paper_display_names() -> Vec<String> {
        PAPER_METHODS
            .iter()
            .map(|name| build_strategy(name, Default::default(), 1.0, false).unwrap().name())
            .collect()
    }

    #[test]
    fn lineup_has_eight_methods_with_unique_names() {
        let mut names = paper_display_names();
        assert_eq!(names.len(), 8);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8, "strategy names must be unique");
    }

    #[test]
    fn lineup_contains_faction_and_all_baselines() {
        let names = paper_display_names();
        for expected in
            ["FACTION", "FAL", "FAL-CUR", "Decoupled", "QuFUR", "DDU", "Entropy-AL", "Random"]
        {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn keys_are_unique_across_a_grid() {
        let jobs = grid(
            &[Dataset::Rcmnist, Dataset::Nysf],
            &["entropy", "random"],
            3,
            &ExperimentConfig::quick(),
            Scale::Quick,
        );
        assert_eq!(jobs.len(), 12);
        let mut keys: Vec<String> = jobs.iter().map(ExperimentJob::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 12);
    }

    #[test]
    fn fingerprint_depends_only_on_key() {
        let cfg = ExperimentConfig::quick();
        let a = ExperimentJob::new(Dataset::Nysf, "random", 4, cfg.clone(), Scale::Quick);
        let mut b = ExperimentJob::new(Dataset::Nysf, "random", 4, cfg, Scale::Quick);
        b.truncate_samples = Some(10); // not part of the key
        assert_eq!(a.key(), b.key());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            ExperimentJob::new(Dataset::Nysf, "random", 5, ExperimentConfig::quick(), Scale::Quick).fingerprint()
        );
    }

    #[test]
    fn unknown_strategy_is_an_error_not_a_panic() {
        let mut job = ExperimentJob::new(Dataset::Nysf, "bogus", 0, ExperimentConfig::quick(), Scale::Quick);
        job.truncate_tasks = Some(1);
        let err = job.run().unwrap_err();
        assert!(err.contains("bogus"), "error should name the strategy: {err}");
    }
}
