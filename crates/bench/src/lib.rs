//! Shared plumbing for the benchmark harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! FACTION paper (see `DESIGN.md` §4 for the index). They share:
//!
//! * [`HarnessOptions`] — a minimal CLI (`--quick`, `--seeds N`,
//!   `--dataset NAME`, `--out DIR`, `--jobs N`, `--pool-policy SPEC`);
//! * [`run_lineup`] — "run these strategies on this stream across seeds and
//!   aggregate" — the inner loop of every figure, fanned out over the
//!   `faction-engine` thread pool when `--jobs > 1` (results are identical
//!   for every worker count — see `DESIGN.md` §8);
//! * [`write_output`] — persist the human-readable table and the
//!   machine-readable JSON under `results/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use faction_core::report::AggregatedRun;
use faction_core::{run_experiment, ExperimentConfig, PoolPolicy, Strategy};
use faction_data::datasets::Dataset;
use faction_data::{Scale, TaskStream};
use faction_nn::MlpConfig;

/// A factory producing a fresh strategy instance per seed (strategies are
/// stateful across a run, so each seed gets its own). `Sync` so the engine
/// pool can invoke factories from worker threads.
pub type StrategyFactory = Box<dyn Fn() -> Box<dyn Strategy> + Sync>;

/// Parsed harness command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Reduced scale: fewer seeds, smaller tasks, smaller budgets.
    pub quick: bool,
    /// Number of repetitions (paper: 5).
    pub seeds: u64,
    /// Restrict to one dataset (all five when `None`).
    pub dataset: Option<Dataset>,
    /// Output directory for `.txt` / `.json` results.
    pub out_dir: PathBuf,
    /// Engine worker threads for the run fan-out (`--jobs N`, `0` = auto;
    /// default 1 keeps historical single-threaded behavior). Results are
    /// byte-identical for every value.
    pub jobs: usize,
    /// Labeled-pool retention policy (`--pool-policy SPEC`, default
    /// `unbounded` — the paper protocol, leaving every published figure
    /// unchanged).
    pub pool_policy: PoolPolicy,
}

/// Usage text printed with every command-line error.
const USAGE: &str = "\
usage: <harness> [--quick] [--seeds N] [--dataset NAME] [--out DIR]
                 [--jobs N] [--pool-policy SPEC]
       fig4_ablation also takes a positional `extended` (adds shared-covariance GDA).
       fig5_runtime also takes a positional `fair` (default) or `ablation`.

  --quick           reduced scale; lowers the default seed count to 2
  --seeds N         repetitions (default 5; an explicit value always wins)
  --dataset NAME    one of RCMNIST, CelebA, FairFace, FFHQ, NYSF (default: all)
  --out DIR         results directory (default: results)
  --jobs N          engine worker threads (0 = auto; results are identical)
  --pool-policy S   unbounded (default) | window:N";

impl HarnessOptions {
    /// Parses `std::env::args()`. A malformed command line prints an error
    /// naming the flag plus the usage text and exits with code 2.
    pub fn from_args() -> HarnessOptions {
        HarnessOptions::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses harness arguments (without the program name). Flag order
    /// does not matter: `--quick` lowers only the *default* seed count, so
    /// an explicit `--seeds` wins wherever it appears.
    ///
    /// # Errors
    /// Returns a message naming the flag on an unknown flag, a missing
    /// value, or a value that does not parse.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<HarnessOptions, String> {
        let mut quick = false;
        let mut seeds = None;
        let mut dataset = None;
        let mut out_dir = PathBuf::from("results");
        let mut jobs = 1;
        let mut pool_policy = PoolPolicy::Unbounded;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => quick = true,
                "--seeds" => {
                    let v = value()?;
                    seeds = Some(v.parse().map_err(|_| {
                        format!("invalid value '{v}' for --seeds (expected a non-negative integer)")
                    })?);
                }
                "--dataset" => {
                    let v = value()?;
                    dataset = Some(Dataset::from_name(&v).ok_or_else(|| {
                        format!(
                            "unknown dataset '{v}' for --dataset \
                             (one of RCMNIST, CelebA, FairFace, FFHQ, NYSF)"
                        )
                    })?);
                }
                "--out" => out_dir = PathBuf::from(value()?),
                "--jobs" => {
                    let v = value()?;
                    let requested = v.parse().map_err(|_| {
                        format!("invalid value '{v}' for --jobs (expected a non-negative integer)")
                    })?;
                    jobs = faction_engine::resolve_workers(Some(requested));
                }
                "--pool-policy" => {
                    pool_policy = PoolPolicy::parse(&value()?)
                        .map_err(|e| format!("invalid --pool-policy: {e}"))?;
                }
                other if !other.starts_with("--") => {
                    // Positional argument (fig4's `extended`, fig5's `fair` /
                    // `ablation` selector) — left for the binary to re-read.
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let seeds = seeds.unwrap_or(if quick { 2 } else { 5 });
        Ok(HarnessOptions { quick, seeds, dataset, out_dir, jobs, pool_policy })
    }

    /// The generation scale implied by `--quick`.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The protocol configuration implied by `--quick` and `--pool-policy`.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::paper()
        };
        cfg.pool_policy = self.pool_policy;
        cfg
    }

    /// Datasets selected by the CLI (one or all five).
    pub fn datasets(&self) -> Vec<Dataset> {
        match self.dataset {
            Some(d) => vec![d],
            None => Dataset::ALL.to_vec(),
        }
    }
}

/// Runs each strategy factory over the stream for `seeds` repetitions and
/// aggregates across seeds. The architecture is rebuilt per seed via
/// `arch_for_seed` so weight initialization varies with the repetition, as
/// in the paper's five-run protocol.
///
/// With `jobs > 1` the (factory × seed) grid is fanned out over the
/// `faction-engine` pool. Every run is a pure function of
/// `(stream, strategy, arch, seed)`, and results land in a slot table
/// indexed by grid position, so the aggregated output is identical to the
/// sequential nested loop for every worker count.
pub fn run_lineup(
    stream_for_seed: &(dyn Fn(u64) -> TaskStream + Sync),
    factories: &[StrategyFactory],
    arch_for_seed: &(dyn Fn(&TaskStream, u64) -> MlpConfig + Sync),
    cfg: &ExperimentConfig,
    seeds: u64,
    jobs: usize,
) -> Vec<AggregatedRun> {
    let grid: Vec<(usize, u64)> =
        (0..factories.len()).flat_map(|f| (0..seeds).map(move |s| (f, s))).collect();
    let slots: Vec<Mutex<Option<faction_core::RunRecord>>> =
        grid.iter().map(|_| Mutex::new(None)).collect();

    faction_engine::scoped_for_each(jobs, &grid, |slot, &(factory_idx, seed)| {
        let stream = stream_for_seed(seed);
        let arch = arch_for_seed(&stream, seed);
        let mut strategy = factories[factory_idx]();
        let record = run_experiment(&stream, strategy.as_mut(), &arch, cfg, seed);
        *slots[slot].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(record);
    });

    let mut records: Vec<faction_core::RunRecord> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every grid slot is filled by the pool")
        })
        .collect();
    factories
        .iter()
        .map(|_| {
            let rest = records.split_off(seeds as usize);
            let runs = std::mem::replace(&mut records, rest);
            AggregatedRun::from_runs(&runs)
        })
        .collect()
}

/// One factory per registry name (see [`faction_engine::build_strategy`]),
/// with the registry's `--quick` cost knobs when `quick` is set.
///
/// # Panics
/// Panics on a name the registry does not know.
pub fn registry_factories(
    names: &[&'static str],
    loss: faction_fairness::TotalLossConfig,
    quick: bool,
) -> Vec<StrategyFactory> {
    names
        .iter()
        .map(|&name| {
            assert!(
                faction_engine::build_strategy(name, loss, 1.0, quick).is_some(),
                "unknown strategy '{name}'"
            );
            Box::new(move || {
                faction_engine::build_strategy(name, loss, 1.0, quick).expect("checked above")
            }) as StrategyFactory
        })
        .collect()
}

/// The standard architecture used by all methods in a comparison
/// (Sec. V-A3): the spectrally normalized preset sized to the stream.
pub fn standard_arch(stream: &TaskStream, seed: u64) -> MlpConfig {
    faction_nn::presets::standard(stream.input_dim, stream.num_classes, seed)
}

/// The Fig. 6 wide architecture (the WRN-50 stand-in; see `DESIGN.md` §3).
pub fn wide_arch(stream: &TaskStream, seed: u64) -> MlpConfig {
    faction_nn::presets::wide(stream.input_dim, stream.num_classes, seed)
}

/// Writes `text` to `<out>/<name>.txt`, `json` to `<out>/<name>.json`, and
/// echoes the text to stdout.
pub fn write_output(options: &HarnessOptions, name: &str, text: &str, json: &impl serde::Serialize) {
    fs::create_dir_all(&options.out_dir).expect("create results directory");
    let txt_path = options.out_dir.join(format!("{name}.txt"));
    fs::write(&txt_path, text).expect("write text results");
    let json_path = options.out_dir.join(format!("{name}.json"));
    fs::write(&json_path, serde_json::to_string_pretty(json).expect("serialize results"))
        .expect("write json results");
    println!("{text}");
    eprintln!("wrote {} and {}", txt_path.display(), json_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn quick_lowers_only_the_default_seed_count() {
        assert_eq!(parse(&[]).unwrap().seeds, 5);
        assert_eq!(parse(&["--quick"]).unwrap().seeds, 2);
        for args in [["--seeds", "5", "--quick"], ["--quick", "--seeds", "5"]] {
            let options = parse(&args).unwrap();
            assert!(options.quick, "{args:?}");
            assert_eq!(options.seeds, 5, "{args:?}");
        }
        assert_eq!(parse(&["--seeds", "1", "--quick"]).unwrap().seeds, 1);
    }

    #[test]
    fn positional_selector_and_every_flag_parse() {
        let options = parse(&[
            "ablation", "--dataset", "NYSF", "--out", "o", "--jobs", "1", "--pool-policy", "window:8",
        ])
        .unwrap();
        assert_eq!(options.dataset, Some(Dataset::Nysf));
        assert_eq!(options.out_dir, PathBuf::from("o"));
        assert_eq!(options.jobs, 1);
        assert_eq!(options.pool_policy, PoolPolicy::SlidingWindow(8));
    }

    #[test]
    fn malformed_flags_are_named_errors() {
        for (args, flag) in [
            (&["--seeds", "five"][..], "--seeds"),
            (&["--seeds", "-1"], "--seeds"),
            (&["--jobs", "many"], "--jobs"),
            (&["--dataset", "MNIST"], "--dataset"),
            (&["--pool-policy", "window:0"], "--pool-policy"),
            (&["--quick", "--seeds"], "--seeds"),
            (&["--jobs"], "--jobs"),
            (&["--dataset"], "--dataset"),
            (&["--out"], "--out"),
            (&["--kernel-backend", "simd"], "--kernel-backend"),
        ] {
            let message = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(message.contains(flag), "{args:?}: {message:?} does not name {flag}");
        }
    }

    #[test]
    fn run_lineup_aggregates_each_factory() {
        let factories = registry_factories(&["random", "entropy"], Default::default(), true);
        let cfg = ExperimentConfig {
            budget: 10,
            acquisition_batch: 5,
            warm_start: 15,
            epochs_per_iteration: 1,
            ..ExperimentConfig::quick()
        };
        let stream_for_seed = |seed: u64| {
            let mut s = faction_data::datasets::rcmnist(seed, Scale::Quick);
            s.tasks.truncate(2);
            for t in &mut s.tasks {
                t.samples.truncate(60);
            }
            s
        };
        let arch = |stream: &TaskStream, seed: u64| {
            faction_nn::presets::tiny(stream.input_dim, stream.num_classes, seed)
        };
        let aggregated = run_lineup(&stream_for_seed, &factories, &arch, &cfg, 2, 2);
        assert_eq!(aggregated.len(), 2);
        assert_eq!(aggregated[0].strategy, "Random");
        assert_eq!(aggregated[1].strategy, "Entropy-AL");
        assert_eq!(aggregated[0].seeds, 2);
        assert_eq!(aggregated[0].tasks.len(), 2);
    }
}
