//! Head-to-head comparison of all eight methods on one dataset — a
//! miniature of the Fig. 2 experiment, runnable in under a minute.
//!
//! ```text
//! cargo run --release --example compare_strategies [dataset]
//! ```
//!
//! `dataset` is one of `RCMNIST`, `CelebA`, `FairFace`, `FFHQ`, `NYSF`
//! (default `NYSF`).

use faction::core::report::{render_summary_table, AggregatedRun};
use faction::engine::{build_strategy, PAPER_METHODS};
use faction::prelude::*;

fn main() {
    let dataset = std::env::args()
        .nth(1)
        .and_then(|name| Dataset::from_name(&name))
        .unwrap_or(Dataset::Nysf);
    let cfg = ExperimentConfig::quick();
    let seeds = 2;

    println!("comparing 8 strategies on {} ({seeds} seeds, quick scale)…\n", dataset.name());
    let mut aggregated = Vec::new();
    for method in PAPER_METHODS {
        let runs: Vec<RunRecord> = (0..seeds)
            .map(|seed| {
                let stream = dataset.stream_prefix(seed, Scale::Quick, Some(6), None);
                let arch = faction::nn::presets::standard(
                    stream.input_dim,
                    stream.num_classes,
                    seed,
                );
                // A fresh strategy per seed: strategies are stateful.
                let mut strategy = build_strategy(method, cfg.loss, 1.0, false).unwrap();
                run_experiment(&stream, strategy.as_mut(), &arch, &cfg, seed)
            })
            .collect();
        let agg = AggregatedRun::from_runs(&runs);
        eprintln!("  {} done ({:.1}s/run)", agg.strategy, agg.mean_total_seconds);
        aggregated.push(agg);
    }

    println!("{}", render_summary_table(&aggregated));
    println!("(full-scale version: cargo run -p faction-bench --release --bin fig2_curves)");
}
