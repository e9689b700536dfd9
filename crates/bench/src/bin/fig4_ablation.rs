//! Figure 4: ablation curves on all datasets — FACTION vs "w/o Fair
//! Select", "w/o Fair Reg", and "w/o Fair Select & Fair Reg". The paper's
//! claim: every simplified variant exhibits inferior fairness.
//!
//! With the positional `extended`, the shared-covariance GDA design-choice
//! ablation from `DESIGN.md` §5 runs as well.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig4_ablation [-- --quick --dataset RCMNIST]
//! cargo run -p faction-bench --release --bin fig4_ablation -- extended [--quick]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{registry_factories, run_lineup, standard_arch, write_output, HarnessOptions};
use faction_core::report::{render_curves, render_summary_table, AggregatedRun};
use faction_core::strategies::faction::{Faction, FactionParams};
use faction_density::FairDensityConfig;

fn main() {
    let options = HarnessOptions::from_args();
    let extended = std::env::args().skip(1).any(|a| a == "extended");
    let cfg = options.experiment_config();
    let loss = cfg.loss;

    let mut factories = registry_factories(
        &["faction", "faction-no-select", "faction-no-reg", "faction-uncertainty"],
        loss,
        options.quick,
    );
    if extended {
        factories.push(Box::new(move || {
            Box::new(Faction::new(FactionParams {
                loss,
                density: FairDensityConfig { shared_covariance: true, ..Default::default() },
                ..Default::default()
            }))
        }));
    }

    let mut text = String::new();
    let mut all: Vec<AggregatedRun> = Vec::new();
    for dataset in options.datasets() {
        eprintln!("fig4: {} …", dataset.name());
        let scale = options.scale();
        let mut aggregated = run_lineup(
            &|seed| dataset.stream(seed, scale),
            &factories,
            &standard_arch,
            &cfg,
            options.seeds,
            options.jobs,
        );
        if extended {
            // Disambiguate the shared-covariance variant's display name
            // (same strategy name as full FACTION otherwise).
            if let Some(last) = aggregated.last_mut() {
                last.strategy = "FACTION (shared-cov GDA)".into();
            }
        }
        text.push_str(&format!("==== {} (ablation) ====\n", dataset.name()));
        text.push_str(&render_curves(&aggregated, "DDP (lower better)", |t| t.ddp));
        text.push_str(&render_curves(&aggregated, "EOD (lower better)", |t| t.eod));
        text.push_str(&render_curves(&aggregated, "accuracy (higher better)", |t| t.accuracy));
        text.push_str("\nsummary (mean over tasks):\n");
        text.push_str(&render_summary_table(&aggregated));
        text.push('\n');
        all.extend(aggregated);
    }
    write_output(&options, "fig4_ablation", &text, &all);
}
