//! Figure 2: per-task Accuracy / DDP / EOD / MI curves for FACTION and all
//! seven baselines on the five datasets.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig2_curves [-- --quick --dataset NYSF --seeds 5]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{registry_factories, run_lineup, standard_arch, write_output, HarnessOptions};
use faction_core::report::{render_curves, render_summary_table, AggregatedRun};
use faction_engine::PAPER_METHODS;

fn main() {
    let options = HarnessOptions::from_args();
    let cfg = options.experiment_config();
    let mut text = String::new();
    let mut all: Vec<AggregatedRun> = Vec::new();
    let factories = registry_factories(PAPER_METHODS, cfg.loss, options.quick);

    for dataset in options.datasets() {
        eprintln!("fig2: running {} …", dataset.name());
        let scale = options.scale();
        let aggregated = run_lineup(
            &|seed| dataset.stream(seed, scale),
            &factories,
            &standard_arch,
            &cfg,
            options.seeds,
            options.jobs,
        );
        text.push_str(&format!("==== {} ====\n", dataset.name()));
        text.push_str(&render_curves(&aggregated, "accuracy (higher better)", |t| t.accuracy));
        text.push_str(&render_curves(&aggregated, "DDP (lower better)", |t| t.ddp));
        text.push_str(&render_curves(&aggregated, "EOD (lower better)", |t| t.eod));
        text.push_str(&render_curves(&aggregated, "MI (lower better)", |t| t.mi));
        text.push_str("\nper-dataset summary (mean over tasks):\n");
        text.push_str(&render_summary_table(&aggregated));
        text.push('\n');
        all.extend(aggregated);
    }

    write_output(&options, "fig2_curves", &text, &all);
}
