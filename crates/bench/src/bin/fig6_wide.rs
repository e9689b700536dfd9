//! Figure 6: architecture generality — the full method lineup on CelebA with
//! the wide feature extractor (the paper uses Wide-ResNet-50; this
//! reproduction's stand-in is the `wide` MLP preset, see `DESIGN.md` §3).
//! The claim to reproduce: FACTION's fairness advantage persists under a
//! different architecture while accuracy stays competitive.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig6_wide [-- --quick]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{registry_factories, run_lineup, wide_arch, write_output, HarnessOptions};
use faction_core::report::{render_curves, render_summary_table};
use faction_data::datasets::Dataset;
use faction_engine::PAPER_METHODS;

fn main() {
    let options = HarnessOptions::from_args();
    let cfg = options.experiment_config();
    let dataset = Dataset::CelebA;
    eprintln!("fig6: CelebA with wide architecture …");
    let factories = registry_factories(PAPER_METHODS, cfg.loss, options.quick);
    let scale = options.scale();
    let aggregated = run_lineup(
        &|seed| dataset.stream(seed, scale),
        &factories,
        &wide_arch,
        &cfg,
        options.seeds,
        options.jobs,
    );
    let mut text = String::from("==== CelebA, wide architecture (WRN-50 stand-in) ====\n");
    text.push_str(&render_curves(&aggregated, "accuracy (higher better)", |t| t.accuracy));
    text.push_str(&render_curves(&aggregated, "DDP (lower better)", |t| t.ddp));
    text.push_str(&render_curves(&aggregated, "EOD (lower better)", |t| t.eod));
    text.push_str(&render_curves(&aggregated, "MI (lower better)", |t| t.mi));
    text.push_str("\nsummary (mean over tasks):\n");
    text.push_str(&render_summary_table(&aggregated));
    write_output(&options, "fig6_wide", &text, &aggregated);
}
