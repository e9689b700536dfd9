//! Table I: FACTION vs its ablated variants on NYSF — runtime plus
//! Acc / DDP / EOD / MI, each a mean across the 16 tasks (and across seeds).
//!
//! Paper reference values (Tesla V100):
//!
//! ```text
//! Random                    65.2m  81.44 / 0.114 / 0.101 / 0.011
//! w/o fair sel. & fair reg  82.6m  84.51 / 0.118 / 0.084 / 0.009
//! w/o fair reg              90.2m  84.50 / 0.138 / 0.091 / 0.012
//! w/o fair select          110.0m  82.73 / 0.110 / 0.078 / 0.010
//! FACTION                  122.6m  83.41 / 0.089 / 0.059 / 0.006
//! ```
//!
//! The reproduction checks the *shape*: runtime increases as components are
//! added; FACTION yields the best DDP/EOD/MI at a small accuracy cost
//! relative to the non-fairness-aware variant.
//!
//! ```text
//! cargo run -p faction-bench --release --bin table1_nysf [-- --quick]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{registry_factories, run_lineup, standard_arch, write_output, HarnessOptions};
use faction_core::report::render_summary_table;
use faction_data::datasets::Dataset;

fn main() {
    let options = HarnessOptions::from_args();
    let cfg = options.experiment_config();
    // (row label, registry name)
    let variants = [
        ("Random", "random"),
        ("w/o fair sel. & fair reg", "faction-uncertainty"),
        ("w/o fair reg", "faction-no-reg"),
        ("w/o fair select", "faction-no-select"),
        ("FACTION", "faction"),
    ];
    let names: Vec<&str> = variants.iter().map(|&(_, name)| name).collect();
    let factories = registry_factories(&names, cfg.loss, options.quick);

    let dataset = Dataset::Nysf;
    let scale = options.scale();
    let mut aggregated = Vec::new();
    for ((label, _), factory) in variants.iter().zip(&factories) {
        eprintln!("table1: {label} …");
        let mut runs = run_lineup(
            &|seed| dataset.stream(seed, scale),
            std::slice::from_ref(factory),
            &standard_arch,
            &cfg,
            options.seeds,
            options.jobs,
        );
        runs[0].strategy = (*label).into();
        aggregated.extend(runs);
    }

    let mut text = String::from("Table I: FACTION vs ablated variants on NYSF (mean across tasks)\n");
    text.push_str(&render_summary_table(&aggregated));
    text.push_str("\npaper reference (V100 minutes / Acc / DDP / EOD / MI):\n");
    text.push_str("  Random                    65.2  81.44 / 0.114 / 0.101 / 0.011\n");
    text.push_str("  w/o fair sel. & fair reg  82.6  84.51 / 0.118 / 0.084 / 0.009\n");
    text.push_str("  w/o fair reg              90.2  84.50 / 0.138 / 0.091 / 0.012\n");
    text.push_str("  w/o fair select          110.0  82.73 / 0.110 / 0.078 / 0.010\n");
    text.push_str("  FACTION                  122.6  83.41 / 0.089 / 0.059 / 0.006\n");
    write_output(&options, "table1_nysf", &text, &aggregated);
}
