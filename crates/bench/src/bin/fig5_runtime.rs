//! Figure 5: runtime comparisons.
//!
//! * `fig5_runtime fair` — Fig. 5a: runtimes of the fairness-aware models
//!   (FACTION, FAL, FAL-CUR, Decoupled). Expected shape: FAL slowest by a
//!   wide margin (expected-fairness retrains), FACTION cheaper than FAL and
//!   FAL-CUR, slightly above Decoupled.
//! * `fig5_runtime ablation` — Fig. 5b: FACTION vs its simplified variants
//!   plus Random. Expected shape: runtime grows as components are added,
//!   full FACTION under 2× Random.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig5_runtime -- fair [--quick]
//! cargo run -p faction-bench --release --bin fig5_runtime -- ablation [--quick]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{registry_factories, run_lineup, standard_arch, write_output, HarnessOptions};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct RuntimeRow {
    dataset: String,
    method: String,
    mean_total_seconds: f64,
}

fn main() {
    let options = HarnessOptions::from_args();
    let mode = std::env::args()
        .skip(1)
        .find(|a| a == "fair" || a == "ablation")
        .unwrap_or_else(|| "fair".into());
    let cfg = options.experiment_config();
    // (row label, registry name)
    let methods: &[(&str, &str)] = if mode == "fair" {
        &[("FACTION", "faction"), ("FAL", "fal"), ("FAL-CUR", "fal-cur"), ("Decoupled", "decoupled")]
    } else {
        &[
            ("Random", "random"),
            ("w/o fair select & fair reg", "faction-uncertainty"),
            ("w/o fair reg", "faction-no-reg"),
            ("w/o fair select", "faction-no-select"),
            ("FACTION", "faction"),
        ]
    };
    let names: Vec<&str> = methods.iter().map(|&(_, name)| name).collect();
    let factories = registry_factories(&names, cfg.loss, options.quick);

    let mut rows = Vec::new();
    let mut text = format!("Fig. 5{} runtimes (seconds, mean over {} seeds)\n", if mode == "fair" { 'a' } else { 'b' }, options.seeds);
    text.push_str(&format!("{:<16} {:<32} {:>12}\n", "dataset", "method", "seconds"));
    for dataset in options.datasets() {
        eprintln!("fig5 ({mode}): {} …", dataset.name());
        let scale = options.scale();
        for ((label, _), factory) in methods.iter().zip(&factories) {
            let aggregated = run_lineup(
                &|seed| dataset.stream(seed, scale),
                std::slice::from_ref(factory),
                &standard_arch,
                &cfg,
                options.seeds,
                options.jobs,
            );
            let seconds = aggregated[0].mean_total_seconds;
            text.push_str(&format!("{:<16} {:<32} {:>12.2}\n", dataset.name(), label, seconds));
            rows.push(RuntimeRow {
                dataset: dataset.name().into(),
                method: (*label).into(),
                mean_total_seconds: seconds,
            });
        }
    }
    let name = if mode == "fair" { "fig5a_runtime_fair" } else { "fig5b_runtime_ablation" };
    write_output(&options, name, &text, &rows);
}
