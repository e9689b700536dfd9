//! Figure 3: fairness–accuracy trade-off scatter for the fairness-aware
//! methods, sweeping each method's key fairness parameter:
//!
//! * FACTION's `μ ∈ {0.3, 0.5, 0.7, 1.4, 2.8}` (regularization strength);
//! * FAL's `l ∈ {64, 96, 128, 196, 256}`;
//! * FAL-CUR's `β ∈ {0.3, 0.4, 0.5, 0.6, 0.7}`;
//! * Decoupled's threshold `α ∈ {0.1, 0.2, 0.4, 0.6, 0.8}`.
//!
//! Each configuration reports mean ± std accuracy and EOD over all tasks
//! (points near the top-left — high accuracy, low EOD — are preferred).
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig3_tradeoff [-- --quick --dataset NYSF]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{run_lineup, standard_arch, write_output, HarnessOptions, StrategyFactory};
use faction_core::report::AggregatedRun;
use faction_core::strategies::decoupled::{Decoupled, DecoupledParams};
use faction_core::strategies::faction::{Faction, FactionParams};
use faction_core::strategies::fal::{Fal, FalParams};
use faction_core::strategies::falcur::{FalCur, FalCurParams};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct TradeoffPoint {
    dataset: String,
    method: String,
    parameter: String,
    accuracy_mean: f64,
    accuracy_std: f64,
    eod_mean: f64,
    eod_std: f64,
}

fn sweep_point(
    options: &HarnessOptions,
    dataset: faction_data::datasets::Dataset,
    method: &str,
    parameter: String,
    factory: StrategyFactory,
) -> TradeoffPoint {
    let cfg = options.experiment_config();
    let scale = options.scale();
    let aggregated = run_lineup(
        &|seed| dataset.stream(seed, scale),
        &[factory],
        &standard_arch,
        &cfg,
        options.seeds,
        options.jobs,
    );
    let run: &AggregatedRun = &aggregated[0];
    // Mean/std across seeds, averaged over tasks.
    let acc_std =
        run.tasks.iter().map(|t| t.accuracy.std).sum::<f64>() / run.tasks.len().max(1) as f64;
    let eod_std = run.tasks.iter().map(|t| t.eod.std).sum::<f64>() / run.tasks.len().max(1) as f64;
    TradeoffPoint {
        dataset: dataset.name().into(),
        method: method.into(),
        parameter,
        accuracy_mean: run.overall(|t| t.accuracy.mean),
        accuracy_std: acc_std,
        eod_mean: run.overall(|t| t.eod.mean),
        eod_std,
    }
}

fn main() {
    let options = HarnessOptions::from_args();
    let loss_base = options.experiment_config().loss;
    let mus = [0.3, 0.5, 0.7, 1.4, 2.8];
    let fal_ls: &[usize] = if options.quick { &[8, 16, 32] } else { &[64, 96, 128, 196, 256] };
    let betas = [0.3, 0.4, 0.5, 0.6, 0.7];
    let thresholds = [0.1, 0.2, 0.4, 0.6, 0.8];

    let mut points = Vec::new();
    for dataset in options.datasets() {
        eprintln!("fig3: {} …", dataset.name());
        for &mu in &mus {
            let loss = faction_fairness::TotalLossConfig { mu, ..loss_base };
            points.push(sweep_point(
                &options,
                dataset,
                "FACTION",
                format!("mu={mu}"),
                Box::new(move || {
                    Box::new(Faction::new(FactionParams { loss, ..Default::default() }))
                }),
            ));
        }
        for &l in fal_ls {
            points.push(sweep_point(
                &options,
                dataset,
                "FAL",
                format!("l={l}"),
                Box::new(move || Box::new(Fal::new(FalParams { l, ..Default::default() }))),
            ));
        }
        for &beta in &betas {
            points.push(sweep_point(
                &options,
                dataset,
                "FAL-CUR",
                format!("beta={beta}"),
                Box::new(move || {
                    Box::new(FalCur::new(FalCurParams { beta, ..Default::default() }))
                }),
            ));
        }
        for &threshold in &thresholds {
            points.push(sweep_point(
                &options,
                dataset,
                "Decoupled",
                format!("alpha={threshold}"),
                Box::new(move || {
                    Box::new(Decoupled::new(DecoupledParams { threshold, ..Default::default() }))
                }),
            ));
        }
    }

    let mut text = String::from(
        "Fig. 3 fairness-accuracy trade-off (top-left preferred: high Acc, low EOD)\n",
    );
    text.push_str(&format!(
        "{:<16} {:<12} {:<14} {:>14} {:>14}\n",
        "dataset", "method", "parameter", "Acc mean±std", "EOD mean±std"
    ));
    for p in &points {
        text.push_str(&format!(
            "{:<16} {:<12} {:<14} {:>7.3}±{:<6.3} {:>7.3}±{:<6.3}\n",
            p.dataset,
            p.method,
            p.parameter,
            p.accuracy_mean,
            p.accuracy_std,
            p.eod_mean,
            p.eod_std
        ));
    }
    write_output(&options, "fig3_tradeoff", &text, &points);
}
