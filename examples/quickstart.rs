//! Quickstart: run FACTION on a small simulated stream and watch it adapt.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use faction::prelude::*;

fn main() {
    // A short stop-and-frisk-like stream: 4 tasks, shifting environments,
    // strong label–group bias (see faction-data for the full generators).
    let stream = Dataset::Nysf.stream_prefix(42, Scale::Quick, Some(4), None);

    let cfg = ExperimentConfig::quick();
    let arch = faction::nn::presets::standard(stream.input_dim, stream.num_classes, 42);
    let mut strategy = Faction::new(FactionParams { loss: cfg.loss, ..Default::default() });

    println!("running FACTION over {} tasks ({} samples total)…\n", stream.len(), stream.total_samples());
    let record = run_experiment(&stream, &mut strategy, &arch, &cfg, 42);

    println!(
        "{:<6} {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "task", "environment", "acc", "DDP", "EOD", "MI", "queries"
    );
    for r in &record.records {
        println!(
            "{:<6} {:<14} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8}",
            r.task_id, r.env_name, r.accuracy, r.ddp, r.eod, r.mi, r.queries
        );
    }
    println!("\ntotal wall-clock: {:.2}s", record.total_seconds);
    println!(
        "mean accuracy {:.3}, mean DDP {:.3}",
        record.mean_of(|r| r.accuracy),
        record.mean_of(|r| r.ddp)
    );
}
