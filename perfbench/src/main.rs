//! End-to-end benchmark of the online round (see `README.md`).
//!
//! ```text
//! perfbench --workload <batch_paper|bounded_window|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) it measures the end-to-end metrics; traced
//! (`--trace 1`) it records spans around the calls into each layer and
//! reports the per-layer metrics. Human-readable lines come first; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod batch;
mod gemm;
mod host;
mod report;
mod serve_mix;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use faction_data::datasets::Dataset;
use faction_data::Scale;

use report::{Run, END_TO_END, PER_LAYER};

/// Where runs leave their scratch files and traces, under the working
/// directory (the checkout root).
const OUT_DIR: &str = ".perfbench";
/// Wall time of the GEMM microbench in a traced run.
const GEMM_BUDGET: Duration = Duration::from_millis(300);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("`--{name}` needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing `--{name}`"));
    let workload = get("workload")?.clone();
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            workloads::WORKLOADS
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "`--seed` must be a non-negative integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "`--seconds` must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("`--seconds` must be positive".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace` must be 0 or 1, got `{other}`")),
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag `--{extra}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, scratch: &Path) -> (Run, Vec<trace::Span>) {
    let workers = host::workers();
    let mut run = Run::default();
    run.note(format!(
        "inputs: {:016x}",
        stats::fnv1a(workloads::describe(&args.workload, args.seed).as_bytes())
    ));
    let spans = match (args.workload.as_str(), args.trace) {
        ("serve_mix", false) => {
            serve_mix::measure(
                &mut run,
                &workloads::serve_mix(args.seed),
                workers,
                args.seconds,
            );
            Vec::new()
        }
        ("serve_mix", true) => {
            serve_mix::traced(&mut run, &workloads::serve_mix(args.seed), workers)
        }
        (batch_kind, trace) => {
            let jobs = if batch_kind == "batch_paper" {
                workloads::batch_paper_jobs(args.seed)
            } else {
                workloads::bounded_window_jobs(args.seed)
            };
            if trace {
                batch::traced(&mut run, &jobs, workers, scratch)
            } else {
                batch::measure(&mut run, &jobs, workers, args.seconds, scratch);
                Vec::new()
            }
        }
    };
    if args.trace {
        let shapes = Dataset::Nysf.stream(args.seed, Scale::Quick);
        let (us, gflops) = gemm::train_shapes(shapes.input_dim, shapes.num_classes, GEMM_BUDGET);
        run.set("linalg.gemm_us.train_shapes", us);
        run.set("linalg.gemm_gflops.train_shapes", gflops);
    }
    run.set("peak_rss_mb", host::peak_rss_mb());
    (run, spans)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let out_dir = root.join(OUT_DIR);
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let (mut result, spans) = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if args.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        match trace::write_tsv(&path, &spans) {
            Ok(()) => result.note(format!(
                "spans: {} written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => result.check(false, || format!("cannot write {}: {e}", path.display())),
        }
    }
    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = result.result_line(catalogue);
    println!("{}", host::facts(&root));
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &result.notes {
        println!("{note}");
    }
    for failure in &result.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "ops_failed_ratio: {} ({} failed of {} operations; {} of {} output checks failed)",
        stats::ratio(result.ops_failed as f64, result.ops as f64),
        result.ops_failed,
        result.ops,
        result.check_failures.len(),
        result.checks
    );
    for &(name, unit) in catalogue {
        println!(
            "{name:<36} {:>16} {unit}",
            result.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mix --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 4, 10.0, true)
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_mix --seed x --seconds 1 --trace 0",
            "--workload serve_mix --seed 1 --seconds 0 --trace 0",
            "--workload serve_mix --seed 1 --seconds 1 --trace 2",
            "--workload serve_mix --seed 1 --seconds 1",
            "--workload serve_mix --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
