//! `faction_cli` — run FACTION experiments from the command line.
//!
//! ```text
//! cargo run --release --bin faction_cli -- list
//! cargo run --release --bin faction_cli -- run --dataset NYSF --strategy faction --seeds 3 --quick
//! cargo run --release --bin faction_cli -- grid --strategies faction,random --seeds 3 --jobs 4 --quick
//! cargo run --release --bin faction_cli -- drift --dataset RCMNIST --quick
//! cargo run --release --bin faction_cli -- inspect ck/NYSF-faction-s0.run.wire
//! ```

use std::str::FromStr;
use std::sync::Arc;

use faction::core::drift::DriftDetector;
use faction::core::report::{render_summary_table, AggregatedRun};
use faction::engine::{Engine, EngineConfig, ExperimentJob};
use faction::prelude::*;
use faction_telemetry::{Handle, Registry};

const USAGE: &str = "\
faction_cli — fairness-aware active online learning experiments

USAGE:
  faction_cli list
  faction_cli run   --dataset NAME [--strategy NAME] [--seeds N] [--budget B]
                    [--mu F] [--lambda F] [--jobs N] [--quick]
                    [--pool-policy SPEC] [--journal PATH] [--metrics-out PATH]
  faction_cli grid  [--datasets A,B|--dataset NAME] [--strategies X,Y] [--seeds N]
                    [--budget B] [--mu F] [--lambda F] [--jobs N] [--quick]
                    [--pool-policy SPEC] [--out DIR] [--checkpoint-dir DIR]
                    [--journal PATH] [--metrics-out PATH]
  faction_cli drift --dataset NAME [--quick]
  faction_cli stats --dataset NAME [--quick]
  faction_cli serve --workload PATH [--jobs N] [--chaos-seed N]
                    [--max-sessions N] [--inbox-capacity N] [--tenant-budget N]
                    [--budget B] [--mu F] [--quick] [--pool-policy SPEC]
                    [--session NAME] [--out PATH] [--journal PATH]
                    [--metrics-out PATH]
  faction_cli inspect FILE

  --jobs N          worker threads for the execution engine (0 = auto-detect);
                    results are byte-identical for every N.
  --pool-policy S   labeled-pool retention: unbounded (default, the paper
                    protocol) | window:N (keep newest N).
  --metrics-out P   write a telemetry snapshot (sorted-key JSON: counters,
                    gauges, phase histograms) to P after the run; recording
                    never changes results.
  --journal P       stream the event journal to P as a crash-safe binary
                    wire container (one CRC-framed record per event; a
                    killed run leaves a replayable valid prefix).

  serve reads a newline-delimited request script (open/task/round/snapshot/
  restore/close/drain — see README \"Serving\") and prints the decision
  trace; --chaos-seed N perturbs worker scheduling (the trace must not
  change), --session NAME prints one session's slice of the trace, and the
  protocol flags (--budget/--mu/--quick/--pool-policy) set the base config
  that `open` lines override per session.

  inspect prints any wire file (run checkpoint, session snapshot,
  journal) as JSON: a single-record artifact pretty-printed, a journal one
  line per record (a torn tail is reported on stderr).

STRATEGIES: faction, faction-incremental, faction-no-select, faction-no-reg,
            faction-uncertainty, fal, fal-cur, decoupled, qufur, ddu, entropy,
            random
DATASETS:   RCMNIST, CelebA, FairFace, FFHQ, NYSF
";

/// Prints a usage error naming the offending flag/value and exits with the
/// conventional usage-error code 2 (panics and their exit code 101 are for
/// bugs, not for typos on the command line).
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Flags that never take a value: the token after one is positional.
const SWITCHES: &[&str] = &["quick"];

/// Parsed flags in command-line order, plus the positional arguments. A
/// `Vec` rather than a `HashMap`: lookups are linear over a handful of
/// entries and validation can iterate deterministically.
struct Flags {
    flags: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parses the arguments after the command name.
    fn parse(args: &[String]) -> Flags {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                let takes_value = !SWITCHES.contains(&key);
                let value = if takes_value && i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    i += 1;
                    args[i].clone()
                } else {
                    "true".into()
                };
                flags.push((key.to_string(), value));
            } else {
                positionals.push(args[i].clone());
            }
            i += 1;
        }
        Flags { flags, positionals }
    }

    /// Rejects flags the command does not understand and positional
    /// arguments beyond the `positional` it takes, naming the first
    /// offender.
    fn expect_known(&self, command: &str, known: &[&str], positional: usize) {
        for (key, _) in &self.flags {
            if !known.contains(&key.as_str()) {
                usage_error(&format!("unknown flag '--{key}' for '{command}'"));
            }
        }
        if let Some(stray) = self.positionals.get(positional) {
            usage_error(&format!("unexpected argument '{stray}' for '{command}'"));
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Typed flag lookup; a malformed value is a usage error naming the
    /// flag and the expected shape, not a panic.
    fn parse_value<T: FromStr>(&self, key: &str, expected: &str) -> Option<T> {
        self.get(key).map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                usage_error(&format!("invalid value '{raw}' for --{key} (expected {expected})"))
            })
        })
    }

    fn dataset(&self, key: &str) -> Option<Dataset> {
        self.get(key).map(|name| {
            Dataset::from_name(name).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown dataset '{name}' for --{key} \
                     (one of RCMNIST, CelebA, FairFace, FFHQ, NYSF)"
                ))
            })
        })
    }
}

/// Shared protocol knobs for `run` and `grid`.
fn config_from_flags(flags: &Flags) -> (ExperimentConfig, Scale, bool) {
    let quick = flags.has("quick");
    let mut cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::paper() };
    if let Some(budget) = flags.parse_value("budget", "integer") {
        cfg.budget = budget;
    }
    if let Some(mu) = flags.parse_value("mu", "float") {
        cfg.loss.mu = mu;
    }
    if let Some(spec) = flags.get("pool-policy") {
        cfg.pool_policy = PoolPolicy::parse(spec)
            .unwrap_or_else(|e| usage_error(&format!("invalid --pool-policy: {e}")));
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    (cfg, scale, quick)
}

/// Builds the engine; when `--metrics-out` is set, a telemetry [`Registry`]
/// is installed as the engine recorder and returned so the caller can write
/// its snapshot once the run completes.
fn engine_from_flags(flags: &Flags) -> (Engine, Option<Arc<Registry>>) {
    let workers = faction::engine::resolve_workers(flags.parse_value("jobs", "integer"));
    let checkpoint_dir = flags.get("checkpoint-dir").map(std::path::PathBuf::from);
    // The journal streams to disk as a binary wire container (crash-safe,
    // CRC-framed); `inspect` renders it as JSON.
    let journal_path = flags.get("journal").map(std::path::PathBuf::from);
    let registry = flags.has("metrics-out").then(|| Arc::new(Registry::new()));
    let recorder = registry.clone().map(Handle::from).unwrap_or_default();
    let engine = Engine::new(EngineConfig {
        workers,
        checkpoint_dir,
        journal_path,
        recorder,
        ..EngineConfig::default()
    });
    (engine, registry)
}

/// Writes the metrics snapshot for `--metrics-out`, if requested.
fn write_metrics(flags: &Flags, registry: Option<&Arc<Registry>>) {
    let (Some(path), Some(registry)) = (flags.get("metrics-out"), registry) else {
        return;
    };
    let mut json = registry.snapshot().to_json_pretty();
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("metrics: {path}"),
        Err(e) => eprintln!("warning: could not write metrics to {path}: {e}"),
    }
}

fn cmd_list(flags: &Flags) {
    flags.expect_known("list", &[], 0);
    println!("datasets:");
    for ds in Dataset::ALL {
        let stream = ds.stream(0, Scale::Quick);
        println!(
            "  {:<14} {:>2} tasks, {} environments, {}-d inputs",
            ds.name(),
            stream.len(),
            stream.num_environments(),
            stream.input_dim
        );
    }
    println!("\nstrategies: {}", faction::engine::STRATEGY_NAMES.join(", "));
    println!("\nkernel backend: {}", faction::linalg::dispatch::active_backend());
}

fn cmd_run(flags: &Flags) {
    flags.expect_known(
        "run",
        &[
            "dataset",
            "strategy",
            "seeds",
            "budget",
            "mu",
            "lambda",
            "jobs",
            "quick",
            "pool-policy",
            "journal",
            "metrics-out",
        ],
        0,
    );
    let (cfg, scale, quick) = config_from_flags(flags);
    let dataset = flags.dataset("dataset").unwrap_or_else(|| {
        usage_error("--dataset is required (one of RCMNIST, CelebA, FairFace, FFHQ, NYSF)")
    });
    let strategy_name = flags.get("strategy").unwrap_or("faction");
    let seeds: u64 = flags.parse_value("seeds", "integer").unwrap_or(3);
    let lambda: f64 = flags.parse_value("lambda", "float").unwrap_or(1.0);
    if faction::engine::build_strategy(strategy_name, cfg.loss, lambda, quick).is_none() {
        usage_error(&format!("unknown strategy '{strategy_name}' for --strategy"));
    }

    let (engine, registry) = engine_from_flags(flags);
    eprintln!(
        "running {strategy_name} on {} ({seeds} seeds, budget {}, {} worker(s))…",
        dataset.name(),
        cfg.budget,
        engine.config().workers
    );
    let jobs: Vec<ExperimentJob> = (0..seeds)
        .map(|seed| {
            let mut job = ExperimentJob::new(dataset, strategy_name, seed, cfg.clone(), scale);
            job.lambda = lambda;
            job.quick_knobs = quick;
            job
        })
        .collect();
    let outcome = engine.run_grid(&jobs);
    write_metrics(flags, registry.as_ref());

    // The engine streamed the journal to --journal as it ran (wire
    // container, one flushed record per event); nothing to write here.
    if let Some(path) = flags.get("journal") {
        eprintln!("journal: {path}");
    }

    for failure in &outcome.failures {
        eprintln!("  {failure}");
    }
    let runs: Vec<RunRecord> = outcome.records.iter().flatten().cloned().collect();
    if runs.is_empty() {
        eprintln!("no runs completed");
        std::process::exit(1);
    }
    for run in &runs {
        eprintln!("  seed {}: {:.1}s", run.seed, run.total_seconds);
    }
    let aggregated = AggregatedRun::from_runs(&runs);
    println!("\nper-task curves (mean across seeds):");
    println!(
        "{:<6} {:<14} {:>8} {:>8} {:>8} {:>8}",
        "task", "environment", "acc", "DDP", "EOD", "MI"
    );
    for t in &aggregated.tasks {
        println!(
            "{:<6} {:<14} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            t.task_id, t.env_name, t.accuracy.mean, t.ddp.mean, t.eod.mean, t.mi.mean
        );
    }
    println!();
    println!("{}", render_summary_table(std::slice::from_ref(&aggregated)));
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

fn cmd_grid(flags: &Flags) {
    flags.expect_known(
        "grid",
        &[
            "datasets",
            "dataset",
            "strategies",
            "seeds",
            "budget",
            "mu",
            "lambda",
            "jobs",
            "quick",
            "pool-policy",
            "out",
            "checkpoint-dir",
            "journal",
            "metrics-out",
        ],
        0,
    );
    let (cfg, scale, quick) = config_from_flags(flags);
    let seeds: u64 = flags.parse_value("seeds", "integer").unwrap_or(3);
    let lambda: f64 = flags.parse_value("lambda", "float").unwrap_or(1.0);

    let datasets: Vec<Dataset> = match (flags.get("datasets"), flags.dataset("dataset")) {
        (Some(csv), _) => csv
            .split(',')
            .map(|name| {
                Dataset::from_name(name.trim()).unwrap_or_else(|| {
                    usage_error(&format!("unknown dataset '{name}' in --datasets"))
                })
            })
            .collect(),
        (None, Some(one)) => vec![one],
        (None, None) => Dataset::ALL.to_vec(),
    };
    let strategy_names: Vec<String> = match flags.get("strategies") {
        Some(csv) => csv.split(',').map(|s| s.trim().to_string()).collect(),
        None => ["faction", "fal", "fal-cur", "decoupled", "qufur", "ddu", "entropy", "random"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    for name in &strategy_names {
        if faction::engine::build_strategy(name, cfg.loss, lambda, quick).is_none() {
            usage_error(&format!("unknown strategy '{name}' in --strategies"));
        }
    }

    let mut jobs = Vec::new();
    for &dataset in &datasets {
        for name in &strategy_names {
            for seed in 0..seeds {
                let mut job = ExperimentJob::new(dataset, name, seed, cfg.clone(), scale);
                job.lambda = lambda;
                job.quick_knobs = quick;
                jobs.push(job);
            }
        }
    }

    let (engine, registry) = engine_from_flags(flags);
    eprintln!(
        "grid: {} dataset(s) × {} strategies × {seeds} seed(s) = {} jobs on {} worker(s)…",
        datasets.len(),
        strategy_names.len(),
        jobs.len(),
        engine.config().workers
    );
    let outcome = engine.run_grid(&jobs);
    write_metrics(flags, registry.as_ref());

    // The engine streamed the journal to --journal as it ran (wire
    // container, one flushed record per event); nothing to write here.
    if let Some(path) = flags.get("journal") {
        eprintln!("journal: {path}");
    }

    // One summary row per (dataset, strategy): aggregate that cell's seeds.
    let mut tables: Vec<String> = Vec::new();
    for &dataset in &datasets {
        let mut rows = Vec::new();
        for name in &strategy_names {
            let cell: Vec<RunRecord> = jobs
                .iter()
                .zip(&outcome.records)
                .filter(|(job, _)| job.dataset == dataset && &job.strategy == name)
                .filter_map(|(_, rec)| rec.clone())
                .collect();
            if !cell.is_empty() {
                rows.push(AggregatedRun::from_runs(&cell));
            }
        }
        if !rows.is_empty() {
            tables.push(format!("== {} ==\n{}", dataset.name(), render_summary_table(&rows)));
        }
    }
    let rendered = tables.join("\n");
    println!("{rendered}");

    if let Some(dir) = flags.get("out") {
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        } else {
            match outcome.canonical_json() {
                Ok(json) => {
                    let path = dir.join("grid_runs.json");
                    match std::fs::write(&path, json) {
                        Ok(()) => eprintln!("records: {}", path.display()),
                        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
                    }
                }
                Err(e) => eprintln!("warning: could not serialize records: {e}"),
            }
            std::fs::write(dir.join("grid_summary.txt"), &rendered).ok();
        }
    }

    let s = &outcome.summary;
    eprintln!(
        "engine: {} jobs ({} resumed), {} failed, {} retries, {} worker(s), \
         queue depth high-water {}, {:.1}s wall",
        s.jobs, s.resumed, s.failed, s.retries, s.workers, s.queue_depth_high_water, s.wall_seconds
    );
    if !outcome.failures.is_empty() {
        for failure in &outcome.failures {
            eprintln!("FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

fn cmd_drift(flags: &Flags) {
    flags.expect_known("drift", &["dataset", "quick"], 0);
    let quick = flags.has("quick");
    let dataset = flags.dataset("dataset").unwrap_or(Dataset::Rcmnist);
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let stream = dataset.stream(0, scale);
    let detector = DriftDetector { threshold: 2.0, ..Default::default() };
    println!("density-drop drift scan over {} ({} tasks):", dataset.name(), stream.len());
    println!("{:<6} {:<16} {:>12} {:>8}", "task", "environment", "drop(nats)", "drift?");
    let reference = &stream.tasks[0];
    for task in &stream.tasks[1..] {
        let report = detector
            .score(
                &reference.features(),
                &reference.labels(),
                &reference.sensitives(),
                stream.num_classes,
                &task.features(),
            )
            .expect("drift scoring");
        println!(
            "{:<6} {:<16} {:>12.2} {:>8}",
            task.id,
            task.env_name,
            report.density_drop,
            if report.drift_detected { "YES" } else { "-" }
        );
    }
    println!("\n(reference distribution: task 0, environment '{}')", reference.env_name);
}

fn cmd_stats(flags: &Flags) {
    flags.expect_known("stats", &["dataset", "quick"], 0);
    let quick = flags.has("quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let datasets: Vec<Dataset> = match flags.dataset("dataset") {
        Some(one) => vec![one],
        None => Dataset::ALL.to_vec(),
    };
    for dataset in datasets {
        let stream = dataset.stream(0, scale);
        let profile = faction::data::stats::StreamProfile::of(&stream);
        println!("{}", profile.render());
    }
}

fn cmd_serve(flags: &Flags) {
    flags.expect_known(
        "serve",
        &[
            "workload",
            "jobs",
            "chaos-seed",
            "max-sessions",
            "inbox-capacity",
            "tenant-budget",
            "budget",
            "mu",
            "quick",
            "pool-policy",
            "session",
            "out",
            "journal",
            "metrics-out",
        ],
        0,
    );
    // The same validated parsers the batch commands use: a malformed
    // --pool-policy or --jobs is a usage error here too, never a panic.
    let (base_cfg, _scale, _quick) = config_from_flags(flags);
    let path = flags
        .get("workload")
        .unwrap_or_else(|| usage_error("--workload is required (newline-delimited request file)"));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("could not read --workload '{path}': {e}")));
    let requests = faction::serve::parse_workload(&text, &base_cfg)
        .unwrap_or_else(|e| usage_error(&format!("invalid --workload '{path}': {e}")));

    let registry = flags.has("metrics-out").then(|| Arc::new(Registry::new()));
    let mut cfg = ServeConfig {
        workers: faction::engine::resolve_workers(flags.parse_value("jobs", "integer")),
        chaos: flags
            .parse_value::<u64>("chaos-seed", "integer")
            .map(faction::engine::ChaosSchedule),
        recorder: registry.clone().map(Handle::from).unwrap_or_default(),
        journal_path: flags.get("journal").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    if let Some(n) = flags.parse_value("max-sessions", "integer") {
        cfg.max_sessions = n;
    }
    if let Some(n) = flags.parse_value("inbox-capacity", "integer") {
        cfg.inbox_capacity = n;
    }
    if let Some(n) = flags.parse_value("tenant-budget", "integer") {
        cfg.tenant_budget = n;
    }

    eprintln!("serve: {} request(s) on {} worker(s)…", requests.len(), cfg.workers);
    let mut manager = SessionManager::new(cfg);
    manager.run(&requests);
    write_metrics(flags, registry.as_ref());
    // The manager streamed the lifecycle journal to --journal as events
    // happened; close the stream with a final fsync.
    if let Some(path) = flags.get("journal") {
        if manager.finish_journal() {
            eprintln!("journal: {path}");
        } else {
            eprintln!("warning: journal stream to {path} had write errors");
        }
    }
    let trace = match flags.get("session") {
        Some(name) => manager.session_trace(name),
        None => manager.render_trace(),
    };
    match flags.get("out") {
        Some(path) => match std::fs::write(path, &trace) {
            Ok(()) => eprintln!("trace: {path} ({} line(s))", trace.lines().count()),
            Err(e) => {
                eprintln!("error: could not write trace to {path}: {e}");
                std::process::exit(1);
            }
        },
        None => print!("{trace}"),
    }
    eprintln!(
        "serve: {} wave(s), {} session(s) still open",
        manager.waves_run(),
        manager.open_sessions()
    );
}

/// `inspect FILE`: decodes any wire artifact to JSON on stdout. The header
/// names the payload kind; a journal is salvage-read and printed one
/// compact line per record, every other kind is a strict single-record
/// read printed pretty. A file that is not a readable container exits 1.
fn cmd_inspect(flags: &Flags) {
    flags.expect_known("inspect", &[], 1);
    let Some(path) = flags.positionals.first() else {
        usage_error("'inspect' takes one FILE argument");
    };
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&e));
    let kind = faction_wire::payload_kind(&bytes).unwrap_or_else(|e| fail(&e));
    if kind == faction_wire::PayloadKind::Journal {
        let salvage =
            faction_wire::read_container_salvage(&bytes, kind).unwrap_or_else(|e| fail(&e));
        for record in &salvage.records {
            let value = faction::engine::Journal::record_value(record).unwrap_or_else(|e| fail(&e));
            println!("{}", serde_json::to_string(&value).expect("a value tree renders as JSON"));
        }
        if let Some(drop) = salvage.dropped {
            eprintln!(
                "warning: {path}: dropped a torn tail of {} byte(s) at offset {} ({})",
                drop.bytes, drop.offset, drop.detail
            );
        }
    } else {
        let value: serde_json::Value =
            faction_wire::from_wire(kind, &bytes).unwrap_or_else(|e| fail(&e));
        println!("{}", serde_json::to_string_pretty(&value).expect("a value tree renders as JSON"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flags = Flags::parse(args.get(1..).unwrap_or_default());
    match command {
        "list" => cmd_list(&flags),
        "inspect" => cmd_inspect(&flags),
        "run" => cmd_run(&flags),
        "grid" => cmd_grid(&flags),
        "drift" => cmd_drift(&flags),
        "stats" => cmd_stats(&flags),
        "serve" => cmd_serve(&flags),
        "help" | "--help" | "-h" => print!("{USAGE}"),
        other => usage_error(&format!("unknown command '{other}'")),
    }
}
