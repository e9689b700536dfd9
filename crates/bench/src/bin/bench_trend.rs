//! `bench_trend` — the perf trajectory across PRs, with regression gates.
//!
//! Every PR's harness leaves a `BENCH_PR<k>.json` at the repo root; until
//! now the sequence was write-only. This subcommand reads them all, prints
//! the key medians and ratio metrics side by side, and **fails (exit 1) on
//! a >10% regression of any gated stage**: each gated metric has the claim
//! its PR shipped with, and the tolerance band is claim ± 10%. Absolute
//! nanosecond medians are machine-dependent and are printed for context
//! only; the gates are all same-process ratios, which transfer across
//! hosts.
//!
//! Usage: `cargo run --release --bin bench_trend`

use faction_bench::pr4;
use serde::find_field;
use serde_json::Value;

/// One gated ratio metric: where it lives, the claim its PR shipped with,
/// and which direction is "worse".
struct Gate {
    /// Report file the metric lives in.
    file: &'static str,
    /// Dot-separated path inside the JSON tree.
    path: &'static str,
    /// The claim the PR shipped with (ratio, percent, or fraction).
    claim: f64,
    /// True when larger is better (speedups, coverage); false when smaller
    /// is better (growth factors, overhead percentages).
    larger_is_better: bool,
}

/// The gated stages and their shipped claims. The 10% tolerance is applied
/// on top of these, in the "worse" direction only.
const GATES: &[Gate] = &[
    // PR 1: batched GDA scoring vs the per-sample reference (claimed >=4x).
    Gate { file: "BENCH_PR1.json", path: "gda_batch_speedup", claim: 4.0, larger_is_better: true },
    // PR 1: blocked GEMM vs the kept naive kernel at 256x256 (claimed >=2x).
    Gate { file: "BENCH_PR1.json", path: "matmul_256_speedup", claim: 2.0, larger_is_better: true },
    // PR 4: recording overhead on batched scoring (claimed <3%).
    Gate {
        file: "BENCH_PR4.json",
        path: "telemetry_overhead.overhead_pct",
        claim: 3.0,
        larger_is_better: false,
    },
    // PR 4: runner phase spans must cover >=90% of its wall clock.
    Gate {
        file: "BENCH_PR4.json",
        path: "phase_coverage.coverage",
        claim: 0.9,
        larger_is_better: true,
    },
    // PR 6: incremental per-round cost from pool 250 to 4000 (claimed <=1.5x).
    Gate {
        file: "BENCH_PR6.json",
        path: "incremental_growth",
        claim: 1.5,
        larger_is_better: false,
    },
    // PR 7: steady-state push+evict cost from pool 250 to 4000 (claimed
    // <=2x — the tombstone front-eviction keeps it flat in pool size).
    Gate {
        file: "BENCH_PR7.json",
        path: "eviction_growth",
        claim: 2.0,
        larger_is_better: false,
    },
    // PR 9: the explicit AVX2 micro-kernel vs the autovectorized scalar
    // blocked path at 256 (claimed parity-or-better — the intrinsics
    // replaced the default and must never fall >10% behind it).
    Gate {
        file: "BENCH_PR9.json",
        path: "simd_vs_blocked_256",
        claim: 1.0,
        larger_is_better: true,
    },
    // PR 10: the binary wire checkpoint vs its pretty JSON debug export at
    // pool 4000 (claimed >=3x smaller — the format the checkpoint path
    // demoted JSON to; the compact-JSON ratio is recorded in the report
    // but not gated, since compact JSON was never the shipped claim).
    Gate {
        file: "BENCH_PR10.json",
        path: "pretty_ratio_4000",
        claim: 3.0,
        larger_is_better: true,
    },
];

/// Numeric view of a JSON value, if it is one.
fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Walks a dot-separated path through nested objects.
fn lookup<'a>(root: &'a Value, path: &str) -> Option<&'a Value> {
    let mut v = root;
    for segment in path.split('.') {
        v = find_field(v.as_object()?, segment)?;
    }
    Some(v)
}

/// Collects every string field named `gate` in the tree (depth-first), so
/// pass/fail lines written by any harness are re-checked here.
fn collect_gate_strings(v: &Value, found: &mut Vec<String>) {
    if let Some(fields) = v.as_object() {
        for (key, value) in fields {
            if key == "gate" {
                if let Value::Str(s) = value {
                    found.push(s.clone());
                }
            }
            collect_gate_strings(value, found);
        }
    }
    if let Value::Array(items) = v {
        for item in items {
            collect_gate_strings(item, found);
        }
    }
}

/// Prints the per-stage medians of a report that carries a `stages` array.
fn print_stages(report: &Value) {
    let Some(Value::Array(stages)) = lookup(report, "stages") else { return };
    for stage in stages {
        let Some(fields) = stage.as_object() else { continue };
        let name = match find_field(fields, "name") {
            Some(Value::Str(s)) => s.clone(),
            _ => continue,
        };
        let median = find_field(fields, "median_ns").and_then(as_number);
        if let Some(median) = median {
            println!("    {name:<34} median {median:>14.0} ns");
        }
    }
}

/// Prints the PR 6 round-cost table.
fn print_rounds(report: &Value) {
    let Some(Value::Array(rounds)) = lookup(report, "rounds") else { return };
    for round in rounds {
        let Some(fields) = round.as_object() else { continue };
        let size = find_field(fields, "pool_size").and_then(as_number);
        let full = find_field(fields, "full_refit_round_ns").and_then(as_number);
        let incr = find_field(fields, "incremental_round_ns").and_then(as_number);
        if let (Some(size), Some(full), Some(incr)) = (size, full, incr) {
            println!(
                "    pool {size:>5.0}: full refit {full:>12.0} ns   incremental {incr:>12.0} ns"
            );
        }
    }
}

/// Prints the PR 7 eviction-cost table.
fn print_evictions(report: &Value) {
    let Some(Value::Array(rows)) = lookup(report, "evictions") else { return };
    for row in rows {
        let Some(fields) = row.as_object() else { continue };
        let size = find_field(fields, "pool_size").and_then(as_number);
        let ns = find_field(fields, "push_evict_ns").and_then(as_number);
        if let (Some(size), Some(ns)) = (size, ns) {
            println!("    pool {size:>5.0}: push+evict {ns:>10.0} ns");
        }
    }
}

/// Prints the PR 8 serve throughput/latency table.
fn print_serve_scales(report: &Value) {
    let Some(Value::Array(rows)) = lookup(report, "scales") else { return };
    for row in rows {
        let Some(fields) = row.as_object() else { continue };
        let sessions = find_field(fields, "sessions").and_then(as_number);
        let rate = find_field(fields, "sessions_per_sec").and_then(as_number);
        let p99 = find_field(fields, "feed_p99_ns").and_then(as_number);
        if let (Some(sessions), Some(rate), Some(p99)) = (sessions, rate, p99) {
            println!(
                "    sessions {sessions:>5.0}: {rate:>9.1} sessions/s   feed p99 {p99:>10.0} ns"
            );
        }
    }
}

/// Prints the PR 9 kernel backend GEMM table.
fn print_gemm_backends(report: &Value) {
    let Some(Value::Array(rows)) = lookup(report, "gemm") else { return };
    for row in rows {
        let Some(fields) = row.as_object() else { continue };
        let dim = find_field(fields, "dim").and_then(as_number);
        let naive = find_field(fields, "naive_ns").and_then(as_number);
        let blocked = find_field(fields, "blocked_ns").and_then(as_number);
        let simd = find_field(fields, "simd_ns").and_then(as_number);
        if let (Some(dim), Some(naive), Some(blocked), Some(simd)) = (dim, naive, blocked, simd) {
            println!(
                "    gemm {dim:>4.0}: naive {naive:>12.0} ns   blocked {blocked:>12.0} ns   \
                 simd {simd:>12.0} ns"
            );
        }
    }
}

/// Prints the PR 10 checkpoint-persistence table.
fn print_wire_checkpoints(report: &Value) {
    let Some(Value::Array(rows)) = lookup(report, "checkpoints") else { return };
    for row in rows {
        let Some(fields) = row.as_object() else { continue };
        let size = find_field(fields, "pool_size").and_then(as_number);
        let wire = find_field(fields, "wire_bytes").and_then(as_number);
        let compact = find_field(fields, "compact_json_bytes").and_then(as_number);
        let pretty = find_field(fields, "pretty_json_bytes").and_then(as_number);
        if let (Some(size), Some(wire), Some(compact), Some(pretty)) =
            (size, wire, compact, pretty)
        {
            println!(
                "    pool {size:>5.0}: wire {wire:>9.0} B   compact {compact:>9.0} B   \
                 pretty {pretty:>9.0} B"
            );
        }
    }
}

/// Cross-PR analyzer self-scan trend: every report that records
/// `analyzer_self_scan_ms` contributes a point; the latest must stay
/// within 10% of the best earlier point. With fewer than two points the
/// check only prints — a missing history is not a regression.
fn check_self_scan_trend(reports: &[(String, Value)], regressions: &mut Vec<String>) {
    let points: Vec<(&str, f64)> = reports
        .iter()
        .filter_map(|(name, report)| {
            lookup(report, "analyzer_self_scan_ms")
                .and_then(as_number)
                .map(|ms| (name.as_str(), ms))
        })
        .collect();
    if points.is_empty() {
        return;
    }
    println!("\nanalyzer self-scan trend:");
    for (name, ms) in &points {
        println!("  {name:<20} {ms:>8.0} ms");
    }
    if points.len() < 2 {
        return;
    }
    let (latest_name, latest) = points[points.len() - 1];
    let best_earlier = points[..points.len() - 1]
        .iter()
        .map(|&(_, ms)| ms)
        .fold(f64::INFINITY, f64::min);
    if latest > best_earlier * 1.1 {
        regressions.push(format!(
            "{latest_name}: analyzer self-scan {latest:.0} ms is >10% slower than the \
             best earlier report ({best_earlier:.0} ms)"
        ));
    }
}

fn main() {
    let root = pr4::repo_root();
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .expect("repo root readable")
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_PR") && name.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_PR*.json found under {}", root.display());
        std::process::exit(1);
    }

    let mut regressions: Vec<String> = Vec::new();
    let mut reports: Vec<(String, Value)> = Vec::new();
    for name in &names {
        let text = std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("read {name}: {e}"));
        let value = serde_json::parse_value(&text)
            .unwrap_or_else(|e| panic!("parse {name}: {e:?}"));
        reports.push((name.clone(), value));
    }

    println!("perf trajectory across {} report(s):", reports.len());
    for (name, report) in &reports {
        println!("  {name}");
        print_stages(report);
        print_rounds(report);
        print_evictions(report);
        print_serve_scales(report);
        print_gemm_backends(report);
        print_wire_checkpoints(report);
        let mut gates = Vec::new();
        collect_gate_strings(report, &mut gates);
        for gate in gates {
            println!("    gate: {gate}");
            if gate.starts_with("fail") {
                regressions.push(format!("{name}: harness gate failed: {gate}"));
            }
        }
    }

    println!("\ngated stages (claim ± 10%):");
    for gate in GATES {
        let Some((_, report)) = reports.iter().find(|(name, _)| name == gate.file) else {
            // A missing report is not a regression: earlier PRs' files only
            // exist once their harnesses have run on this checkout.
            println!("  {:<44} missing ({})", gate.path, gate.file);
            continue;
        };
        let Some(actual) = lookup(report, gate.path).and_then(as_number) else {
            regressions.push(format!("{}: metric {} missing", gate.file, gate.path));
            continue;
        };
        let (bound, ok) = if gate.larger_is_better {
            let bound = gate.claim * 0.9;
            (bound, actual >= bound)
        } else {
            let bound = gate.claim * 1.1;
            (bound, actual <= bound)
        };
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!(
            "  {:<44} {:>10.3} (claim {:.3}, bound {:.3}) {}",
            gate.path, actual, gate.claim, bound, verdict
        );
        if !ok {
            regressions.push(format!(
                "{}: {} = {:.3} is >10% worse than the shipped claim {:.3}",
                gate.file, gate.path, actual, gate.claim
            ));
        }
    }

    check_self_scan_trend(&reports, &mut regressions);

    if regressions.is_empty() {
        println!("\nbench trend: no gated-stage regressions");
    } else {
        eprintln!("\nbench trend: {} regression(s):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
