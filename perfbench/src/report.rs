//! Metric catalogue, output checks, and the result line.

use std::collections::BTreeMap;

use faction_telemetry::Snapshot;

use crate::stats::ratio;

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rounds_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("acc_mean", "ratio"),
    ("ddp_mean", "ratio"),
    ("eod_mean", "ratio"),
];

/// Per-layer metrics (traced run): name, unit. Every workload reports all
/// of them; a layer a workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("data.stream_gen_ms", "ms"),
    ("core.warm_start_ms", "ms"),
    ("core.begin_task_ms", "ms"),
    ("core.feed_ms", "ms"),
    ("core.apply_labels_ms", "ms"),
    ("core.rounds", "count"),
    ("core.tasks", "count"),
    ("core.apply_labels_ms.pool_lt_1000", "ms"),
    ("core.apply_labels_ms.pool_ge_2000", "ms"),
    ("core.train_growth", "ratio"),
    ("core.retrain_pool_rows", "count"),
    ("core.faction.features_ms", "ms"),
    ("core.faction.gda_fit_ms", "ms"),
    ("core.faction.gda_score_ms", "ms"),
    ("density.gda.fit_rows", "count"),
    ("density.gda.score_rows", "count"),
    ("density.incremental.updates", "count"),
    ("density.incremental.downdates", "count"),
    ("density.incremental.reanchors", "count"),
    ("nn.train_steps", "count"),
    ("nn.spectral.power_iterations", "count"),
    ("nn.train_step_us", "us"),
    ("linalg.gemm_us.train_shapes", "us"),
    ("linalg.gemm_gflops.train_shapes", "GFLOP/s"),
    ("engine.busy_share", "ratio"),
    ("engine.job_run_s.max", "s"),
    ("engine.steals", "count"),
    ("engine.park_waits", "count"),
    ("wire.snapshot_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.drain_ms.p50", "ms"),
    ("serve.drain_ms.max", "ms"),
    ("serve.waves", "count"),
    ("serve.refused", "count"),
    ("serve.grant_ratio", "ratio"),
    ("serve.feed_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("trace.uncovered_ms", "ms"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: jobs, rounds, requests.
    pub ops: u64,
    /// Operations failed: failed jobs, degraded rounds, `error` responses.
    /// Designed shed/busy refusals are not failures; their exact counts
    /// are checked instead.
    pub ops_failed: u64,
    pub checks: u64,
    pub check_failures: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Run {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Operations plus output checks.
    pub fn attempted(&self) -> u64 {
        self.ops + self.checks
    }

    /// Failed operations plus failed output checks.
    pub fn failed(&self) -> u64 {
        self.ops_failed + self.check_failures.len() as u64
    }

    /// The result line: every metric of `catalogue`, a missing one as 0.
    /// A non-finite value cannot be written as JSON; it fails the run.
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            self.check(value.is_finite(), || {
                format!("metric {name} is not finite ({value})")
            });
            if !value.is_finite() {
                value = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let failed = self.failed();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted(),
            failed,
            fields.join(", ")
        )
    }
}

/// Sum of a histogram the program recorded (0 when absent).
pub fn hist_sum(snap: &Snapshot, key: &str) -> f64 {
    snap.histogram(key).map_or(0.0, |h| h.sum as f64)
}

/// A counter the program recorded (0 when absent).
pub fn counter(snap: &Snapshot, key: &str) -> f64 {
    snap.counter(key).map_or(0.0, |v| v as f64)
}

/// Copies the program's own counters and phase histograms (recorded when a
/// registry is installed) into the per-layer metrics every workload shares.
pub fn registry_layers(run: &mut Run, snap: &Snapshot) {
    run.set("core.rounds", counter(snap, "core.runner.rounds"));
    run.set("core.tasks", counter(snap, "core.runner.tasks"));
    run.set(
        "core.retrain_pool_rows",
        hist_sum(snap, "core.model.retrain_pool_rows"),
    );
    run.set(
        "core.faction.features_ms",
        hist_sum(snap, "core.faction.features_ns") / 1e6,
    );
    run.set(
        "core.faction.gda_fit_ms",
        hist_sum(snap, "core.faction.gda_fit_ns") / 1e6,
    );
    run.set(
        "core.faction.gda_score_ms",
        hist_sum(snap, "core.faction.gda_score_ns") / 1e6,
    );
    run.set(
        "density.gda.fit_rows",
        hist_sum(snap, "density.gda.fit_rows"),
    );
    run.set(
        "density.gda.score_rows",
        hist_sum(snap, "density.gda.score_batch_rows"),
    );
    run.set(
        "density.incremental.updates",
        counter(snap, "density.incremental.updates"),
    );
    run.set(
        "density.incremental.downdates",
        counter(snap, "density.incremental.downdates"),
    );
    run.set(
        "density.incremental.reanchors",
        counter(snap, "density.incremental.reanchors"),
    );
    let steps = counter(snap, "nn.train.steps");
    run.set("nn.train_steps", steps);
    run.set(
        "nn.spectral.power_iterations",
        counter(snap, "nn.spectral.power_iterations"),
    );
    run.set(
        "nn.train_step_us",
        ratio(hist_sum(snap, "core.runner.train_ns") / 1e3, steps),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(fields: &'a [(String, serde_json::Value)], name: &str) -> &'a serde_json::Value {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing {name}"))
    }

    fn str_of(v: &serde_json::Value) -> &str {
        match v {
            serde_json::Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    /// The catalogue here and `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let top = json.as_object().expect("object");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let serde_json::Value::Array(entries) = field(top, key) else {
                panic!("{key} is a list")
            };
            let listed: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let e = e.as_object().expect("metric object");
                    (str_of(field(e, "name")), str_of(field(e, "unit")))
                })
                .collect();
            assert_eq!(listed, catalogue.to_vec(), "{key}");
        }
        let serde_json::Value::Array(workloads) = field(top, "workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| str_of(field(w.as_object().expect("object"), "name")))
            .collect();
        assert_eq!(names, crate::workloads::WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_reports_every_metric_and_counts_checks() {
        let mut run = Run {
            ops: 5,
            ..Run::default()
        };
        run.set("wall_s", 1.25);
        run.set("setup_s", f64::NAN);
        run.check(true, String::new);
        let line = run.result_line(&END_TO_END);
        let json = serde_json::parse_value(&line).expect("valid JSON");
        let top = json.as_object().unwrap();
        assert!(
            matches!(field(top, "correct"), serde_json::Value::Bool(false)),
            "NaN fails the run"
        );
        let metrics = field(top, "metrics").as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(
            line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
            "{line}"
        );
        assert!(
            line.contains("\"attempted\": 15"),
            "5 ops + 10 checks: {line}"
        );
    }
}
