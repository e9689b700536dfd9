//! Golden tests for the rule suite.
//!
//! Each fixture under `tests/fixtures/` is a plain data file (never
//! compiled) carrying trailing `//~ <rule>` markers on every line where a
//! finding is expected — the rustc-UI-test convention, so the expectations
//! move with the code when lines shift. The harness lexes the fixture
//! through [`faction_analyzer::analyze_source`] with the `FileClass` the
//! fixture documents, then compares the sorted `(line, rule)` multiset of
//! findings against the markers.

use std::path::Path;

use faction_analyzer::lexer::{lex, TokKind};
use faction_analyzer::rules::WORKER_ENTRIES;
use faction_analyzer::{
    analyze_source, analyze_source_with, analyze_workspace, CheckContext, CheckOutcome, FileClass,
    KeyRegistry,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Parses the `//~ <rule>` markers out of a fixture: one expected
/// `(line, rule)` entry per marker, repeatable on a single line.
fn expected_findings(source: &str) -> Vec<(u32, String)> {
    let mut expected = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        for part in line.split("//~").skip(1) {
            let rule = part
                .trim_start()
                .split(|c: char| c.is_whitespace() || c == '/')
                .next()
                .unwrap_or("")
                .to_string();
            assert!(!rule.is_empty(), "empty //~ marker on line {}", idx + 1);
            expected.push((idx as u32 + 1, rule));
        }
    }
    expected.sort();
    expected
}

fn actual_findings(outcome: &CheckOutcome) -> Vec<(u32, String)> {
    let mut actual: Vec<(u32, String)> =
        outcome.findings.iter().map(|f| (f.line, f.rule.clone())).collect();
    actual.sort();
    actual
}

/// Runs one marker-driven fixture and returns the outcome for extra checks.
fn run_fixture(name: &str, class: FileClass) -> CheckOutcome {
    let source = fixture(name);
    let outcome = analyze_source(name, &source, &class);
    let expected = expected_findings(&source);
    let actual = actual_findings(&outcome);
    assert_eq!(
        actual, expected,
        "findings for {name} diverge from its //~ markers\nrendered:\n{}",
        outcome.findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
    outcome
}

#[test]
fn nondeterministic_iteration_fixture() {
    let outcome = run_fixture("nondet_iteration.rs", FileClass::default());
    assert_eq!(outcome.suppressed, 1, "the allowed integer-sum walk is suppressed");
}

#[test]
fn unwrap_in_lib_fixture() {
    run_fixture("unwrap_in_lib.rs", FileClass { lib_crate: true, ..Default::default() });
}

#[test]
fn unwrap_rule_is_scoped_to_lib_crates() {
    // The same source scanned as a non-library file (e.g. the bench crate)
    // raises nothing: panicking is only banned where callers can't opt out.
    let source = fixture("unwrap_in_lib.rs");
    let outcome = analyze_source("unwrap_in_lib.rs", &source, &FileClass::default());
    assert!(outcome.findings.is_empty(), "unwrap-in-lib must not fire outside lib crates");
}

#[test]
fn float_eq_fixture() {
    run_fixture("float_eq.rs", FileClass::default());
}

#[test]
fn banned_nondeterminism_fixture() {
    run_fixture("banned_nondet.rs", FileClass::default());
}

#[test]
fn timing_rule_is_waived_in_bench_crate() {
    let source = fixture("banned_nondet.rs");
    let outcome = analyze_source(
        "banned_nondet.rs",
        &source,
        &FileClass { bench_crate: true, ..Default::default() },
    );
    // thread_rng and the seedless hashers still fire; the wall-clock half
    // (Instant::now / SystemTime::now) is the bench crate's purpose.
    assert!(
        outcome.findings.iter().all(|f| !f.message.contains("wall clock")),
        "Instant/SystemTime findings must be waived in the bench crate"
    );
    assert!(
        outcome.findings.iter().any(|f| f.message.contains("thread_rng")),
        "thread_rng stays banned even in the bench crate"
    );
}

#[test]
fn telemetry_hot_path_fixture() {
    let outcome =
        run_fixture("telemetry_hot_path.rs", FileClass { lib_crate: true, ..Default::default() });
    assert_eq!(outcome.suppressed, 1, "the grid-end snapshot allow suppresses once");
}

#[test]
fn telemetry_rule_is_waived_in_the_telemetry_crate_and_outside_libs() {
    let source = fixture("telemetry_hot_path.rs");
    for class in [
        FileClass { lib_crate: true, telemetry_crate: true, ..Default::default() },
        FileClass::default(),
    ] {
        let outcome = analyze_source("telemetry_hot_path.rs", &source, &class);
        assert!(
            outcome.findings.iter().all(|f| f.rule != "telemetry-on-hot-path"),
            "rule must only fire in non-telemetry library crates: {:?}",
            outcome.findings
        );
    }
}

#[test]
fn timing_rules_partition_the_workspace() {
    // The same wall-clock sites report as telemetry-on-hot-path in a
    // library crate and as banned-nondeterminism elsewhere — never both,
    // so one analyzer:allow line always suffices.
    let source = fixture("banned_nondet.rs");
    let as_lib = analyze_source(
        "banned_nondet.rs",
        &source,
        &FileClass { lib_crate: true, ..Default::default() },
    );
    let wall_clock_rules: Vec<&str> = as_lib
        .findings
        .iter()
        .filter(|f| f.message.contains("::now()"))
        .map(|f| f.rule.as_str())
        .collect();
    assert_eq!(
        wall_clock_rules,
        ["telemetry-on-hot-path", "telemetry-on-hot-path"],
        "lib-crate wall-clock reads belong to the telemetry rule alone"
    );
    assert!(
        as_lib.findings.iter().any(|f| f.rule == "banned-nondeterminism"),
        "thread_rng/seedless hashers still report as banned-nondeterminism in libs"
    );
}

#[test]
fn lossy_cast_fixture() {
    run_fixture("lossy_cast.rs", FileClass { hot_path: true, ..Default::default() });
}

#[test]
fn lossy_cast_is_scoped_to_hot_paths() {
    let source = fixture("lossy_cast.rs");
    let outcome = analyze_source("lossy_cast.rs", &source, &FileClass::default());
    assert!(outcome.findings.is_empty(), "lossy-cast only applies to hot-path files");
}

#[test]
fn suppression_fixture() {
    let outcome = run_fixture("suppression.rs", FileClass { lib_crate: true, ..Default::default() });
    assert_eq!(outcome.suppressed, 2, "same-line and line-above allows each suppress once");
}

#[test]
fn cfg_test_exemption_fixture() {
    run_fixture("cfg_test_exempt.rs", FileClass { lib_crate: true, ..Default::default() });
}

#[test]
fn crate_hygiene_missing_fixture() {
    // The two hygiene findings anchor to line 1, which is a doc comment, so
    // this fixture carries its expectations here instead of as markers.
    let source = fixture("crate_hygiene_missing.rs");
    let outcome = analyze_source(
        "crate_hygiene_missing.rs",
        &source,
        &FileClass { crate_root: true, ..Default::default() },
    );
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.render()).collect();
    assert_eq!(outcome.findings.len(), 2, "both attributes are missing: {rendered:?}");
    assert!(rendered.iter().all(|r| r.contains(":1:crate-hygiene:")));
    assert!(rendered.iter().any(|r| r.contains("deny(unsafe_code)")));
    assert!(rendered.iter().any(|r| r.contains("warn(missing_docs)")));
}

#[test]
fn crate_hygiene_ok_fixture() {
    let source = fixture("crate_hygiene_ok.rs");
    let outcome = analyze_source(
        "crate_hygiene_ok.rs",
        &source,
        &FileClass { crate_root: true, ..Default::default() },
    );
    assert!(outcome.findings.is_empty(), "both attributes present: {:?}", outcome.findings);
}

#[test]
fn hot_path_alloc_fixture() {
    let outcome = run_fixture("hot_path_alloc.rs", FileClass::default());
    assert_eq!(outcome.suppressed, 1, "the warm-up buffer waiver suppresses once");
}

#[test]
fn hot_path_alloc_needs_a_marker() {
    // Strip the marker and the whole file goes cold: no hot set, no rule.
    let source = fixture("hot_path_alloc.rs").replace("// analyzer:hot-path", "");
    let outcome = analyze_source("hot_path_alloc.rs", &source, &FileClass::default());
    assert!(
        outcome.findings.iter().all(|f| f.rule != "hot-path-alloc"),
        "without a hot-path marker nothing is hot: {:?}",
        outcome.findings
    );
}

#[test]
fn float_reduction_fixture() {
    run_fixture("float_reduction.rs", FileClass { reduction_crate: true, ..Default::default() });
}

#[test]
fn float_reduction_is_scoped_to_reduction_crates() {
    let source = fixture("float_reduction.rs");
    let outcome = analyze_source("float_reduction.rs", &source, &FileClass::default());
    assert!(
        outcome.findings.iter().all(|f| f.rule != "float-reduction-order"),
        "the rule only applies to linalg/density: {:?}",
        outcome.findings
    );
}

#[test]
fn blocking_in_worker_fixture() {
    let outcome = run_fixture(
        "blocking_in_worker.rs",
        FileClass { engine_crate: true, ..Default::default() },
    );
    assert_eq!(outcome.suppressed, 1, "the per-job slot waiver suppresses once");
}

#[test]
fn worker_entries_are_exactly_the_pool_functions_taking_a_worker_closure() {
    // A pool entry point missing from WORKER_ENTRIES is a closure region the
    // rule never scans: derive the list from the pool's own signatures.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../engine/src/pool.rs");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let toks = lex(&source).tokens;
    let mut takers = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "fn" {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let takes_closure = toks[i + 2..]
            .iter()
            .take_while(|s| !s.is_punct("{") && !s.is_punct(";"))
            .any(|s| matches!(s.text.as_str(), "Fn" | "FnMut" | "FnOnce"));
        if takes_closure {
            takers.push(name.text.as_str());
        }
    }
    takers.sort_unstable();
    let mut listed = WORKER_ENTRIES.to_vec();
    listed.sort_unstable();
    assert_eq!(takers, listed, "WORKER_ENTRIES must name exactly the pool's closure-taking fns");

    // Every entry point is exercised by the fixture.
    let fixture_source = fixture("blocking_in_worker.rs");
    for name in WORKER_ENTRIES {
        assert!(
            fixture_source.contains(&format!("    {name}(")),
            "blocking_in_worker.rs has no call to `{name}`"
        );
    }
}

#[test]
fn blocking_rule_is_waived_in_pool_internals() {
    // pool.rs owns the run-queue lock and condvar: the rule is off there.
    let source = fixture("blocking_in_worker.rs");
    let outcome = analyze_source(
        "blocking_in_worker.rs",
        &source,
        &FileClass { engine_crate: true, worker_pool: true, ..Default::default() },
    );
    assert!(
        outcome.findings.iter().all(|f| f.rule != "blocking-in-worker"),
        "pool internals are sanctioned: {:?}",
        outcome.findings
    );
}

#[test]
fn unsafe_audit_fixture() {
    run_fixture("unsafe_audit.rs", FileClass::default());
}

#[test]
fn unsafe_without_test_region_reports_the_missing_cross_check() {
    let source = "pub fn f(p: *const u8) -> u8 {\n    \
                  // analyzer:unsafe(invariant): p is valid for one read\n    \
                  unsafe { *p }\n}\n";
    let outcome = analyze_source("no_tests.rs", source, &FileClass::default());
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.render()).collect();
    assert_eq!(outcome.findings.len(), 1, "justified, but no cross-check: {rendered:?}");
    assert!(rendered[0].contains("cfg(test)"), "{rendered:?}");
}

#[test]
fn stale_allow_fixture() {
    let outcome = run_fixture("stale_allow.rs", FileClass { lib_crate: true, ..Default::default() });
    assert_eq!(outcome.suppressed, 1, "the live waiver still suppresses");
}

#[test]
fn telemetry_key_fixture() {
    let source = fixture("telemetry_key.rs");
    let registry = KeyRegistry::parse("fixture.jobs_done\nfixture.pool_*\n");
    let ctx = CheckContext { registry: Some(&registry), ..Default::default() };
    let outcome = analyze_source_with("telemetry_key.rs", &source, &FileClass::default(), &ctx);
    let expected = expected_findings(&source);
    assert_eq!(
        actual_findings(&outcome),
        expected,
        "rendered:\n{}",
        outcome.findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn telemetry_key_rule_is_off_without_a_registry() {
    let source = fixture("telemetry_key.rs");
    let outcome = analyze_source("telemetry_key.rs", &source, &FileClass::default());
    assert!(
        outcome.findings.iter().all(|f| f.rule != "telemetry-key-registry"),
        "no registry in context means the rule cannot judge keys: {:?}",
        outcome.findings
    );
}

#[test]
fn checked_in_registry_parses_and_covers_the_engine_counters() {
    // The same keys.txt that faction_telemetry embeds via include_str!
    // (this crate stays dependency-free, so it reads the file directly).
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../telemetry/keys.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let registry = KeyRegistry::parse(&text);
    assert!(!registry.is_empty());
    for key in ["engine.pool.park_waits", "engine.pool.chaos_forced_requeues", "core.runner.rounds"] {
        assert!(registry.matches(key), "`{key}` missing from the embedded registry");
    }
    assert!(registry.matches("core.fairness.labeled_y1_s0"), "wildcard family");
    assert!(!registry.matches("engine.pool.park_wait"), "near-miss keys must not match");
}

#[test]
fn workspace_self_scan_is_clean() {
    // The gate's bottom line: the workspace this analyzer ships in passes
    // its own scan with zero findings. CARGO_MANIFEST_DIR is
    // crates/analyzer, so the workspace root is two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace(&root).expect("workspace scan succeeds");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(rendered.is_empty(), "workspace must self-scan clean:\n{}", rendered.join("\n"));
    assert!(report.files_scanned > 50, "scan should cover the whole workspace");
}
