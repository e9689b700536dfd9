//! Golden tests for the rule suite.
//!
//! Each fixture under `tests/fixtures/` is a plain data file (never
//! compiled) carrying trailing `//~ <rule>` markers on every line where a
//! finding is expected — the rustc-UI-test convention, so the expectations
//! move with the code when lines shift. The harness lexes the fixture
//! through [`faction_analyzer::analyze_source`] with the `FileClass` the
//! fixture documents, then compares the sorted `(line, rule)` multiset of
//! findings against the markers.
//!
//! The hazards of the retired rules live in `tests/clippy_fixture/`, a
//! crate that clippy lints under the workspace's lint configuration; see
//! [`retired_rules_are_rejected_by_clippy`].

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use faction_analyzer::lexer::{lex, TokKind};
use faction_analyzer::rules::WORKER_ENTRIES;
use faction_analyzer::workspace::{workspace_files, LIB_CRATES};
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
fn suppression_fixture() {
    let outcome = run_fixture("suppression.rs", FileClass { lib_crate: true, ..Default::default() });
    assert_eq!(outcome.suppressed, 2, "same-line and line-above allows each suppress once");
}

#[test]
fn cfg_test_exemption_fixture() {
    run_fixture("cfg_test_exempt.rs", FileClass { lib_crate: true, ..Default::default() });
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
    // its own scan with zero findings.
    let root = workspace_root();
    let report = analyze_workspace(&root).expect("workspace scan succeeds");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(rendered.is_empty(), "workspace must self-scan clean:\n{}", rendered.join("\n"));
    assert!(report.files_scanned > 50, "scan should cover the whole workspace");
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/analyzer`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The lint line every library crate root carries.
const LIB_ROOT_LINTS: &str =
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
     clippy::float_cmp))]";

/// The lint line every other scanned crate root (libraries and binaries)
/// carries.
const ROOT_LINTS: &str = "#![cfg_attr(not(test), deny(clippy::float_cmp))]";

/// The first inner attribute of every cast-audited file.
const CAST_LINTS: &str = "#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]";

/// The numeric hot paths: GEMM and GDA kernels, and the wire codec's
/// varint/zigzag and CRC loops.
const CAST_AUDITED: &[&str] = &[
    "crates/linalg/src/cholesky.rs",
    "crates/linalg/src/kernels.rs",
    "crates/linalg/src/simd.rs",
    "crates/wire/src/codec.rs",
    "crates/wire/src/crc.rs",
];

/// `source` with all whitespace removed, so the attribute checks below
/// hold however a formatter wraps the attributes.
fn squash(source: &str) -> String {
    source.split_whitespace().collect()
}

/// The body of the TOML table headed `header`, up to the next table.
fn toml_table<'a>(manifest: &'a str, header: &str) -> &'a str {
    let line = format!("{header}\n");
    let at = if manifest.starts_with(&line) {
        Some(0)
    } else {
        manifest.find(&format!("\n{line}")).map(|i| i + 1)
    };
    let start = at.unwrap_or_else(|| panic!("no `{header}` table")) + line.len();
    let rest = &manifest[start..];
    rest[..rest.find("\n[").map_or(rest.len(), |end| end + 1)].trim_end()
}

fn field<'a>(value: &'a serde_json::Value, name: &str) -> Option<&'a serde_json::Value> {
    value.as_object()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn text(value: Option<&serde_json::Value>) -> Option<&str> {
    match value {
        Some(serde_json::Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Lints the clippy fixture and returns every diagnostic as a
/// `(file, line, lint)` triple at its primary span.
fn clippy_diagnostics(root: &Path, fixture: &Path) -> BTreeSet<(String, u32, String)> {
    // A target directory of its own, so this never waits on the lock of the
    // build running the test.
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--all-targets", "--keep-going", "--message-format=json"])
        .arg("--manifest-path")
        .arg(fixture.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", root.join("target/clippy-fixture"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut finished = false;
    let mut found = BTreeSet::new();
    for line in stdout.lines() {
        let msg = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("cargo printed a non-JSON line ({e}): {line}"));
        match text(field(&msg, "reason")) {
            Some("build-finished") => finished = true,
            Some("compiler-message") => {}
            _ => continue,
        }
        let Some(diag) = field(&msg, "message") else { continue };
        let Some(lint) = field(diag, "code").and_then(|c| text(field(c, "code"))) else {
            continue; // summaries such as "aborting due to N previous errors"
        };
        let Some(serde_json::Value::Array(spans)) = field(diag, "spans") else { continue };
        for span in spans {
            if field(span, "is_primary") != Some(&serde_json::Value::Bool(true)) {
                continue;
            }
            let file = text(field(span, "file_name")).expect("span names its file");
            let line = match field(span, "line_start") {
                Some(serde_json::Value::Int(n)) => u32::try_from(*n).expect("positive line"),
                other => panic!("span without a line: {other:?}"),
            };
            found.insert((file.to_string(), line, lint.to_string()));
        }
    }
    assert!(finished && !found.is_empty(), "clippy did not lint the fixture:\n{stderr}");
    found
}

#[test]
fn retired_rules_are_rejected_by_clippy() {
    // Six analyzer rules moved to rustc and clippy lints. This proves each
    // hazard they caught is still rejected, and that the lint settings the
    // fixture exercises are the ones the workspace actually carries.
    let root = workspace_root();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy_fixture");

    // 1. Every hazard marker, and nothing else, is a diagnostic.
    let src = fixture.join("src");
    let mut expected = BTreeSet::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
        .expect("fixture sources")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    for path in &files {
        let name = format!("src/{}", path.file_name().and_then(|n| n.to_str()).expect("utf-8"));
        for (line, lint) in expected_findings(&read(path)) {
            expected.insert((name.clone(), line, lint));
        }
    }
    let actual = clippy_diagnostics(&root, &fixture);
    let missing: Vec<_> = expected.difference(&actual).collect();
    let unexpected: Vec<_> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "clippy diagnostics diverge from the fixture's //~ markers\n\
         marked but not reported: {missing:#?}\nreported but not marked: {unexpected:#?}"
    );

    // 2. The fixture's lint tables are the workspace's, verbatim.
    let workspace = read(&root.join("Cargo.toml"));
    let fixture_manifest = read(&fixture.join("Cargo.toml"));
    for kind in ["rust", "clippy"] {
        assert_eq!(
            toml_table(&fixture_manifest, &format!("[lints.{kind}]")),
            toml_table(&workspace, &format!("[workspace.lints.{kind}]")),
            "the fixture's [lints.{kind}] must copy [workspace.lints.{kind}]"
        );
    }

    // 3. The root package and every non-compat member inherit them.
    let table = toml_table(&workspace, "[workspace]");
    let members = table.split_once("members = [").and_then(|(_, m)| m.split_once(']'));
    let members = members.expect("a workspace members list").0;
    let mut manifests = vec![root.join("Cargo.toml")];
    for member in members.split('"').skip(1).step_by(2) {
        if !member.starts_with("crates/compat/") {
            manifests.push(root.join(member).join("Cargo.toml"));
        }
    }
    assert_eq!(manifests.len(), 13, "the root package and 12 project members");
    for manifest in &manifests {
        assert_eq!(
            toml_table(&read(manifest), "[lints]"),
            "workspace = true",
            "{} must inherit the workspace lints",
            manifest.display()
        );
    }

    // 4. Every scanned crate root carries its lint line; the fixture's root
    // carries the library one.
    assert!(squash(&read(&src.join("lib.rs"))).contains(&squash(LIB_ROOT_LINTS)));
    let mut lib_roots = 0;
    for item in workspace_files(&root).expect("workspace scan") {
        let d = &item.display;
        if !(d.ends_with("src/lib.rs") || d.ends_with("src/main.rs") || d.contains("src/bin/")) {
            continue;
        }
        let want = if item.class.lib_crate { LIB_ROOT_LINTS } else { ROOT_LINTS };
        lib_roots += usize::from(item.class.lib_crate);
        assert!(squash(&read(&item.path)).contains(&squash(want)), "{d} must carry `{want}`");
    }
    assert_eq!(lib_roots, LIB_CRATES.len(), "every library crate root was checked");

    // 5. The cast-audited files open with the fixture's cast attribute.
    let cast_lints = squash(CAST_LINTS);
    assert!(squash(&read(&src.join("lossy_cast.rs"))).contains(&cast_lints));
    for file in CAST_AUDITED {
        let source = squash(&read(&root.join(file)));
        let at = source.find(&cast_lints);
        assert!(
            at.is_some() && at == source.find("#!["),
            "{file} must open with the cast lints as its first inner attribute"
        );
    }
}
