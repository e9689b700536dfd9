//! The lint configuration rejects every hazard it exists for.
//!
//! Seven project rules are enforced by rustc and clippy lints configured in
//! the workspace `Cargo.toml`, `clippy.toml` and the crate roots. Their
//! hazards live in `tests/clippy_fixture/`, a crate that clippy lints under
//! the workspace's lint configuration; each line a lint must reject carries
//! a trailing `//~ <lint>` marker (the rustc-UI-test convention, so the
//! expectations move with the code when lines shift). See
//! [`retired_rules_are_rejected_by_clippy`].

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

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

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The reusable library layers: each crate root carries the library-scope
/// clippy lints (`unwrap_used`, `expect_used`, `panic`, `float_cmp`).
const LIB_CRATES: &[&str] = &[
    "linalg", "density", "nn", "fairness", "data", "core", "engine", "serve", "telemetry", "wire",
];

/// Every crate root of the project, with whether it is a library crate's:
/// `src/lib.rs`, `src/main.rs` and `src/bin/*.rs` of the root package and
/// of each member under `crates/` (the `compat` stand-ins excepted).
fn crate_roots(root: &Path) -> Vec<(PathBuf, bool)> {
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir() && !p.ends_with("compat"))
        .collect();
    members.sort();
    let mut roots = Vec::new();
    for dir in std::iter::once(root.to_path_buf()).chain(members) {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let lib_crate = dir != root && LIB_CRATES.contains(&name);
        let src = dir.join("src");
        let mut files: Vec<PathBuf> = std::fs::read_dir(src.join("bin"))
            .map(|bins| bins.map(|e| e.expect("entry").path()).collect())
            .unwrap_or_default();
        files.sort();
        files.extend(["lib.rs", "main.rs"].map(|f| src.join(f)));
        roots.extend(
            files
                .into_iter()
                .filter(|f| f.is_file() && f.extension().is_some_and(|e| e == "rs"))
                .map(|f| (f, lib_crate)),
        );
    }
    roots
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
    // Seven analyzer rules moved to rustc and clippy lints. This proves each
    // hazard they caught is still rejected, and that the lint settings the
    // fixture exercises are the ones the workspace actually carries.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = root.join("tests/clippy_fixture");

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
    let actual = clippy_diagnostics(root, &fixture);
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
    assert_eq!(manifests.len(), 12, "the root package and 11 project members");
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
    for (path, lib_crate) in crate_roots(root) {
        let want = if lib_crate { LIB_ROOT_LINTS } else { ROOT_LINTS };
        lib_roots += usize::from(lib_crate);
        let d = path.strip_prefix(root).unwrap_or(&path).display();
        assert!(squash(&read(&path)).contains(&squash(want)), "{d} must carry `{want}`");
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
