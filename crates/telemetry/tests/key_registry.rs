//! Every literal telemetry key in the project's source is registered.
//!
//! A key typo'd at a call site (`engine.pool.park_wait` for
//! `engine.pool.park_waits`) would silently split a metric in two. This
//! test reads the library and binary sources (`src/` and `crates/*/src/`;
//! the `crates/compat/` stand-ins are not project code), finds every call
//! to a key-taking telemetry function or snapshot reader whose first
//! argument is a string literal, and matches that literal against
//! [`faction_telemetry::KEY_REGISTRY`]: an exact entry, or an entry ending
//! in `*` that prefixes it. Keys built at run time (`&format!(…)`) are out
//! of reach and rely on a wildcard entry. Test modules and comments are
//! skipped: their keys are scratch names.

use std::path::{Path, PathBuf};

/// The functions and methods whose first argument is a telemetry key: the
/// recording calls, then the [`faction_telemetry::Snapshot`] readers.
const KEY_CALLS: [&str; 8] = [
    "counter_add",
    "gauge_set",
    "observe",
    "observe_duration",
    "span",
    "counter",
    "gauge",
    "histogram",
];

/// The registry's exact keys and wildcard prefixes.
fn registry() -> (Vec<&'static str>, Vec<&'static str>) {
    let (mut exact, mut prefixes) = (Vec::new(), Vec::new());
    for line in faction_telemetry::KEY_REGISTRY.lines() {
        let entry = line.split('#').next().unwrap_or("").trim();
        match entry.strip_suffix('*') {
            _ if entry.is_empty() => {}
            Some(prefix) => prefixes.push(prefix),
            None => exact.push(entry),
        }
    }
    (exact, prefixes)
}

/// The `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The project's source files: the root package's and every non-compat
/// member's `src/` tree.
fn project_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src").is_dir() && !p.ends_with("compat"))
        .collect();
    crates.sort();
    for dir in crates {
        rust_files(&dir.join("src"), &mut files);
    }
    files
}

/// `source` without comment lines and without `#[cfg(test)]` modules: a
/// test module runs from its `mod` line to the first unindented `}`.
fn non_test_code(source: &str) -> String {
    let mut code = String::new();
    let mut in_test_module = false;
    let mut lines = source.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]"
            && lines.peek().is_some_and(|next| next.trim_start().starts_with("mod "))
        {
            in_test_module = true;
        }
        if !in_test_module && !line.trim_start().starts_with("//") {
            code.push_str(line);
        }
        in_test_module &= line != "}";
        code.push('\n');
    }
    code
}

/// `(line of the call, key)` for every key call in `code` whose first
/// argument is a string literal.
fn literal_keys(code: &str) -> Vec<(usize, String)> {
    let mut keys = Vec::new();
    for name in KEY_CALLS {
        let call = format!("{name}(");
        for (at, _) in code.match_indices(&call) {
            let joined = code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
            let literal = code[at + call.len()..].trim_start().strip_prefix('"');
            if let (false, Some(literal)) = (joined, literal) {
                let key = literal.split('"').next().unwrap_or("");
                keys.push((code[..at].matches('\n').count() + 1, key.to_string()));
            }
        }
    }
    keys
}

#[test]
fn every_literal_telemetry_key_is_registered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (exact, prefixes) = registry();
    let registered =
        |key: &str| exact.contains(&key) || prefixes.iter().any(|p| key.starts_with(p));
    let (mut checked, mut unregistered) = (0, Vec::new());
    for path in project_sources(&root) {
        let source = std::fs::read_to_string(&path).expect("readable source");
        for (line, key) in literal_keys(&non_test_code(&source)) {
            checked += 1;
            if !registered(&key) {
                let shown = path.strip_prefix(&root).unwrap_or(&path).display().to_string();
                unregistered.push(format!("{shown}:{line}: `{key}`"));
            }
        }
    }
    assert!(
        unregistered.is_empty(),
        "telemetry keys missing from crates/telemetry/keys.txt \
         (register them or fix the typo):\n{}",
        unregistered.join("\n")
    );
    assert!(checked > 50, "the scan found only {checked} literal keys");
}

#[test]
fn the_matcher_finds_literal_keys_and_skips_the_rest() {
    let source = r#"fn f() {
    counter_add("a.b", 1);
    h.observe(
        "c.d",
        2,
    );
    // span("in.a.comment")
    my_counter("not.a.key");
    gauge_set(&format!("x.{i}"), 3);
}
#[cfg(test)]
mod tests {
    fn g() {
        counter_add("scratch.key", 1);
    }
}
"#;
    let keys = literal_keys(&non_test_code(source));
    assert_eq!(keys, [(2, "a.b".to_string()), (3, "c.d".to_string())]);
}
