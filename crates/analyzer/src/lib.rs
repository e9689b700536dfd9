//! `faction-analyzer` — the workspace's project lint gate.
//!
//! The reproduction's headline guarantees — bit-identical batched vs.
//! scalar scoring, byte-reproducible experiment JSON — are properties that
//! silently rot as code grows. Generic hazards (hash-ordered containers,
//! wall-clock reads, panics in library code, float equality, truncating
//! casts, unsafe code, missing docs) are rustc and clippy lints configured
//! in the workspace `Cargo.toml`, `clippy.toml` and the crate roots. This
//! crate checks what no compiler lint can see: seven project rules over a
//! hand-rolled token stream (**zero** dependencies, consistent with the
//! workspace's no-external-deps rule). See [`rules`] for the rule table and
//! `DESIGN.md` §7 for the rationale tying each rule to a reproducibility
//! claim.
//!
//! Layering:
//!
//! * [`lexer`] — tokens with correct literal/comment skipping, plus
//!   `// analyzer:allow(<rule>): <reason>` suppression and
//!   `analyzer:hot-path` / `analyzer:ordered` / `analyzer:unsafe(invariant)`
//!   marker parsing;
//! * [`scope`] — `#[cfg(test)]` / `mod tests` exemption tracking plus the
//!   symbol table (`fn` items and bodies, `let` bindings with
//!   mutability/float hints, `use` imports, loop bodies);
//! * [`registry`] — the checked-in telemetry key registry
//!   (`crates/telemetry/keys.txt`);
//! * [`rules`] — the rule suite over one file's token stream;
//! * [`workspace`] — deterministic file discovery and per-file rule scoping;
//! * [`report`] — `file:line:rule: message` text output.
//!
//! The binary (`cargo run -p faction-analyzer [-- --root DIR]`) exits
//! nonzero on any finding. The gate itself is the golden test
//! `workspace_self_scan_is_clean` (`tests/golden.rs`), which the workspace
//! test stage of `scripts/check.sh` runs, so the workspace must self-scan
//! clean.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod lexer;
pub mod registry;
pub mod report;
pub mod rules;
pub mod scope;
pub mod workspace;

use std::fs;
use std::io;
use std::path::Path;

pub use registry::KeyRegistry;
pub use report::Report;
pub use rules::{CheckContext, CheckOutcome, FileClass, Finding};

/// Runs the rule suite over one in-memory source file with default
/// cross-file context: hot-path reachability is computed from this file
/// alone, and the telemetry key rule is off (no registry).
///
/// `display` is the path used in findings; `class` selects which
/// scope-limited rules apply.
pub fn analyze_source(display: &str, source: &str, class: &FileClass) -> CheckOutcome {
    analyze_source_with(display, source, class, &CheckContext::default())
}

/// Runs the rule suite over one in-memory source file with explicit
/// cross-file context (crate-wide hot-fn set, telemetry key registry).
pub fn analyze_source_with(
    display: &str,
    source: &str,
    class: &FileClass,
    ctx: &CheckContext<'_>,
) -> CheckOutcome {
    let mut lexed = lexer::lex(source);
    rules::check_file(display, &mut lexed, class, ctx)
}

/// Scans the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
///
/// Files are lexed once, grouped by crate so `analyzer:hot-path` markers
/// propagate through same-crate calls, and checked against the telemetry
/// key registry at [`registry::REGISTRY_PATH`]. A missing registry file is
/// itself a finding — the rule must not silently disarm.
///
/// # Errors
/// Propagates I/O errors from directory walking or file reads.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let items = workspace::workspace_files(root)?;
    let mut lexed = Vec::with_capacity(items.len());
    for item in &items {
        let source = fs::read_to_string(&item.path)?;
        lexed.push(lexer::lex(&source));
    }

    // Crate-wide hot-fn reachability: one set per crate name.
    let crate_names: std::collections::BTreeSet<&str> =
        items.iter().map(|item| item.crate_name.as_str()).collect();
    let mut hot_by_crate: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
        std::collections::BTreeMap::new();
    for crate_name in crate_names {
        let hot = rules::hot_fn_set(
            items
                .iter()
                .zip(&lexed)
                .filter(|(item, _)| item.crate_name == crate_name)
                .map(|(_, lex)| lex),
        );
        hot_by_crate.insert(crate_name.to_string(), hot);
    }

    let key_registry = KeyRegistry::load(root);
    let mut report = Report::default();
    if key_registry.is_none() {
        report.findings.push(Finding {
            file: registry::REGISTRY_PATH.to_string(),
            line: 1,
            rule: "telemetry-key-registry".to_string(),
            message: "telemetry key registry file is missing; every literal telemetry key \
                      must be listed in it"
                .to_string(),
        });
    }

    for (item, mut lex) in items.iter().zip(lexed) {
        let ctx = CheckContext {
            hot_fns: hot_by_crate.get(&item.crate_name),
            registry: key_registry.as_ref(),
        };
        let outcome = rules::check_file(&item.display, &mut lex, &item.class, &ctx);
        report.findings.extend(outcome.findings);
        report.suppressed += outcome.suppressed;
        report.files_scanned += 1;
    }
    report.finalize();
    Ok(report)
}
