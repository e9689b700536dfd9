//! Workspace discovery: which files to scan and how to classify them.
//!
//! The scan set is the project's own source: the root crate (`src/`) and
//! every crate under `crates/*/src/` **except** `crates/compat/*` — those
//! are vendored API stand-ins for external crates (see the workspace
//! `Cargo.toml`), not project code. Integration tests (`tests/`), benches
//! (`benches/`), `examples/`, and fixture directories are never scanned;
//! in-file `#[cfg(test)]` code is handled by [`crate::scope`] instead.
//!
//! Directory entries are sorted before recursion so the scan order — and
//! therefore the analyzer's own output — is deterministic.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::FileClass;

/// The reusable library layers: `telemetry-on-hot-path` applies outside
/// `telemetry` itself, and each crate root carries the library-scope clippy
/// lints (`unwrap_used`, `expect_used`, `panic`, `float_cmp`).
pub const LIB_CRATES: &[&str] = &[
    "linalg", "density", "nn", "fairness", "data", "core", "engine", "serve", "telemetry", "wire",
];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// One file scheduled for scanning.
#[derive(Debug, Clone)]
pub struct ScanItem {
    /// Absolute (or root-joined) path on disk.
    pub path: PathBuf,
    /// Workspace-relative display path (forward slashes).
    pub display: String,
    /// Name of the owning crate (`faction` for the root crate). Files of
    /// one crate form the reachability domain for `hot-path-alloc`.
    pub crate_name: String,
    /// Rule-scope classification.
    pub class: FileClass,
}

/// Enumerates the `.rs` files of the workspace rooted at `root`.
pub fn workspace_files(root: &Path) -> io::Result<Vec<ScanItem>> {
    let mut items = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_crate(&root_src, "src", "faction", &mut items)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut subdirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        for dir in subdirs {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            if name == "compat" {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_crate(&src, &format!("crates/{name}/src"), &name, &mut items)?;
            }
        }
    }
    Ok(items)
}

/// Recursively collects the `.rs` files of one crate's `src/` directory.
fn collect_crate(
    src: &Path,
    display_prefix: &str,
    crate_name: &str,
    items: &mut Vec<ScanItem>,
) -> io::Result<()> {
    walk(src, display_prefix, &mut |path, display| {
        let class = classify(crate_name, display);
        items.push(ScanItem {
            path: path.to_path_buf(),
            display: display.to_string(),
            crate_name: crate_name.to_string(),
            class,
        });
    })
}

fn walk(
    dir: &Path,
    display_prefix: &str,
    visit: &mut dyn FnMut(&Path, &str),
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, &format!("{display_prefix}/{name}"), visit)?;
        } else if name.ends_with(".rs") {
            visit(&path, &format!("{display_prefix}/{name}"));
        }
    }
    Ok(())
}

/// Classifies one file by crate name and workspace-relative path.
pub fn classify(crate_name: &str, display: &str) -> FileClass {
    FileClass {
        lib_crate: LIB_CRATES.contains(&crate_name),
        telemetry_crate: crate_name == "telemetry",
        reduction_crate: crate_name == "linalg" || crate_name == "density",
        engine_crate: crate_name == "engine",
        worker_pool: display.ends_with("engine/src/pool.rs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_assigns_scopes() {
        let c = classify("linalg", "crates/linalg/src/kernels.rs");
        assert!(c.lib_crate && !c.telemetry_crate);
        let c = classify("bench", "crates/bench/src/lib.rs");
        assert!(!c.lib_crate);
        let c = classify("faction", "src/lib.rs");
        assert!(!c.lib_crate);
        let c = classify("analyzer", "crates/analyzer/src/rules.rs");
        assert!(!c.lib_crate);
        let c = classify("engine", "crates/engine/src/pool.rs");
        assert!(c.lib_crate && !c.telemetry_crate, "only the telemetry crate gets the waiver");
        assert!(c.engine_crate && c.worker_pool, "pool internals are the sanctioned waiver");
        let c = classify("telemetry", "crates/telemetry/src/clock.rs");
        assert!(c.lib_crate && c.telemetry_crate);
    }

    #[test]
    fn classify_assigns_v2_scopes() {
        let c = classify("linalg", "crates/linalg/src/kernels.rs");
        assert!(c.reduction_crate && !c.engine_crate && !c.worker_pool);
        let c = classify("density", "crates/density/src/gda.rs");
        assert!(c.reduction_crate, "density reductions feed the scoring contract");
        let c = classify("engine", "crates/engine/src/engine.rs");
        assert!(c.engine_crate && !c.worker_pool, "worker closures outside pool.rs are checked");
        let c = classify("core", "crates/core/src/loop_runner.rs");
        assert!(!c.reduction_crate && !c.engine_crate);
    }
}
