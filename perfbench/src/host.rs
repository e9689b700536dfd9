//! Host facts recorded with every result, and process memory.

use std::path::Path;

/// Worker threads the workloads use: two, or fewer on a smaller host. A
/// one-core host runs one worker and reports its busy share as measured.
pub fn workers() -> usize {
    nproc().min(2)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit the checkout was taken from, read from `.git` when the
/// checkout is a git work tree (no subprocess); `unknown` otherwise.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    // Packed refs: `<hash> <ref>` lines.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line of host facts: thread count, SIMD availability, the resolved
/// GEMM backend and the commit.
pub fn facts(root: &Path) -> String {
    format!(
        "host: nproc={} workers={} simd_avx2={} kernel_backend={} commit={}",
        nproc(),
        workers(),
        faction_linalg::dispatch::simd_available(),
        faction_linalg::dispatch::active_backend(),
        commit(root)
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
