//! The telemetry key registry: the checked-in list every literal
//! `faction-telemetry` key must appear in.
//!
//! DESIGN.md documents the telemetry key table; nothing kept it honest — a
//! key typo'd at a call site (`engine.pool.park_wait` vs `….park_waits`) silently
//! splits a metric in two. The registry closes the loop: the file
//! `crates/telemetry/keys.txt` lists every sanctioned key (one per line,
//! `#` comments, a trailing `*` makes an entry a prefix wildcard for
//! dynamically-formatted families like `core.fairness.labeled_*`), the
//! telemetry crate embeds it via `include_str!` so it ships with the
//! library, and the `telemetry-key-registry` rule flags any literal key
//! string passed to a recording call that the registry does not match.
//! Dynamically built keys (`format!` arguments) are out of the rule's
//! reach and rely on a wildcard entry plus review.

use std::path::Path;

/// Workspace-relative path of the registry file.
pub const REGISTRY_PATH: &str = "crates/telemetry/keys.txt";

/// The parsed registry: exact keys and `*`-suffixed prefixes.
#[derive(Debug, Default, Clone)]
pub struct KeyRegistry {
    exact: Vec<String>,
    prefixes: Vec<String>,
}

impl KeyRegistry {
    /// Parses registry text: one entry per line, `#` starts a comment,
    /// blank lines ignored, a trailing `*` turns the entry into a prefix.
    pub fn parse(text: &str) -> KeyRegistry {
        let mut registry = KeyRegistry::default();
        for line in text.lines() {
            let entry = line.split('#').next().unwrap_or("").trim();
            if entry.is_empty() {
                continue;
            }
            match entry.strip_suffix('*') {
                Some(prefix) => registry.prefixes.push(prefix.to_string()),
                None => registry.exact.push(entry.to_string()),
            }
        }
        registry
    }

    /// Loads the registry from the workspace rooted at `root`; `None` when
    /// the file is absent (which the workspace scan reports as a finding).
    pub fn load(root: &Path) -> Option<KeyRegistry> {
        let text = std::fs::read_to_string(root.join(REGISTRY_PATH)).ok()?;
        Some(KeyRegistry::parse(&text))
    }

    /// Whether `key` is sanctioned (exact entry or wildcard prefix).
    pub fn matches(&self, key: &str) -> bool {
        self.exact.iter().any(|e| e == key) || self.prefixes.iter().any(|p| key.starts_with(p.as_str()))
    }

    /// Number of entries (exact + wildcard).
    pub fn len(&self) -> usize {
        self.exact.len() + self.prefixes.len()
    }

    /// True when the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.prefixes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_wildcards() {
        let r = KeyRegistry::parse(
            "# pool counters\nengine.pool.steals\n\nengine.pool.park_waits # condvar\ncore.fairness.labeled_*\n",
        );
        assert_eq!(r.len(), 3);
        assert!(r.matches("engine.pool.steals"));
        assert!(r.matches("engine.pool.park_waits"));
        assert!(r.matches("core.fairness.labeled_y0_s1"), "wildcard prefix matches");
        assert!(!r.matches("engine.pool.steal"), "near-miss keys stay unmatched");
        assert!(!r.matches("core.fairness"), "prefix must actually prefix");
    }

    #[test]
    fn empty_registry_matches_nothing() {
        let r = KeyRegistry::parse("# only comments\n");
        assert!(r.is_empty());
        assert!(!r.matches("engine.pool.steals"));
    }
}
