//! Aggregated scan results and their text rendering.

use crate::rules::Finding;

/// Result of scanning a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by valid `analyzer:allow` comments.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into the canonical (file, line, rule) order.
    pub fn finalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// One `file:line:rule: message` line per finding.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&f.render());
            s.push('\n');
        }
        s
    }
}
