//! CLI for the project lint gate.
//!
//! ```text
//! faction-analyzer [--root DIR]
//! ```
//!
//! Scans the workspace at `--root` (default: the current directory),
//! prints findings as `file:line:rule: message` lines, and exits nonzero
//! when anything is flagged.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("faction-analyzer: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: faction-analyzer [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("faction-analyzer: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let report = match faction_analyzer::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("faction-analyzer: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_text());
    eprintln!(
        "faction-analyzer: {} finding(s), {} suppressed, {} files scanned",
        report.findings.len(),
        report.suppressed,
        report.files_scanned
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
