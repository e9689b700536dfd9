//! Process-level check of the harness usage-error contract: a bad command
//! line exits with code 2 and an error naming the flag, before any
//! experiment work starts.

use std::process::Command;

/// Every harness binary, by its Cargo-provided path.
const HARNESSES: &[(&str, &str)] = &[
    ("fig2_curves", env!("CARGO_BIN_EXE_fig2_curves")),
    ("fig3_tradeoff", env!("CARGO_BIN_EXE_fig3_tradeoff")),
    ("fig4_ablation", env!("CARGO_BIN_EXE_fig4_ablation")),
    ("fig5_runtime", env!("CARGO_BIN_EXE_fig5_runtime")),
    ("fig6_wide", env!("CARGO_BIN_EXE_fig6_wide")),
    ("table1_nysf", env!("CARGO_BIN_EXE_table1_nysf")),
    ("theory_bounds", env!("CARGO_BIN_EXE_theory_bounds")),
];

/// Runs `binary` with `args` and asserts the usage-error contract: exit 2,
/// a first stderr line `error: …` naming `flag`, and nothing on stdout
/// (no experiment ran). Returns the full stderr.
fn assert_usage_error(name: &str, binary: &str, args: &[&str], flag: &str) -> String {
    let out = Command::new(binary).args(args).output().expect("harness binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: stderr:\n{stderr}");
    let first_line = stderr.lines().next().unwrap_or_default();
    assert!(
        first_line.starts_with("error:") && first_line.contains(flag),
        "{name} {args:?}: error line does not name {flag}: {first_line:?}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?}: work started before the usage error");
    stderr
}

#[test]
fn malformed_flag_exits_2_naming_it() {
    for &(name, binary) in HARNESSES {
        for (args, flag) in [
            (&["--seeds", "five"][..], "--seeds"),
            (&["--quick", "--jobs"], "--jobs"),
            (&["--bogus"], "--bogus"),
            (&["--pool-policy", "reservoir:8"], "--pool-policy"),
        ] {
            assert_usage_error(name, binary, args, flag);
        }
    }
}

#[test]
fn fig4_extended_is_a_positional_not_a_flag() {
    let stderr = assert_usage_error(
        "fig4_ablation",
        env!("CARGO_BIN_EXE_fig4_ablation"),
        &["--extended"],
        "--extended",
    );
    assert!(
        stderr.lines().any(|l| l.contains("fig4_ablation") && l.contains("`extended`")),
        "usage text must list fig4's positional `extended`:\n{stderr}"
    );
}
