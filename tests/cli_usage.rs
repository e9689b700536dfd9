//! Process-level checks of the `faction_cli` usage-error contract: a bad
//! command line exits with code 2 and a message naming the offending flag,
//! before any experiment work starts.

use std::process::Command;

/// Runs the CLI with `args` and returns `(exit code, stderr)`.
fn run_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_faction_cli"))
        .args(args)
        .output()
        .expect("faction_cli binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let (code, stderr) = run_cli(args);
    assert_eq!(code, Some(2), "{args:?}: expected usage exit 2, stderr:\n{stderr}");
    let first_line = stderr.lines().next().unwrap_or_default();
    assert!(
        first_line.starts_with("error:") && first_line.contains(flag),
        "{args:?}: error line does not name {flag}: {first_line:?}"
    );
}

#[test]
fn kernel_backend_is_an_unknown_flag_on_every_command() {
    for command in ["run", "grid", "serve"] {
        assert_usage_error(&[command, "--quick", "--kernel-backend", "simd"], "--kernel-backend");
    }
}

#[test]
fn malformed_pool_policy_names_the_flag() {
    assert_usage_error(
        &["run", "--dataset", "RCMNIST", "--quick", "--pool-policy", "window:lots"],
        "--pool-policy",
    );
}

#[test]
fn malformed_jobs_names_the_flag() {
    assert_usage_error(&["run", "--dataset", "RCMNIST", "--quick", "--jobs", "many"], "--jobs");
}
