//! Process-level check of the harness usage-error contract: a bad command
//! line exits with code 2 and an error naming the flag, before any
//! experiment work starts.

use std::process::Command;

#[test]
fn malformed_flag_exits_2_naming_it() {
    for (args, flag) in [(["--seeds", "five"], "--seeds"), (["--quick", "--jobs"], "--jobs")] {
        let out = Command::new(env!("CARGO_BIN_EXE_theory_bounds"))
            .args(args)
            .output()
            .expect("theory_bounds binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        let first_line = stderr.lines().next().unwrap_or_default();
        assert!(
            first_line.starts_with("error:") && first_line.contains(flag),
            "{args:?}: error line does not name {flag}: {first_line:?}"
        );
    }
}
