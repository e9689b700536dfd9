//! Process-level checks of the `faction_cli` contracts: a bad command line
//! exits with code 2 and a message naming the offending flag or argument,
//! before any experiment work starts; `inspect` prints exactly the JSON the
//! typed value renders to, and refuses untrusted input with exit 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use faction::core::checkpoint::{CheckpointError, RunCheckpoint};
use faction::core::session::{OnlineSession, SessionSnapshot};
use faction::engine::Journal;
use faction::prelude::*;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faction_cli"))
        .args(args)
        .output()
        .expect("faction_cli binary runs")
}

/// Runs the CLI with `args` and returns `(exit code, stderr)`.
fn run_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = cli(args);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// `inspect`'s stdout for `path`, asserting a clean exit.
fn inspect(path: &Path) -> String {
    let out = cli(&["inspect", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// A fresh per-test scratch directory.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faction_cli_{test}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small learner snapshot: warm-started on real data, opened on its
/// first task.
fn snapshot() -> SessionSnapshot {
    let stream = Dataset::Nysf.stream(0, Scale::Quick);
    let cfg = ExperimentConfig::quick();
    let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
    let strategy = faction::core::strategies::Random;
    let mut session =
        OnlineSession::new(&arch, &cfg, 0, stream.num_classes, strategy.training_loss());
    session.warm_start(&stream.tasks[0]);
    session.begin_task(&stream.tasks[0]);
    session.snapshot(&strategy)
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
    for retired in [&["--kernel-backend", "simd"][..], &["--debug-export"][..]] {
        for command in ["run", "grid", "serve"] {
            let args: Vec<&str> = [command, "--quick"].iter().chain(retired).copied().collect();
            assert_usage_error(&args, retired[0]);
        }
    }
}

#[test]
fn list_names_the_resolved_kernel_backend() {
    // The last line is the GEMM backend feature detection resolved in the
    // CLI process — what this host's tests and runs dispatch to.
    let out = cli(&["list"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let want = format!("kernel backend: {}", faction::linalg::KernelBackend::detect());
    assert_eq!(stdout.lines().last(), Some(want.as_str()), "{stdout}");
}

#[test]
fn stray_positional_arguments_are_usage_errors() {
    assert_usage_error(&["run", "--dataset", "NYSF", "--quick", "stray"], "'stray'");
    assert_usage_error(&["grid", "--quick", "stray"], "'stray'");
    assert_usage_error(&["serve", "stray", "--workload", "w.txt"], "'stray'");
    assert_usage_error(&["drift", "--quick", "stray"], "'stray'");
    assert_usage_error(&["stats", "stray"], "'stray'");
    assert_usage_error(&["list", "stray"], "'stray'");
    assert_usage_error(&["inspect"], "'inspect'");
    assert_usage_error(&["inspect", "a.wire", "b.wire"], "'b.wire'");
    assert_usage_error(&["inspect", "a.wire", "--quick"], "--quick");
}

#[test]
fn inspect_prints_the_json_of_every_artifact_byte_for_byte() {
    let dir = scratch_dir("inspect_json");

    let path = dir.join("session.wire");
    snapshot().save(&path).unwrap();
    let loaded = SessionSnapshot::load(&path).unwrap();
    assert_eq!(inspect(&path), serde_json::to_string_pretty(&loaded).unwrap() + "\n");

    // A run checkpoint and a streamed journal, as a grid writes them.
    let checkpoints = dir.join("ck");
    let journal = dir.join("grid.journal");
    let (code, stderr) = run_cli(&[
        "grid",
        "--datasets",
        "NYSF",
        "--strategies",
        "random",
        "--seeds",
        "1",
        "--quick",
        "--checkpoint-dir",
        checkpoints.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let path = checkpoints.join("NYSF-random-s0.run.wire");
    let loaded = RunCheckpoint::load(&path).unwrap();
    assert_eq!(inspect(&path), serde_json::to_string_pretty(&loaded).unwrap() + "\n");

    let replay = Journal::replay(&journal).unwrap();
    let summary = replay.summary.expect("a finished grid journals its summary");
    let mut lines: Vec<String> =
        replay.events.iter().map(|e| serde_json::to_string(e).unwrap()).collect();
    lines.push(serde_json::to_string(&summary).unwrap());
    assert_eq!(inspect(&journal), lines.join("\n") + "\n");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_refuses_untrusted_input_naming_the_file_and_the_wire_error() {
    let dir = scratch_dir("inspect_untrusted");
    let snapshot = snapshot();
    let valid = dir.join("valid.wire");
    snapshot.save(&valid).unwrap();
    let bytes = std::fs::read(&valid).unwrap();

    let mut unknown_kind = bytes[..12].to_vec();
    unknown_kind[6] = 0xFF;
    let mut flipped = bytes.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    let json = serde_json::to_string_pretty(&snapshot).unwrap().into_bytes();
    let cases: [(&str, Vec<u8>, &str); 4] = [
        ("snapshot.json", json, "bad magic"),
        ("short.wire", bytes[..11].to_vec(), "too short"),
        ("unknown.wire", unknown_kind, "unknown payload kind 255"),
        ("flipped.wire", flipped, "CRC mismatch"),
    ];
    for (name, contents, wire_error) in cases {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let (code, stderr) = run_cli(&["inspect", path.to_str().unwrap()]);
        assert_eq!(code, Some(1), "{name}: expected exit 1, stderr:\n{stderr}");
        let first_line = stderr.lines().next().unwrap_or_default();
        assert!(
            first_line.starts_with("error:")
                && first_line.contains(path.to_str().unwrap())
                && first_line.contains(wire_error),
            "{name}: error line does not name the file and `{wire_error}`: {first_line:?}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_kind_1_is_unknown_to_every_reader() {
    // Kind code 1 was the learner checkpoint that `SessionSnapshot`
    // superseded. The code stays reserved: a container stamped with it is
    // a named unknown kind, never a decode under some other kind.
    let dir = scratch_dir("retired_kind");
    let mut bytes = snapshot().to_wire_bytes();
    bytes[6..8].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(faction_wire::payload_kind(&bytes), Err(faction_wire::WireError::UnknownKind(1)));

    let path = dir.join("learner.wire");
    std::fs::write(&path, &bytes).unwrap();
    let (code, stderr) = run_cli(&["inspect", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "expected exit 1, stderr:\n{stderr}");
    let first_line = stderr.lines().next().unwrap_or_default();
    assert!(
        first_line.starts_with("error:")
            && first_line.contains(path.to_str().unwrap())
            && first_line.contains("unknown payload kind 1"),
        "error line does not name the file and the kind: {first_line:?}"
    );

    let err = SessionSnapshot::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
    assert!(err.to_string().contains(path.to_str().unwrap()), "names the path: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_pool_policy_names_the_flag() {
    for policy in ["window:lots", "reservoir:8"] {
        assert_usage_error(
            &["run", "--dataset", "RCMNIST", "--quick", "--pool-policy", policy],
            "--pool-policy",
        );
    }
}

#[test]
fn malformed_jobs_names_the_flag() {
    assert_usage_error(&["run", "--dataset", "RCMNIST", "--quick", "--jobs", "many"], "--jobs");
}

#[test]
fn serve_workload_with_samples_zero_names_the_field() {
    // A session with no samples per task has nothing to warm-start on; the
    // parser refuses it before any session boots.
    let dir = scratch_dir("samples_zero");
    let workload = dir.join("w.txt");
    std::fs::write(
        &workload,
        "open a tenant=t dataset=rcmnist strategy=entropy seed=7 tasks=1 samples=0\ndrain\ntask a 0\n",
    )
    .unwrap();
    assert_usage_error(
        &["serve", "--workload", workload.to_str().unwrap(), "--jobs", "2"],
        "`samples` must be at least 1",
    );
    std::fs::remove_dir_all(&dir).ok();
}
