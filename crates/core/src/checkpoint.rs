//! Crash-safe persistence of the two single-record artifacts.
//!
//! A [`RunCheckpoint`] is the engine's resume cache: one completed run per
//! grid job. A [`crate::session::SessionSnapshot`] is a live learner's
//! complete mid-stream state (model, optimizer momentum, labeled pool, RNG
//! position, task cursor), so a restored session continues bit for bit.
//! Both go through the one write path here, `save_wire` (staged `.tmp`
//! sibling, fsync, atomic rename, directory fsync), and the one strict read,
//! `load_wire`, in the `faction-wire` binary container (CRC-framed,
//! version-stamped; see that crate for the format).
//!
//! The wire container is the only format loading accepts: any other file
//! is [`CheckpointError::Corrupt`] naming the path. `faction_cli inspect`
//! renders either artifact as JSON for human eyes.

use std::fs;
use std::path::Path;

use faction_wire::{PayloadKind, WireError};
use serde::{Deserialize, Serialize};

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// (De)serialization failure.
    Serde(serde_json::Error),
    /// A checkpoint *file* that exists but does not parse — truncated by a
    /// crash mid-write, hand-edited, or not a checkpoint at all. Carries
    /// the path so the operator knows which file to delete or restore.
    Corrupt {
        /// The offending file.
        path: std::path::PathBuf,
        /// Parser detail (what failed, where).
        detail: String,
    },
    /// The file's version field is newer than this library understands.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Serde(e) => write!(f, "checkpoint serialization error: {e}"),
            CheckpointError::Corrupt { path, detail } => write!(
                f,
                "checkpoint file {} is corrupt or truncated ({detail}); \
                 delete it to restart from scratch",
                path.display()
            ),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build supports ≤ {CURRENT_VERSION})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Serde(e)
    }
}

/// Current checkpoint format version.
pub const CURRENT_VERSION: u32 = 1;

/// Writes `contents` to `path` crash-safely: the bytes go to a `.tmp`
/// sibling first (suffixed with the writer's pid so concurrent engine
/// processes sharing a checkpoint directory cannot clobber each other's
/// staging files), are fsynced, and only then renamed into place.
/// `fs::rename` within a directory is atomic on POSIX, so a job killed at
/// any instant leaves either the old complete file or the new complete
/// file — never a torn one.
fn atomic_write(path: &Path, contents: &[u8]) -> Result<(), CheckpointError> {
    use std::io::Write;
    let mut file_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    file_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(file_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents)?;
        // Flush to stable storage before the rename publishes the file;
        // otherwise a power loss could promote an empty inode.
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        fs::remove_file(&tmp).ok();
        return Err(CheckpointError::Io(e));
    }
    // The rename is only durable once the *directory* entry is on stable
    // storage too: fsyncing the file covers its data blocks and inode, not
    // the parent's entry pointing at it. Without this, a power loss after
    // a "successful" save can silently roll the directory back to the old
    // file — the exact torn-state atomic_write exists to prevent.
    fsync_parent_dir(path)?;
    Ok(())
}

/// Test seam: counts directory fsyncs so a unit test can assert the
/// durability barrier actually runs, without strace.
#[cfg(test)]
pub(crate) static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Opens `path`'s parent directory and `sync_all`s it, making a preceding
/// rename durable. An empty parent means "the current directory".
fn fsync_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = fs::File::open(parent)?;
    dir.sync_all()?;
    #[cfg(test)]
    DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    Ok(())
}

/// Maps a wire-format failure on `path` into checkpoint terms: a
/// future container version keeps its "upgrade this build" meaning, and
/// everything else is file corruption naming the path.
pub(crate) fn wire_error(path: &Path, e: WireError) -> CheckpointError {
    match e {
        WireError::UnsupportedVersion(v) => CheckpointError::UnsupportedVersion(u32::from(v)),
        other => CheckpointError::Corrupt { path: path.to_path_buf(), detail: other.to_string() },
    }
}

/// Serializes `value` as a single-record wire container and writes it
/// crash-safely (staged tmp + fsync + rename + directory fsync).
pub(crate) fn save_wire<T: serde::Serialize>(
    path: &Path,
    kind: PayloadKind,
    value: &T,
) -> Result<(), CheckpointError> {
    let bytes = faction_wire::to_wire(kind, value).map_err(|e| wire_error(path, e))?;
    atomic_write(path, &bytes)
}

/// Loads a checkpoint-family artifact: a strict read of a single-record
/// wire container of `kind`. Anything else — a torn or bit-flipped
/// container, trailing bytes, a JSON file — is corruption naming `path`.
pub(crate) fn load_wire<T: serde::Deserialize>(
    path: &Path,
    kind: PayloadKind,
) -> Result<T, CheckpointError> {
    let bytes = fs::read(path)?;
    faction_wire::from_wire(kind, &bytes).map_err(|e| wire_error(path, e))
}

/// A finished run's result, persisted per job by the execution engine so an
/// interrupted grid resumes without repeating completed work.
///
/// Job-granularity resume is *exactly* deterministic: the stored
/// [`RunRecord`](crate::runner::RunRecord) is the completed job's output, so
/// resuming never re-enters a run's RNG streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The completed run.
    pub record: crate::runner::RunRecord,
}

impl RunCheckpoint {
    /// Wraps a completed run for persistence.
    pub fn capture(record: &crate::runner::RunRecord) -> RunCheckpoint {
        RunCheckpoint { version: CURRENT_VERSION, record: record.clone() }
    }

    /// Writes crash-safely in the wire binary format: staged to a fsynced
    /// `.tmp` sibling, atomically renamed into place, then the parent
    /// directory is fsynced, so a process killed at any instant leaves
    /// either the old or the new complete file.
    ///
    /// # Errors
    /// Propagates filesystem and serialization failures.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        save_wire(path, PayloadKind::RunCheckpoint, self)
    }

    /// Reads a run checkpoint (wire binary format), rejecting torn files,
    /// non-wire files and newer versions.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] for missing files, [`CheckpointError::Corrupt`]
    /// for unparseable ones, [`CheckpointError::UnsupportedVersion`] for
    /// newer formats.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let ckpt: RunCheckpoint = load_wire(path, PayloadKind::RunCheckpoint)?;
        if ckpt.version > CURRENT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(ckpt.version));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::session::{OnlineSession, SessionSnapshot};
    use crate::strategies::{Random, Strategy};
    use faction_data::{Sample, Task};
    use faction_linalg::{Matrix, SeedRng};
    use faction_nn::MlpConfig;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            warm_start: 40,
            epochs_per_iteration: 10,
            train_batch_size: 16,
            learning_rate: 0.1,
            ..ExperimentConfig::quick()
        }
    }

    /// A learner warm-started on 40 rows of a separable two-class task and
    /// opened on that task, so its snapshot carries trained weights,
    /// optimizer momentum, a labeled pool and a task cursor.
    fn trained_session() -> OnlineSession {
        let mut rng = SeedRng::new(1);
        let samples = (0..60)
            .map(|i| {
                let label = i % 2;
                let c = if label == 1 { 1.5 } else { -1.5 };
                let x = vec![rng.normal(c, 0.5), rng.normal(0.0, 0.5)];
                Sample { x, sensitive: if i % 3 == 0 { 1 } else { -1 }, label, env: 0 }
            })
            .collect();
        let task = Task { id: 0, env: 0, env_name: "e0".to_string(), samples };
        let arch = MlpConfig::new(vec![2, 8, 2], 3);
        let mut session = OnlineSession::new(&arch, &cfg(), 1, 2, Random.training_loss());
        session.warm_start(&task);
        session.begin_task(&task);
        session
    }

    fn snapshot() -> SessionSnapshot {
        trained_session().snapshot(&Random)
    }

    /// Saves `snapshot` under a per-test directory and loads it back.
    fn save_and_load(
        snapshot: &SessionSnapshot,
        test: &str,
    ) -> Result<SessionSnapshot, CheckpointError> {
        let dir = std::env::temp_dir().join(format!("faction_checkpoint_{test}"));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.wire");
        snapshot.save(&path).unwrap();
        let loaded = SessionSnapshot::load(&path);
        fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn wire_roundtrip_preserves_predictions() {
        let session = trained_session();
        let loaded = save_and_load(&session.snapshot(&Random), "roundtrip_test").unwrap();
        let restored = OnlineSession::restore(&loaded, &cfg(), &mut Random).unwrap();
        assert_eq!(restored.pool().len(), session.pool().len());
        assert_eq!(restored.budget_remaining(), session.budget_remaining());
        let probe = Matrix::from_rows(&[vec![1.0, 0.3], vec![-1.2, 0.1]]).unwrap();
        let (mlp, restored_mlp) = (session.model().mlp(), restored.model().mlp());
        assert_eq!(mlp.logits(&probe), restored_mlp.logits(&probe));
        assert_eq!(mlp.features(&probe), restored_mlp.features(&probe));
    }

    #[test]
    fn file_roundtrip() {
        let session = trained_session();
        let dir = std::env::temp_dir().join("faction_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        session.snapshot(&Random).save(&path).unwrap();
        let loaded = SessionSnapshot::load(&path).unwrap();
        assert_eq!(loaded.version, CURRENT_VERSION);
        let restored = OnlineSession::restore(&loaded, &cfg(), &mut Random).unwrap();
        assert_eq!(restored.pool().labels(), session.pool().labels());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_version_rejected() {
        let mut snapshot = snapshot();
        snapshot.version = CURRENT_VERSION + 5;
        assert!(matches!(
            save_and_load(&snapshot, "newer_version_test"),
            Err(CheckpointError::UnsupportedVersion(v)) if v == CURRENT_VERSION + 5
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let missing = std::env::temp_dir().join("faction_no_such_checkpoint.json");
        assert!(matches!(SessionSnapshot::load(&missing), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn truncated_file_is_rejected_with_clear_error() {
        // A file torn mid-write (as a pre-crash-safe save could leave) must
        // be rejected by an error that names the offending path.
        let dir = std::env::temp_dir().join("faction_checkpoint_truncated_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        snapshot().save(&path).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = SessionSnapshot::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("ckpt.json"), "message should name the file: {msg}");
        assert!(msg.contains("corrupt or truncated"), "message should say why: {msg}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn valid_wire_record_with_trailing_record_is_rejected() {
        // The nastier corruption shape: the file *starts* with a complete,
        // CRC-valid snapshot record and then carries a second one
        // (interrupted rewrite-in-place, concatenated writes). A reader
        // that stops at the first complete record would silently resume
        // from it; the loader must reject the whole file as corrupt.
        let dir = std::env::temp_dir().join("faction_checkpoint_trailing_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.wire");
        snapshot().save(&path).unwrap();
        let mut full = fs::read(&path).unwrap();
        let record = full[faction_wire::HEADER_LEN..].to_vec();
        full.extend_from_slice(&record);
        fs::write(&path, &full).unwrap();
        let err = SessionSnapshot::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
        assert!(err.to_string().contains("trailing"), "detail should say what failed: {err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn wire_file_with_trailing_garbage_is_rejected() {
        // Same shape for the binary format: bytes after the single record
        // mean the file is not what the writer produced — strict read, not
        // salvage, for single-artifact checkpoints.
        let dir = std::env::temp_dir().join("faction_checkpoint_wire_trailing_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        snapshot().save(&path).unwrap();
        let mut full = fs::read(&path).unwrap();
        full.extend_from_slice(b"junk!");
        fs::write(&path, &full).unwrap();
        let err = SessionSnapshot::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_garbage_is_corrupt_not_io() {
        // Regression: `fs::read_to_string` used to turn non-UTF-8 bytes
        // into CheckpointError::Io, losing the "delete this file" operator
        // message. Binary garbage (without the wire magic) must be Corrupt
        // and name the file.
        let dir = std::env::temp_dir().join("faction_checkpoint_binary_garbage_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x80, 0x99, 0xC1, 0x01]).unwrap();
        let err = SessionSnapshot::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
        assert!(err.to_string().contains("ckpt.json"), "message should name the file: {err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn json_checkpoint_is_corrupt_naming_the_file() {
        // The wire container is the only format: a checkpoint written as
        // JSON (compact or pretty, as JSON-era builds did) or malformed
        // JSON is corruption naming the file, never a restore.
        let dir = std::env::temp_dir().join("faction_checkpoint_json_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let snapshot = snapshot();
        for text in [
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string_pretty(&snapshot).unwrap(),
            "{not json".to_string(),
        ] {
            fs::write(&path, text).unwrap();
            let err = SessionSnapshot::load(&path).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
            assert!(err.to_string().contains("ckpt.json"), "message should name the file: {err}");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_syncs_the_parent_directory() {
        // The durability fix: after the rename publishes the checkpoint,
        // the parent directory handle must be fsynced or a power loss can
        // roll the directory entry back. The DIR_SYNCS counter is the
        // strace-free seam: it increments only inside fsync_parent_dir.
        let dir = std::env::temp_dir().join("faction_checkpoint_dirsync_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let before = DIR_SYNCS.load(std::sync::atomic::Ordering::SeqCst);
        snapshot().save(&path).unwrap();
        let after = DIR_SYNCS.load(std::sync::atomic::Ordering::SeqCst);
        assert!(after > before, "atomic_write must fsync the parent directory after rename");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_wire_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join("faction_checkpoint_bitflip_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        snapshot().save(&path).unwrap();
        let clean = fs::read(&path).unwrap();
        // Flip one payload bit in the middle of the record: without the
        // CRC this would be a silently-wrong weight.
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        fs::write(&path, &flipped).unwrap();
        let err = SessionSnapshot::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "got {err:?}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn future_container_version_is_unsupported() {
        let dir = std::env::temp_dir().join("faction_checkpoint_future_wire_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        snapshot().save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Header bytes 4..6 are the container format version (LE).
        bytes[4] = 0x63;
        bytes[5] = 0x00;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SessionSnapshot::load(&path),
            Err(CheckpointError::UnsupportedVersion(0x63))
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_staging_file_behind() {
        let dir = std::env::temp_dir().join("faction_checkpoint_staging_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        snapshot().save(&path).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging files left behind: {leftovers:?}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn run_checkpoint_roundtrip_and_truncation() {
        use crate::runner::{RunRecord, TaskRecord};
        let record = RunRecord {
            strategy: "Random".into(),
            dataset: "NYSF".into(),
            seed: 5,
            records: vec![TaskRecord {
                task_id: 0,
                env_name: "e0".into(),
                accuracy: 0.75,
                ddp: 0.1,
                eod: 0.05,
                mi: 0.01,
                calibration_gap: 0.0,
                queries: 12,
                seconds: 1.5,
                selection_seconds: 0.5,
                training_seconds: 0.9,
            }],
            total_seconds: 1.5,
            kernel_backend: String::new(),
        };
        let dir = std::env::temp_dir().join("faction_run_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("NYSF-random-s5.run.wire");
        RunCheckpoint::capture(&record).save(&path).unwrap();
        let restored = RunCheckpoint::load(&path).unwrap();
        assert_eq!(restored.version, CURRENT_VERSION);
        assert_eq!(restored.record.seed, 5);
        assert_eq!(restored.record.records.len(), 1);
        assert_eq!(restored.record.records[0].queries, 12);
        // Torn run checkpoints are rejected, not silently resumed.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 3]).unwrap();
        assert!(matches!(RunCheckpoint::load(&path), Err(CheckpointError::Corrupt { .. })));
        fs::remove_file(&path).ok();
    }
}
