//! Per-job event journal: what ran, when, where, how often it was retried.
//!
//! The engine appends one [`JobEvent`] per lifecycle transition —
//! `started`, `finished`, `retried`, `failed`, `resumed` — stamped with
//! milliseconds since the batch began, the worker id, and the attempt
//! number, so a run is reconstructable *after the fact*: per-job durations,
//! retry storms, queue-depth pressure, worker utilization.
//!
//! Persistence is **streaming**: with a sink attached
//! ([`Journal::start_streaming`]), every event is written to disk as one
//! CRC-framed `faction-wire` record *at the moment it is recorded* and the
//! file is flushed, so a batch killed mid-run leaves a journal whose valid
//! prefix replays every completed transition ([`Journal::replay`]). The
//! batch summary is appended as the final record and the file is fsynced.
//! Before this, events lived in memory until an end-of-batch render — a
//! crash lost the whole journal, which is exactly when it matters most.
//!
//! `faction_cli inspect <journal>` renders the file as JSON lines (one
//! event object per line, then one summary object) through
//! [`Journal::record_value`]. Event *order* in the journal follows
//! wall-clock completion and is therefore
//! schedule-dependent; the journal is observability output and
//! deliberately outside the engine's determinism contract (job *results*
//! are pure functions of job values; see `DESIGN.md` §8).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use faction_telemetry::Clock;
use faction_wire::PayloadKind;
use serde::{Deserialize, Serialize};

use crate::pool::{lock, PoolStats};

/// Journal record payloads start with one discriminator byte.
const RECORD_EVENT: u8 = 1;
/// See [`RECORD_EVENT`]; the summary is the journal's final record.
const RECORD_SUMMARY: u8 = 2;

/// One lifecycle transition of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobEvent {
    /// Milliseconds since the engine batch started.
    pub t_ms: u64,
    /// Job key (e.g. `NYSF-faction-s2`).
    pub job: String,
    /// `started` | `finished` | `retried` | `failed` | `resumed`.
    pub kind: String,
    /// 1-based attempt number this event belongs to (0 for `resumed`).
    pub attempt: u32,
    /// Worker id that ran the attempt (0 for `resumed`).
    pub worker: usize,
    /// Attempt duration in seconds (`finished` / `retried` / `failed`).
    pub seconds: f64,
    /// Failure detail: the panic message or error for `retried` / `failed`.
    pub detail: String,
}

/// Batch-level summary appended as the journal's final line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalSummary {
    /// Jobs submitted (including resumed ones).
    pub jobs: usize,
    /// Jobs that produced a result (fresh or resumed).
    pub finished: usize,
    /// Jobs resumed from a checkpoint without running.
    pub resumed: usize,
    /// Jobs that exhausted their retry bound.
    pub failed: usize,
    /// Total retry attempts across all jobs.
    pub retries: u32,
    /// Worker threads used.
    pub workers: usize,
    /// High-water mark of the queued-job count.
    pub queue_depth_high_water: usize,
    /// Batch wall-clock seconds.
    pub wall_seconds: f64,
    /// Engine-level telemetry block (`engine.*` metrics as rendered by
    /// `faction_telemetry::Snapshot::to_json`); `null` when the batch ran
    /// without a recording sink. Observability output only — excluded from
    /// the determinism contract like every other timing field here.
    #[serde(default)]
    pub metrics: serde_json::Value,
}

/// The streaming on-disk side of a journal: a wire container appender
/// plus the path it writes (for error reporting).
struct JournalSink {
    writer: faction_wire::ContainerWriter<std::fs::File>,
    path: PathBuf,
}

impl std::fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JournalSink({})", self.path.display())
    }
}

/// What a journal file held when replayed: the salvageable event prefix,
/// the summary if the batch finished cleanly, and what (if anything) a
/// torn tail dropped.
#[derive(Debug)]
pub struct JournalReplay {
    /// Every event whose record survived intact, in append order.
    pub events: Vec<JobEvent>,
    /// The batch summary — present only when the final record made it to
    /// disk, i.e. the batch completed.
    pub summary: Option<JournalSummary>,
    /// Description of a discarded torn tail (`None` for a clean file).
    pub dropped: Option<faction_wire::SalvageDrop>,
}

/// Thread-safe event collector for one engine batch.
#[derive(Debug)]
pub struct Journal {
    start: Clock,
    events: Mutex<Vec<JobEvent>>,
    sink: Mutex<Option<JournalSink>>,
    sink_errors: AtomicU64,
}

impl Journal {
    /// Starts an empty journal; `t_ms` stamps are relative to this call.
    pub fn start() -> Journal {
        // Wall-clock here is observability output only (event timestamps /
        // durations); it never influences scheduling decisions or results —
        // the telemetry Clock is the workspace's sanctioned read point.
        Journal {
            start: Clock::start(),
            events: Mutex::new(Vec::new()),
            sink: Mutex::new(None),
            sink_errors: AtomicU64::new(0),
        }
    }

    /// Starts a journal that streams every event to `path` as a CRC-framed
    /// wire record the moment it is recorded. The file is created (or
    /// truncated) immediately, so even a batch killed before its first
    /// event leaves an identifiable, empty journal container.
    ///
    /// # Errors
    /// Propagates the file creation / header write failure.
    pub fn start_streaming(path: &Path) -> std::io::Result<Journal> {
        let file = std::fs::File::create(path)?;
        let writer = faction_wire::ContainerWriter::new(file, PayloadKind::Journal)?;
        let journal = Journal::start();
        *lock(&journal.sink) = Some(JournalSink { writer, path: path.to_path_buf() });
        Ok(journal)
    }

    /// How many stream-write failures occurred. After the first failure
    /// the sink is disabled (the in-memory journal keeps collecting), so
    /// this is 0 or 1 in practice.
    pub fn sink_errors(&self) -> u64 {
        self.sink_errors.load(Ordering::Relaxed)
    }

    /// Appends one already-encoded record to the sink, if attached. The
    /// first failure disables the sink: a journal that cannot persist
    /// degrades to in-memory collection rather than failing the batch.
    fn stream_record(&self, discriminator: u8, value: &serde::Value) {
        let mut guard = lock(&self.sink);
        if let Some(sink) = guard.as_mut() {
            let mut payload = vec![discriminator];
            payload.extend_from_slice(&faction_wire::encode_payload(value));
            if sink.writer.append(&payload).is_err() {
                self.sink_errors.fetch_add(1, Ordering::Relaxed);
                *guard = None;
            }
        }
    }

    /// Appends the summary as the journal's final record and fsyncs the
    /// file, closing the stream. Returns `false` (and counts a sink error)
    /// if the final write or sync failed; `true` when there is no sink.
    pub fn finish_stream(&self, summary: &JournalSummary) -> bool {
        let taken = lock(&self.sink).take();
        let Some(mut sink) = taken else { return true };
        let mut payload = vec![RECORD_SUMMARY];
        payload.extend_from_slice(&faction_wire::encode_payload(&summary.to_value()));
        let ok = sink.writer.append(&payload).is_ok() && sink.writer.get_ref().sync_all().is_ok();
        if !ok {
            self.sink_errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Fsyncs and closes the stream *without* appending a summary record.
    /// For long-lived callers (the serve frontend) whose journals are
    /// lifecycle logs with no batch summary; replaying such a file yields
    /// `summary: None` by design. Returns `false` (and counts a sink
    /// error) if the sync failed; `true` when there is no sink.
    pub fn close_stream(&self) -> bool {
        let taken = lock(&self.sink).take();
        let Some(sink) = taken else { return true };
        let ok = sink.writer.get_ref().sync_all().is_ok();
        if !ok {
            self.sink_errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Replays a streamed journal from its bytes: salvages the valid
    /// record prefix (a torn tail from a killed batch is reported, not an
    /// error) and splits it into events and the optional final summary.
    ///
    /// # Errors
    /// Header-level failures (not a journal container, future version) and
    /// records that pass their CRC but do not decode — the latter means an
    /// encoder/decoder mismatch, not disk damage.
    pub fn replay_bytes(bytes: &[u8]) -> Result<JournalReplay, faction_wire::WireError> {
        let salvage = faction_wire::read_container_salvage(bytes, PayloadKind::Journal)?;
        let mut events = Vec::new();
        let mut summary = None;
        for (i, record) in salvage.records.iter().enumerate() {
            let Some((&disc, payload)) = record.split_first() else {
                return Err(faction_wire::WireError::Codec(format!("record {i}: empty payload")));
            };
            let value = faction_wire::decode_payload(payload)?;
            match disc {
                RECORD_EVENT => {
                    let event = JobEvent::from_value(&value).map_err(|e| {
                        faction_wire::WireError::Codec(format!("record {i}: {e}"))
                    })?;
                    events.push(event);
                }
                RECORD_SUMMARY => {
                    let s = JournalSummary::from_value(&value).map_err(|e| {
                        faction_wire::WireError::Codec(format!("record {i}: {e}"))
                    })?;
                    summary = Some(s);
                }
                other => {
                    return Err(faction_wire::WireError::Codec(format!(
                        "record {i}: unknown journal record discriminator {other}"
                    )));
                }
            }
        }
        Ok(JournalReplay { events, summary, dropped: salvage.dropped })
    }

    /// Decodes one journal record's payload (an event or the summary) to
    /// its value tree, without its discriminator byte: the JSON render of
    /// that value is the record's JSON line.
    ///
    /// # Errors
    /// An empty record or a payload that does not decode.
    pub fn record_value(record: &[u8]) -> Result<serde::Value, faction_wire::WireError> {
        match record.split_first() {
            Some((_, payload)) => faction_wire::decode_payload(payload),
            None => Err(faction_wire::WireError::Codec("empty journal record".to_string())),
        }
    }

    /// [`Self::replay_bytes`] from a file path.
    ///
    /// # Errors
    /// I/O failures are reported as a wire `Codec` error naming the cause;
    /// format failures as in [`Self::replay_bytes`].
    pub fn replay(path: &Path) -> Result<JournalReplay, faction_wire::WireError> {
        let bytes = std::fs::read(path)
            .map_err(|e| faction_wire::WireError::Codec(format!("read {}: {e}", path.display())))?;
        Self::replay_bytes(&bytes)
    }

    /// Milliseconds elapsed since the journal started.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed_ms()
    }

    /// Seconds elapsed since the journal started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed_seconds()
    }

    /// Appends one event, stamping it with the current relative time.
    pub fn record(&self, job: &str, kind: &str, attempt: u32, worker: usize, seconds: f64, detail: &str) {
        let event = JobEvent {
            t_ms: self.elapsed_ms(),
            job: job.to_string(),
            kind: kind.to_string(),
            attempt,
            worker,
            seconds,
            detail: detail.to_string(),
        };
        self.stream_record(RECORD_EVENT, &event.to_value());
        lock(&self.events).push(event);
    }

    /// Snapshot of the events recorded so far, in append order.
    pub fn events(&self) -> Vec<JobEvent> {
        lock(&self.events).clone()
    }

    /// Builds the batch summary from the recorded events plus pool stats.
    pub fn summarize(&self, jobs: usize, stats: PoolStats) -> JournalSummary {
        self.summarize_with_metrics(jobs, stats, serde_json::Value::Null)
    }

    /// [`Self::summarize`] with an attached telemetry metrics block.
    pub fn summarize_with_metrics(
        &self,
        jobs: usize,
        stats: PoolStats,
        metrics: serde_json::Value,
    ) -> JournalSummary {
        let events = lock(&self.events);
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        JournalSummary {
            jobs,
            finished: count("finished") + count("resumed"),
            resumed: count("resumed"),
            failed: count("failed"),
            retries: u32::try_from(count("retried")).unwrap_or(u32::MAX),
            workers: stats.workers,
            queue_depth_high_water: stats.queue_high_water,
            wall_seconds: self.elapsed_seconds(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_summary_are_recorded() {
        let journal = Journal::start();
        journal.record("NYSF-random-s0", "started", 1, 0, 0.0, "");
        journal.record("NYSF-random-s0", "finished", 1, 0, 0.25, "");
        let events = journal.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "started");
        assert_eq!(events[0].job, "NYSF-random-s0");
        let summary = journal.summarize(1, PoolStats { workers: 2, queue_high_water: 1 });
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.finished, 1);
        assert_eq!(summary.workers, 2);
    }

    #[test]
    fn summary_counts_retries_and_failures() {
        let journal = Journal::start();
        journal.record("a", "started", 1, 0, 0.0, "");
        journal.record("a", "retried", 1, 0, 0.1, "boom");
        journal.record("a", "started", 2, 1, 0.0, "");
        journal.record("a", "failed", 2, 1, 0.1, "boom");
        journal.record("b", "resumed", 0, 0, 0.0, "");
        let s = journal.summarize(2, PoolStats { workers: 2, queue_high_water: 2 });
        assert_eq!(s.failed, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.resumed, 1);
        assert_eq!(s.finished, 1);
    }

    #[test]
    fn streaming_journal_replays_events_and_summary() {
        let dir = std::env::temp_dir().join("faction_journal_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.wire");
        let journal = Journal::start_streaming(&path).unwrap();
        journal.record("a", "started", 1, 0, 0.0, "");
        journal.record("a", "finished", 1, 0, 0.5, "");
        journal.record("b", "failed", 2, 1, 0.1, "boom");
        let summary = journal.summarize(2, PoolStats { workers: 2, queue_high_water: 2 });
        assert!(journal.finish_stream(&summary));
        assert_eq!(journal.sink_errors(), 0);

        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.events.len(), 3);
        assert_eq!(replay.events[2].detail, "boom");
        assert!(replay.dropped.is_none());
        let s = replay.summary.expect("clean file carries the summary");
        assert_eq!(s.jobs, 2);
        assert_eq!(s.failed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn killed_stream_leaves_valid_event_prefix() {
        // Simulate a kill mid-append: truncate the file at every byte
        // length and check the replay returns exactly the events whose
        // records were fully on disk — never an error, never a torn event.
        let dir = std::env::temp_dir().join("faction_journal_kill_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.wire");
        let journal = Journal::start_streaming(&path).unwrap();
        for i in 0..4 {
            journal.record(&format!("job-{i}"), "started", 1, i, 0.0, "");
        }
        // No finish_stream: the batch "died" before the summary.
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let mut seen_prefix_lengths = std::collections::BTreeSet::new();
        for cut in faction_wire::HEADER_LEN..=full.len() {
            let replay = Journal::replay_bytes(&full[..cut]).unwrap();
            assert!(replay.summary.is_none(), "cut {cut}: no summary was ever written");
            for (i, event) in replay.events.iter().enumerate() {
                assert_eq!(event.job, format!("job-{i}"), "cut {cut}: prefix order");
            }
            seen_prefix_lengths.insert(replay.events.len());
        }
        // Every prefix length 0..=4 must be reachable by some cut.
        assert_eq!(seen_prefix_lengths, (0..=4).collect());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_foreign_containers() {
        let bytes = faction_wire::encode_container(PayloadKind::RunCheckpoint, &[b"x"]).unwrap();
        assert!(matches!(
            Journal::replay_bytes(&bytes),
            Err(faction_wire::WireError::WrongKind { .. })
        ));
        assert!(Journal::replay_bytes(b"not a container at all").is_err());
    }

    #[test]
    fn timestamps_are_monotonic() {
        let journal = Journal::start();
        journal.record("x", "started", 1, 0, 0.0, "");
        journal.record("x", "finished", 1, 0, 0.0, "");
        let events = journal.events();
        assert!(events[0].t_ms <= events[1].t_ms);
    }
}
