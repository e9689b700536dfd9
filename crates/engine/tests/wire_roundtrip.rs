//! The blocking `wire-roundtrip` gate (check.sh): binary persistence must
//! be *lossless* — a value round-tripped through the wire container
//! renders to byte-identical JSON, which is what `faction_cli inspect`
//! prints — and the corruption
//! matrix (torn tail, bit flip, truncation at every byte, future version)
//! must behave exactly as DESIGN.md §15 specifies, for the real payload
//! types the workspace persists: `SessionSnapshot`, `RunCheckpoint`,
//! `JobEvent`.
//!
//! Equivalence is checked on the JSON *render* of both sides: the wire
//! encoder and the JSON writer's value tree come from the same
//! `serde::Serialize` walk, so if decode∘encode is the identity on that
//! tree, the renders match byte for byte — including the NaN→null
//! convention both writers share. The byte counter is a third sink of the
//! same walk; the counting tests pin it to the written length.

use faction_core::checkpoint::RunCheckpoint;
use faction_core::strategies::{Random, Strategy};
use faction_core::{ExperimentConfig, OnlineSession, RunRecord, SessionSnapshot, TaskRecord};
use faction_data::{Sample, Task};
use faction_engine::{JobEvent, Journal};
use faction_linalg::SeedRng;
use faction_nn::mlp::MlpConfig;
use faction_wire::{from_wire, to_wire, PayloadKind, WireError};
use proptest::prelude::*;

/// A session snapshot with genuinely trained float entropy: a seeded
/// random task of `rows` rows, half of them drawn into the warm-start pool
/// and trained on (weights, optimizer momentum, RNG position), and an open
/// cursor on task `task_id` over the other half. Everything derives from
/// the arguments, so proptest cases are reproducible.
fn snapshot_fixture(seed: u64, rows: usize, task_id: usize) -> SessionSnapshot {
    let mut rng = SeedRng::new(seed);
    let samples = (0..rows)
        .map(|i| {
            let label = i % 2;
            let x = vec![
                rng.normal(if label == 1 { 1.0 } else { -1.0 }, 0.7),
                rng.normal(0.0, 1.3),
                rng.normal(0.5, 0.2),
            ];
            Sample { x, sensitive: if i % 3 == 0 { 1 } else { -1 }, label, env: 0 }
        })
        .collect();
    let task = Task { id: task_id, env: 0, env_name: format!("env-{task_id}"), samples };
    let cfg = ExperimentConfig {
        warm_start: rows.div_ceil(2),
        epochs_per_iteration: 1,
        ..ExperimentConfig::quick()
    };
    let arch = MlpConfig::new(vec![3, 6, 2], seed);
    let mut session = OnlineSession::new(&arch, &cfg, seed, 2, Random.training_loss());
    session.warm_start(&task);
    session.begin_task(&task);
    session.snapshot(&Random)
}

/// A hand-built run record exercising strings, integers, and full-entropy
/// floats in every `TaskRecord` field.
fn run_record_fixture(seed: u64, tasks: usize) -> RunRecord {
    let mut rng = SeedRng::new(seed);
    let mut records = Vec::new();
    for t in 0..tasks {
        records.push(TaskRecord {
            task_id: t,
            env_name: format!("env-{}", t % 3),
            accuracy: rng.uniform(),
            ddp: rng.uniform() * 0.3,
            eod: rng.uniform() * 0.3,
            mi: rng.uniform() * 0.1,
            calibration_gap: rng.uniform() * 0.05,
            queries: (rng.uniform() * 40.0) as usize,
            seconds: rng.uniform() * 2.0,
            selection_seconds: rng.uniform() * 0.5,
            training_seconds: rng.uniform() * 1.5,
        });
    }
    RunRecord {
        strategy: "FACTION".to_string(),
        dataset: if seed.is_multiple_of(2) { "NYSF" } else { "RCMNIST" }.to_string(),
        seed,
        records,
        total_seconds: rng.uniform() * 10.0,
        kernel_backend: ["", "scalar", "simd", "parallel"][(seed % 4) as usize].to_string(),
    }
}

proptest! {
    #[test]
    fn checkpoint_binary_roundtrip_matches_json_render(
        seed in 0u64..1000,
        rows in 1usize..24,
        task_id in 0usize..50,
    ) {
        let original = snapshot_fixture(seed, rows, task_id);
        let bytes = to_wire(PayloadKind::SessionSnapshot, &original).unwrap();
        let decoded: SessionSnapshot = from_wire(PayloadKind::SessionSnapshot, &bytes).unwrap();
        // Compact render (an inspected journal line) and pretty render
        // (an inspected snapshot) must both be byte-identical.
        prop_assert_eq!(
            serde_json::to_string(&original).unwrap(),
            serde_json::to_string(&decoded).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&original).unwrap(),
            serde_json::to_string_pretty(&decoded).unwrap()
        );
    }

    #[test]
    fn run_checkpoint_binary_roundtrip_matches_json_render(
        seed in 0u64..10_000,
        tasks in 0usize..12,
    ) {
        let original = RunCheckpoint::capture(&run_record_fixture(seed, tasks));
        let bytes = to_wire(PayloadKind::RunCheckpoint, &original).unwrap();
        let decoded: RunCheckpoint = from_wire(PayloadKind::RunCheckpoint, &bytes).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&original).unwrap(),
            serde_json::to_string(&decoded).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&original).unwrap(),
            serde_json::to_string_pretty(&decoded).unwrap()
        );
    }

    #[test]
    fn job_event_payload_roundtrip_matches_json_render(
        t_ms in 0u64..1_000_000,
        attempt in 0u32..5,
        worker in 0usize..16,
        seconds in 0.0f64..100.0,
        job_pick in 0u64..4,
        kind_pick in 0u64..5,
    ) {
        let event = JobEvent {
            t_ms,
            job: format!("NYSF-faction-s{job_pick}"),
            kind: ["started", "finished", "retried", "failed", "resumed"]
                [kind_pick as usize].to_string(),
            attempt,
            worker,
            seconds,
            detail: if kind_pick >= 3 { "injected panic: κ≠0 — unicode survives".into() }
                    else { String::new() },
        };
        // Journal records are framed as raw payloads (discriminator +
        // encoded value); exercise the payload codec the way the streaming
        // sink does.
        use serde::{Deserialize, Serialize};
        let encoded = faction_wire::encode_payload(&event.to_value());
        let value = faction_wire::decode_payload(&encoded).unwrap();
        let decoded = JobEvent::from_value(&value).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&event).unwrap(),
            serde_json::to_string(&decoded).unwrap()
        );
    }
}

#[test]
fn non_finite_floats_render_identically_on_both_routes() {
    // NaN/Inf cannot appear in JSON; the JSON writer renders them as
    // null. The binary side must not diverge from that render after a
    // round trip.
    let mut record = run_record_fixture(3, 2);
    record.total_seconds = f64::NAN;
    record.records[0].accuracy = f64::INFINITY;
    record.records[1].ddp = f64::NEG_INFINITY;
    let original = RunCheckpoint::capture(&record);
    let bytes = to_wire(PayloadKind::RunCheckpoint, &original).unwrap();
    let decoded: RunCheckpoint = from_wire(PayloadKind::RunCheckpoint, &bytes).unwrap();
    assert!(decoded.record.total_seconds.is_nan(), "binary preserves the NaN bits");
    assert_eq!(
        serde_json::to_string(&original).unwrap(),
        serde_json::to_string(&decoded).unwrap(),
        "both sides render non-finite floats as null"
    );
}

/// Journal container with `n` real event records, built through the same
/// streaming writer the engine uses.
fn journal_container(n: usize) -> Vec<u8> {
    let mut writer =
        faction_wire::ContainerWriter::new(Vec::new(), PayloadKind::Journal).unwrap();
    for i in 0..n {
        use serde::Serialize;
        let event = JobEvent {
            t_ms: i as u64 * 10,
            job: format!("NYSF-random-s{i}"),
            kind: "started".to_string(),
            attempt: 1,
            worker: i,
            seconds: 0.0,
            detail: String::new(),
        };
        let mut payload = vec![1u8]; // RECORD_EVENT discriminator
        payload.extend_from_slice(&faction_wire::encode_payload(&event.to_value()));
        writer.append(&payload).unwrap();
    }
    writer.into_inner()
}

#[test]
fn truncation_at_every_byte_salvages_exactly_the_valid_prefix() {
    let full = journal_container(3);
    let clean = Journal::replay_bytes(&full).unwrap();
    assert_eq!(clean.events.len(), 3);

    let mut reachable = std::collections::BTreeSet::new();
    for cut in 0..=full.len() {
        match Journal::replay_bytes(&full[..cut]) {
            Ok(replay) => {
                assert!(cut >= faction_wire::HEADER_LEN);
                // Exactly the prefix of intact records, in order.
                for (i, event) in replay.events.iter().enumerate() {
                    assert_eq!(event.job, clean.events[i].job, "cut {cut}");
                }
                // A drop is reported iff the cut fell inside a record.
                let at_boundary = replay.dropped.is_none();
                if at_boundary {
                    assert!(
                        faction_wire::read_container_strict(&full[..cut], PayloadKind::Journal)
                            .is_ok(),
                        "cut {cut}: no drop reported but strict read fails"
                    );
                }
                reachable.insert(replay.events.len());
            }
            Err(e) => assert!(
                cut < faction_wire::HEADER_LEN,
                "cut {cut} must salvage, not error: {e}"
            ),
        }
    }
    assert_eq!(reachable, (0..=3).collect(), "every event-prefix length is reachable");
}

#[test]
fn torn_final_record_is_dropped_and_reported() {
    let full = journal_container(3);
    let torn = &full[..full.len() - 1];
    let replay = Journal::replay_bytes(torn).unwrap();
    assert_eq!(replay.events.len(), 2, "the incomplete final record is discarded");
    let drop = replay.dropped.expect("the torn tail is reported, not silently eaten");
    assert!(drop.bytes > 0);
    assert!(drop.detail.contains("torn"), "{}", drop.detail);
}

#[test]
fn any_single_bit_flip_in_a_checkpoint_is_rejected() {
    let original = snapshot_fixture(11, 6, 2);
    let bytes = to_wire(PayloadKind::SessionSnapshot, &original).unwrap();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            assert!(
                from_wire::<SessionSnapshot>(PayloadKind::SessionSnapshot, &flipped).is_err(),
                "flip at byte {pos} bit {bit} was accepted"
            );
        }
    }
}

#[test]
fn future_container_version_is_unsupported_not_corrupt() {
    let mut bytes = to_wire(PayloadKind::SessionSnapshot, &snapshot_fixture(5, 4, 1)).unwrap();
    bytes[4] = 0x2A; // format version u16 LE at offset 4
    bytes[5] = 0x00;
    match from_wire::<SessionSnapshot>(PayloadKind::SessionSnapshot, &bytes) {
        Err(WireError::UnsupportedVersion(42)) => {}
        other => panic!("expected UnsupportedVersion(42), got {other:?}"),
    }
}

#[test]
fn binary_is_smaller_than_both_json_renders() {
    // The size claim the bench gate quantifies, pinned qualitatively here
    // so a codec regression fails fast in the test suite.
    let snapshot = snapshot_fixture(7, 500, 3);
    let wire = to_wire(PayloadKind::SessionSnapshot, &snapshot).unwrap();
    let compact = serde_json::to_string(&snapshot).unwrap();
    let pretty = serde_json::to_string_pretty(&snapshot).unwrap();
    assert!(
        wire.len() * 2 < compact.len(),
        "wire {} bytes vs compact JSON {} bytes: expected at least 2×",
        wire.len(),
        compact.len()
    );
    assert!(
        wire.len() * 3 < pretty.len(),
        "wire {} bytes vs pretty JSON {} bytes: expected at least 3×",
        wire.len(),
        pretty.len()
    );
}

/// FNV-1a over 64 bits: a digest independent of the container's own CRC,
/// so a change to the checksum code cannot move the pinned value with it.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn golden_bytes_are_pinned() {
    // The exact bytes a fixed snapshot and a fixed run checkpoint encode
    // to. Files written by any earlier build must stay readable and a
    // rewrite of the codec or the checksum must reproduce them bit for
    // bit, so these literals change only with a format-version bump.
    let snapshot = to_wire(PayloadKind::SessionSnapshot, &snapshot_fixture(7, 40, 3)).unwrap();
    let checkpoint =
        to_wire(PayloadKind::RunCheckpoint, &RunCheckpoint::capture(&run_record_fixture(3, 5)))
            .unwrap();
    assert_eq!(
        (snapshot.len(), fnv1a64(&snapshot)),
        (2201, 0xC2E2_9CF1_6CDC_9E06),
        "SessionSnapshot bytes moved"
    );
    assert_eq!(
        (checkpoint.len(), fnv1a64(&checkpoint)),
        (733, 0x618E_CCE3_EB0D_C7C1),
        "RunCheckpoint bytes moved"
    );
}

/// Checks the two promises of the single serialize walk on one payload:
/// the counter reports exactly the bytes the encoder writes, and a typed
/// value encodes to the bytes of the value tree it converts to.
fn assert_walks_agree<T: serde::Serialize>(value: &T, what: &str) -> usize {
    let written = faction_wire::encode_payload(value);
    assert_eq!(faction_wire::encoded_len(value), written.len(), "{what}: counted length");
    assert_eq!(
        faction_wire::encode_payload(&value.to_value()),
        written,
        "{what}: the typed walk and the tree's walk encode differently"
    );
    written.len()
}

/// One acquisition round, every pick labeled.
fn round(session: &mut OnlineSession, task: &Task, strategy: &mut dyn Strategy) {
    let decisions = session.feed(task, strategy);
    let labels: Vec<Option<usize>> =
        decisions.picked.iter().map(|&g| Some(task.samples[g].label)).collect();
    session.apply_labels(task, &labels);
}

/// `SessionSnapshot::wire_len` against the container the snapshot writes,
/// plus [`assert_walks_agree`] on its payload.
fn assert_snapshot_counts(snapshot: &SessionSnapshot, what: &str) -> usize {
    let bytes = snapshot.to_wire_bytes();
    assert_eq!(snapshot.wire_len(), bytes.len(), "{what}: wire_len");
    let payload = assert_walks_agree(snapshot, what);
    assert_eq!(
        faction_wire::HEADER_LEN + faction_wire::RECORD_FRAME_LEN + payload,
        bytes.len(),
        "{what}: one framed record"
    );
    bytes.len()
}

#[test]
fn counted_snapshot_length_matches_the_written_bytes() {
    // `SessionSnapshot::wire_len` is what serve reports as `bytes=`; it must
    // equal the container `to_wire_bytes` writes, for every strategy serve's
    // benchmark runs (two carry state, two do not), at boot, mid-task after
    // rounds have moved it, and after a restore, before and after the
    // restored session plays a round.
    let stream = faction_data::datasets::Dataset::Rcmnist.stream_prefix(
        5,
        faction_data::Scale::Quick,
        Some(2),
        Some(60),
    );
    let cfg = ExperimentConfig {
        budget: 12,
        acquisition_batch: 4,
        warm_start: 10,
        epochs_per_iteration: 1,
        ..ExperimentConfig::quick()
    };
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 5);
    let build = |name: &str| faction_engine::build_strategy(name, cfg.loss, 1.0, true).unwrap();
    for name in ["faction", "faction-incremental", "entropy", "random"] {
        let mut strategy = build(name);
        let mut session =
            OnlineSession::new(&arch, &cfg, 5, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        let boot = assert_snapshot_counts(&session.snapshot(strategy.as_ref()), name);
        let task = &stream.tasks[1];
        session.begin_task(task);
        for _ in 0..2 {
            round(&mut session, task, strategy.as_mut());
        }
        let mid = session.snapshot(strategy.as_ref());
        let mid_len = assert_snapshot_counts(&mid, name);
        assert!(mid_len > boot, "{name}: the rounds must grow the snapshot");

        let mut restored_strategy = build(name);
        let mut restored = OnlineSession::restore(&mid, &cfg, restored_strategy.as_mut()).unwrap();
        let again = restored.snapshot(restored_strategy.as_ref());
        assert_snapshot_counts(&again, name);
        assert_eq!(again.to_wire_bytes(), mid.to_wire_bytes(), "{name}: restore changed the state");
        round(&mut restored, task, restored_strategy.as_mut());
        round(&mut session, task, strategy.as_mut());
        let after = restored.snapshot(restored_strategy.as_ref());
        assert_snapshot_counts(&after, name);
        assert_eq!(
            after.to_wire_bytes(),
            session.snapshot(strategy.as_ref()).to_wire_bytes(),
            "{name}: a round after the restore must match the uninterrupted one"
        );
    }
}

#[test]
fn counted_checkpoint_and_journal_lengths_match_the_written_bytes() {
    for (seed, tasks) in [(0, 0), (3, 5), (11, 12)] {
        let checkpoint = RunCheckpoint::capture(&run_record_fixture(seed, tasks));
        let payload = assert_walks_agree(&checkpoint, "run checkpoint");
        let bytes = to_wire(PayloadKind::RunCheckpoint, &checkpoint).unwrap();
        assert_eq!(faction_wire::HEADER_LEN + faction_wire::RECORD_FRAME_LEN + payload, bytes.len());
    }
    let journal = Journal::start();
    journal.record("NYSF-faction-s0", "started", 1, 0, 0.0, "");
    journal.record("NYSF-faction-s0", "failed", 2, 1, 1.25, "injected panic: κ≠0");
    for event in journal.events() {
        assert_walks_agree(&event, "journal event");
    }
    let metrics = serde_json::from_str(
        r#"{"counters":{"engine.steals":3},"histograms":{"engine.job_ns":[1.5,2.5,-0.0]},"mixed":[1,2.5,"x",null,[]]}"#,
    )
    .unwrap();
    let stats = faction_engine::PoolStats { workers: 2, queue_high_water: 3 };
    assert_walks_agree(&journal.summarize(4, stats), "journal summary without metrics");
    assert_walks_agree(
        &journal.summarize_with_metrics(4, stats, metrics),
        "journal summary with metrics",
    );
}
