//! Session snapshot files are untrusted input. A snapshot whose labeled
//! pool breaks an invariant the pool relies on — one label and one
//! sensitive value per feature row, a window pool within its capacity,
//! `next_uid` at least the row count, a known retention policy — must fail
//! to decode with an error naming the problem, never panic and never
//! restore. Fields that older formats wrote still decode.

use faction_core::strategies::Random;
use faction_core::{ExperimentConfig, OnlineSession, PoolPolicy, SessionSnapshot, Strategy};
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_linalg::Matrix;
use serde::{Serialize, Value};

const WINDOW: usize = 12;

/// A `window:12` session past its 30-row warm start, so the pool is full
/// and has evicted: 12 rows, `next_uid` 30.
fn snapshot() -> SessionSnapshot {
    let stream = Dataset::Nysf.stream(0, Scale::Quick);
    let cfg = ExperimentConfig {
        pool_policy: PoolPolicy::SlidingWindow(WINDOW),
        ..ExperimentConfig::quick()
    };
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
    let strategy = Random;
    let mut session =
        OnlineSession::new(&arch, &cfg, 0, stream.num_classes, strategy.training_loss());
    session.warm_start(&stream.tasks[0]);
    assert_eq!(session.pool().len(), WINDOW);
    assert_eq!(session.pool().uid_range(), 18..30);
    session.snapshot(&strategy)
}

/// The pool object's fields inside a snapshot value tree.
fn pool_fields(snapshot: &mut Value) -> &mut Vec<(String, Value)> {
    let Value::Object(fields) = snapshot else { panic!("snapshot is an object") };
    match fields.iter_mut().find(|(k, _)| k == "pool") {
        Some((_, Value::Object(pool))) => pool,
        _ => panic!("snapshot has a pool object"),
    }
}

/// The snapshot's value tree with pool field `name` set to `value`
/// (replaced when present, appended otherwise).
fn with_pool_field(snapshot: &SessionSnapshot, name: &str, value: Value) -> Value {
    let mut tree = snapshot.to_value();
    let pool = pool_fields(&mut tree);
    pool.retain(|(k, _)| k != name);
    pool.push((name.to_string(), value));
    tree
}

fn decode(value: &Value) -> Result<SessionSnapshot, String> {
    let bytes = faction_wire::to_wire(faction_wire::PayloadKind::SessionSnapshot, value)
        .expect("snapshot encodes");
    SessionSnapshot::from_wire_bytes(&bytes).map_err(|e| e.to_string())
}

#[test]
fn inconsistent_pools_fail_decode_with_a_named_error() {
    let snap = snapshot();
    let labels: Vec<usize> = vec![0; WINDOW + 1];
    let sensitives: Vec<i8> = vec![1; WINDOW - 1];
    let cases = [
        ("labels", labels.to_value(), "13 labels, 12 sensitives and 12 feature rows"),
        ("sensitives", sensitives.to_value(), "12 labels, 11 sensitives and 12 feature rows"),
        ("features", Matrix::zeros(3, 2).to_value(), "12 labels, 12 sensitives and 3 feature rows"),
        ("policy", Value::Str("window:8".into()), "12 rows under `window:8`, above its capacity 8"),
        ("next_uid", 11u64.to_value(), "`next_uid` 11 is below its 12 rows"),
        ("policy", Value::Str("reservoir:12:7".into()), "`reservoir:12:7`: unknown pool policy"),
    ];
    for (field, value, want) in cases {
        let err = decode(&with_pool_field(&snap, field, value)).expect_err(field);
        assert!(err.contains("LabeledPool") && err.contains(want), "`{field}`: got {err}");
    }
}

#[test]
fn fields_of_older_formats_are_ignored() {
    let snap = snapshot();
    let mut tree = snap.to_value();
    pool_fields(&mut tree).extend([
        ("uids".to_string(), vec![0u64, 5, 7].to_value()),
        ("log".to_string(), Value::Array(vec![])),
        ("log_base".to_string(), 4096u64.to_value()),
        ("eviction_seed".to_string(), 99u64.to_value()),
        ("seen".to_string(), 30u64.to_value()),
    ]);
    let restored = decode(&tree).expect("a snapshot with every retired field decodes");
    assert_eq!(restored.to_value(), snap.to_value());
    // Pre-uid snapshots had no `next_uid`: the rows take the first uids.
    pool_fields(&mut tree).retain(|(k, _)| k != "next_uid");
    let mut restored = decode(&tree).expect("a snapshot without `next_uid` decodes").to_value();
    let next_uid = pool_fields(&mut restored).iter().find(|(k, _)| k == "next_uid").cloned();
    assert_eq!(next_uid, Some(("next_uid".to_string(), (WINDOW as u64).to_value())));
}
