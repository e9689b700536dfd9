//! Allocation gate for counting a session snapshot's wire size.
//!
//! Serve answers every `snapshot` request with `bytes=N`, the size the
//! snapshot would have on disk, counted by `SessionSnapshot::wire_len`.
//! The count runs the wire encoder over the snapshot's own serialize walk
//! into a byte counter: no value tree, no buffer. Once the thread's key
//! table has grown to the snapshot's keys, counting must make no heap
//! allocation at all. The session runs `faction-incremental`, the strategy
//! whose snapshot is the largest (it carries the incremental GDA state),
//! mid-task after two rounds.

mod alloc_counter;

use alloc_counter::allocations_during;
use faction_core::{ExperimentConfig, OnlineSession};
use faction_data::datasets::Dataset;
use faction_data::Scale;

#[test]
fn wire_len_of_a_warm_incremental_snapshot_allocates_nothing() {
    let stream = Dataset::Rcmnist.stream_prefix(5, Scale::Quick, Some(2), Some(60));
    let cfg = ExperimentConfig {
        budget: 12,
        acquisition_batch: 4,
        warm_start: 10,
        epochs_per_iteration: 1,
        ..ExperimentConfig::quick()
    };
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 5);
    let mut strategy = faction_engine::build_strategy("faction-incremental", cfg.loss, 1.0, true)
        .expect("faction-incremental is a registry strategy");
    let mut session =
        OnlineSession::new(&arch, &cfg, 5, stream.num_classes, strategy.training_loss());
    session.warm_start(&stream.tasks[0]);
    let task = &stream.tasks[1];
    session.begin_task(task);
    for _ in 0..2 {
        let decisions = session.feed(task, strategy.as_mut());
        let labels: Vec<Option<usize>> =
            decisions.picked.iter().map(|&g| Some(task.samples[g].label)).collect();
        session.apply_labels(task, &labels);
    }
    let snapshot = session.snapshot(strategy.as_ref());
    let tree = serde::Serialize::to_value(&snapshot);
    let state = tree.as_object().and_then(|fields| serde::find_field(fields, "strategy_state"));
    assert!(
        matches!(state, Some(serde::Value::Object(_))),
        "an anchored faction-incremental snapshot carries strategy state"
    );
    let want = snapshot.to_wire_bytes().len();
    // The first count on this thread may grow the key table; later ones
    // reuse it.
    assert_eq!(snapshot.wire_len(), want);
    let mut counted = 0;
    let allocations = allocations_during(|| counted = snapshot.wire_len());
    assert_eq!(counted, want, "the counted length is the written one");
    assert_eq!(allocations, 0, "counting a warm snapshot's bytes allocated");
}
