//! Crash-safe online learning: checkpoint the learner mid-stream, "crash",
//! restore, and verify the resumed learner continues exactly where the
//! original left off.
//!
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```

use faction::prelude::*;

fn adapt_to_task(model: &mut OnlineModel, pool: &mut LabeledPool, task: &Task, budget: usize) {
    // Simplified adaptation: label a random subset within budget, retrain.
    let mut rng = SeedRng::new(task.id as u64 ^ 0xC0FFEE);
    let mut oracle = Oracle::new(task, budget);
    for i in rng.sample_indices(task.len(), budget) {
        if let Some(label) = oracle.query(i) {
            pool.push(task.samples[i].x.clone(), label, task.samples[i].sensitive);
        }
    }
    model.retrain(pool, &faction::nn::CrossEntropyLoss);
}

fn main() {
    let stream = Dataset::CelebA.stream(7, Scale::Quick);
    let cfg = ExperimentConfig::quick();
    let arch = faction::nn::presets::standard(stream.input_dim, stream.num_classes, 7);
    let mut model = OnlineModel::new(&arch, &cfg, 7);
    let mut pool = LabeledPool::new();

    // Process the first half of the stream.
    let half = stream.len() / 2;
    for task in &stream.tasks[..half] {
        adapt_to_task(&mut model, &mut pool, task, 30);
    }
    println!("processed {half} tasks; pool holds {} labeled samples", pool.len());

    // Checkpoint to disk.
    let path = std::env::temp_dir().join("faction_example_checkpoint.wire");
    Checkpoint::capture(model.mlp(), &pool, half)
        .save(&path)
        .expect("checkpoint saved");
    println!("checkpoint written to {} ({} bytes)", path.display(), std::fs::metadata(&path).unwrap().len());

    // --- simulated crash: everything above goes out of scope ---
    drop(model);
    drop(pool);

    // Restore and verify behavioral identity.
    let restored = Checkpoint::load(&path).expect("checkpoint loads");
    println!(
        "restored at task {}, pool size {}",
        restored.next_task,
        restored.pool.len()
    );
    let probe = stream.tasks[half].features();
    let preds = restored.model.predict(&probe);
    let labels = stream.tasks[half].labels();
    println!(
        "restored model accuracy on the next task: {:.3}",
        accuracy(&preds, &labels)
    );

    // Continue the stream from the checkpoint.
    let mut model = OnlineModel::new(&arch, &cfg, 7);
    let mut pool = restored.pool.clone();
    // Warm the fresh OnlineModel from the pool (optimizer state is
    // reconstructible; see checkpoint module docs).
    model.retrain(&pool, &faction::nn::CrossEntropyLoss);
    for task in &stream.tasks[restored.next_task..] {
        adapt_to_task(&mut model, &mut pool, task, 30);
    }
    let last = stream.tasks.last().unwrap();
    let final_preds = model.mlp().predict(&last.features());
    println!(
        "finished the stream after resume: final-task accuracy {:.3}, DDP {:.3}",
        accuracy(&final_preds, &last.labels()),
        ddp(&final_preds, &last.sensitives()),
    );
    std::fs::remove_file(&path).ok();
}
