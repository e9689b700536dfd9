//! Crash-safe online learning: snapshot a live FACTION session to disk
//! halfway through the stream, "crash", restore it into a fresh process
//! state, and check that the resumed run makes exactly the decisions an
//! uninterrupted run makes.
//!
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```

use faction::core::{OnlineSession, SessionSnapshot};
use faction::prelude::*;

/// One task's protocol rounds: what the session picked each round, plus
/// the accuracy of the model that arrived at the task.
#[derive(Debug, PartialEq)]
struct TaskTrace {
    accuracy_bits: u64,
    rounds: Vec<Vec<usize>>,
}

/// Drives `session` over `tasks` exactly as the batch runner does.
fn run_tasks(
    session: &mut OnlineSession,
    strategy: &mut dyn Strategy,
    tasks: &[Task],
    budget: usize,
) -> Vec<TaskTrace> {
    tasks
        .iter()
        .map(|task| {
            let eval = session.begin_task(task);
            let mut oracle = Oracle::new(task, budget);
            let mut rounds = Vec::new();
            while oracle.remaining() > 0 && session.has_candidates() {
                let decisions = session.feed(task, strategy);
                let labels: Vec<Option<usize>> =
                    decisions.picked.iter().map(|&g| oracle.query(g)).collect();
                session.apply_labels(task, &labels);
                rounds.push(decisions.picked);
            }
            TaskTrace { accuracy_bits: eval.accuracy.to_bits(), rounds }
        })
        .collect()
}

fn main() {
    let stream = Dataset::CelebA.stream(7, Scale::Quick);
    let cfg = ExperimentConfig::quick();
    let arch = faction::nn::presets::standard(stream.input_dim, stream.num_classes, 7);
    let new_strategy = || Faction::new(FactionParams { loss: cfg.loss, ..Default::default() });
    let new_session = |strategy: &Faction| {
        let mut session =
            OnlineSession::new(&arch, &cfg, 7, stream.num_classes, strategy.training_loss());
        session.warm_start(&stream.tasks[0]);
        session
    };
    let half = stream.len() / 2;

    // The reference: one uninterrupted pass over the whole stream.
    let mut strategy = new_strategy();
    let mut session = new_session(&strategy);
    let uninterrupted = run_tasks(&mut session, &mut strategy, &stream.tasks, cfg.budget);

    // The interrupted run: process the first half, then snapshot to disk.
    let mut strategy = new_strategy();
    let mut session = new_session(&strategy);
    let mut resumed = run_tasks(&mut session, &mut strategy, &stream.tasks[..half], cfg.budget);
    println!("processed {half} tasks; pool holds {} labeled samples", session.pool().len());
    let path = std::env::temp_dir().join("faction_example_session.wire");
    session.snapshot(&strategy).save(&path).expect("snapshot saved");
    println!(
        "snapshot written to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).expect("snapshot file exists").len()
    );

    // --- simulated crash: the live learner and its strategy are gone ---
    drop(session);
    drop(strategy);

    // Restore into a fresh strategy and finish the stream.
    let snapshot = SessionSnapshot::load(&path).expect("snapshot loads");
    let mut strategy = new_strategy();
    let mut session =
        OnlineSession::restore(&snapshot, &cfg, &mut strategy).expect("snapshot restores");
    println!("restored with a pool of {} labeled samples", session.pool().len());
    resumed.extend(run_tasks(&mut session, &mut strategy, &stream.tasks[half..], cfg.budget));

    assert_eq!(resumed, uninterrupted, "the resumed run must decide as the uninterrupted one");
    let rounds: usize = resumed.iter().map(|t| t.rounds.len()).sum();
    println!(
        "resumed run matches the uninterrupted one: {} tasks, {rounds} acquisition rounds, \
         identical picks and per-task accuracy",
        resumed.len()
    );

    let last = stream.tasks.last().expect("the stream has tasks");
    let final_preds = session.model().mlp().predict(&last.features());
    println!(
        "final-task accuracy {:.3}, DDP {:.3}",
        accuracy(&final_preds, &last.labels()),
        ddp(&final_preds, &last.sensitives()),
    );
    std::fs::remove_file(&path).ok();
}
