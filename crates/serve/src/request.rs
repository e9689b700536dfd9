//! The serve workload language: newline-delimited requests and rendered
//! responses.
//!
//! A workload file is the server's wire format stand-in — a deterministic,
//! replayable script of client requests. One request per line:
//!
//! ```text
//! # comments and blank lines are skipped
//! open  <session> tenant=<t> dataset=<d> strategy=<s> seed=<n> [budget=N]
//!       [batch=N] [warm=N] [epochs=N] [mu=F] [pool=SPEC] [tasks=N] [samples=N]
//! task  <session> <index>     # enter task <index> of the session's stream
//! round <session>             # one feed→settle→train acquisition round
//! snapshot <session>          # serialize the session state machine
//! restore  <session>          # roll back to the last snapshot
//! close <session>             # release the slot and its name
//! drain                       # execute everything queued so far
//! ```
//!
//! Parsing is strict: every error carries the 1-based line number and names
//! the offending field, so `faction_cli serve` can refuse a malformed
//! workload with a usage error instead of panicking mid-stream.

use faction_core::{ExperimentConfig, PoolPolicy};
use faction_data::datasets::Dataset;
use faction_engine::STRATEGY_NAMES;

/// A workload parse failure: 1-based line number plus a message that names
/// the malformed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// 1-based line number in the workload file.
    pub line: usize,
    /// What was wrong, naming the field (e.g. `` `seed` must be an integer``).
    pub message: String,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WorkloadError {}

/// Everything an `open` request pins down about the session it creates.
///
/// The protocol config starts from the server's base config and applies the
/// line's overrides, so a session's behavior is a pure function of this
/// spec (plus the base config) — never of what other tenants opened.
#[derive(Debug, Clone)]
pub struct OpenSpec {
    /// Session name — the key every later request addresses.
    pub session: String,
    /// Tenant the session bills its label queries to.
    pub tenant: String,
    /// Benchmark stream the session consumes.
    pub dataset: Dataset,
    /// Strategy registry name (validated against [`STRATEGY_NAMES`]).
    pub strategy: String,
    /// Seed for the stream, weight init, and the session RNG.
    pub seed: u64,
    /// Protocol configuration after applying the line's overrides.
    pub cfg: ExperimentConfig,
    /// Keep only the first N tasks of the stream.
    pub truncate_tasks: Option<usize>,
    /// Keep only the first N samples of every task.
    pub truncate_samples: Option<usize>,
}

/// One parsed workload request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Open a session (admission-controlled).
    Open(OpenSpec),
    /// Enter task `index` of the session's stream (evaluates the model).
    Task {
        /// Target session name.
        session: String,
        /// Task index into the session's stream.
        index: usize,
    },
    /// Run one acquisition round: feed → tenant-budget settlement → train.
    Round {
        /// Target session name.
        session: String,
    },
    /// Serialize the session's full state machine.
    Snapshot {
        /// Target session name.
        session: String,
    },
    /// Roll the session back to its most recent snapshot.
    Restore {
        /// Target session name.
        session: String,
    },
    /// Close the session, releasing its slot and name.
    Close {
        /// Target session name.
        session: String,
    },
    /// Execute every queued request (a scheduling barrier in the script).
    Drain,
}

/// One response in the decision trace, keyed to its request's submission
/// order. [`Response::render`] is the byte-deterministic wire line.
#[derive(Debug, Clone)]
pub enum Response {
    /// Session admitted and booted.
    Opened {
        /// Session name.
        session: String,
        /// Billing tenant.
        tenant: String,
        /// Tasks in the session's stream after truncation.
        tasks: usize,
    },
    /// Admission refused: the session table is full.
    Shed {
        /// Session name that was refused.
        session: String,
        /// Open sessions at refusal time.
        open: usize,
        /// The configured table bound.
        max: usize,
    },
    /// Backpressure: the session's inbox is full; retry after a drain.
    Busy {
        /// Session name whose inbox is full.
        session: String,
        /// The configured inbox bound.
        capacity: usize,
    },
    /// A request that could not be executed (unknown session, bad index, …).
    Error {
        /// Session name the request addressed.
        session: String,
        /// What went wrong.
        message: String,
    },
    /// Task entered; the model was evaluated on it first (prequential).
    TaskStarted {
        /// Session name.
        session: String,
        /// Task index.
        index: usize,
        /// Accuracy on the task before any of its labels are acquired.
        accuracy: f64,
        /// Demographic-parity gap.
        ddp: f64,
        /// Equalized-odds gap.
        eod: f64,
    },
    /// One acquisition round settled.
    Round {
        /// Session name.
        session: String,
        /// Global sample indices the strategy picked (ascending).
        picked: Vec<usize>,
        /// Labels granted by the tenant ledger.
        granted: usize,
        /// Labels denied (tenant budget exhausted).
        denied: usize,
        /// Whether the strategy panicked and the uniform fallback scored.
        degraded: bool,
        /// Training loss after retraining, if any labels were granted.
        train_loss: Option<f64>,
        /// Session label budget remaining after the round.
        budget_left: usize,
    },
    /// Session state serialized.
    Snapshotted {
        /// Session name.
        session: String,
        /// Serialized snapshot size in bytes.
        bytes: usize,
    },
    /// Session rolled back to its last snapshot.
    Restored {
        /// Session name.
        session: String,
    },
    /// Session closed.
    Closed {
        /// Session name.
        session: String,
        /// Label queries the session made over its lifetime.
        queries: usize,
    },
    /// A `drain` barrier completed.
    Drained {
        /// Execution waves the drain took.
        waves: usize,
    },
}

impl Response {
    /// Renders the deterministic trace line. The first token is the
    /// response kind, the second the session name (`-` for [`Self::Drained`]),
    /// so `grep '^[a-z]* <session> '` extracts one session's trace.
    pub fn render(&self) -> String {
        match self {
            Response::Opened { session, tenant, tasks } => {
                format!("opened {session} tenant={tenant} tasks={tasks}")
            }
            Response::Shed { session, open, max } => {
                format!("shed {session} sessions={open}/{max}")
            }
            Response::Busy { session, capacity } => {
                format!("busy {session} inbox={capacity}")
            }
            Response::Error { session, message } => format!("error {session} {message}"),
            Response::TaskStarted { session, index, accuracy, ddp, eod } => {
                format!("task {session} id={index} acc={accuracy} ddp={ddp} eod={eod}")
            }
            Response::Round { session, picked, granted, denied, degraded, train_loss, budget_left } => {
                let picked = if picked.is_empty() {
                    "-".to_string()
                } else {
                    picked.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(",")
                };
                let loss = match train_loss {
                    Some(l) => format!("{l}"),
                    None => "-".to_string(),
                };
                format!(
                    "round {session} picked={picked} granted={granted} denied={denied} \
                     degraded={degraded} loss={loss} budget={budget_left}"
                )
            }
            Response::Snapshotted { session, bytes } => {
                format!("snapshot {session} bytes={bytes}")
            }
            Response::Restored { session } => format!("restored {session}"),
            Response::Closed { session, queries } => {
                format!("closed {session} queries={queries}")
            }
            Response::Drained { waves } => format!("drained - waves={waves}"),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> WorkloadError {
    WorkloadError { line, message: message.into() }
}

fn parse_int<T: std::str::FromStr>(line: usize, field: &str, raw: &str) -> Result<T, WorkloadError> {
    raw.parse::<T>().map_err(|_| err(line, format!("`{field}` must be an integer (got `{raw}`)")))
}

/// Parses one `open` line's `key=value` tail against the base config.
fn parse_open(line_no: usize, session: &str, rest: &[&str], base: &ExperimentConfig) -> Result<OpenSpec, WorkloadError> {
    let mut tenant = None;
    let mut dataset = None;
    let mut strategy = None;
    let mut seed = None;
    let mut cfg = base.clone();
    let mut truncate_tasks = None;
    let mut truncate_samples = None;
    for token in rest {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected `key=value` in open, got `{token}`")))?;
        match key {
            "tenant" => tenant = Some(value.to_string()),
            "dataset" => {
                dataset = Some(Dataset::from_name(value).ok_or_else(|| {
                    err(line_no, format!("`dataset` unknown: `{value}`"))
                })?);
            }
            "strategy" => {
                if !STRATEGY_NAMES.contains(&value) {
                    return Err(err(line_no, format!("`strategy` unknown: `{value}`")));
                }
                strategy = Some(value.to_string());
            }
            "seed" => seed = Some(parse_int::<u64>(line_no, "seed", value)?),
            "budget" => cfg.budget = parse_int(line_no, "budget", value)?,
            "batch" => cfg.acquisition_batch = parse_int(line_no, "batch", value)?,
            "warm" => cfg.warm_start = parse_int(line_no, "warm", value)?,
            "epochs" => cfg.epochs_per_iteration = parse_int(line_no, "epochs", value)?,
            "mu" => {
                cfg.loss.mu = value
                    .parse()
                    .map_err(|_| err(line_no, format!("`mu` must be a number (got `{value}`)")))?;
            }
            "pool" => {
                cfg.pool_policy = PoolPolicy::parse(value)
                    .map_err(|e| err(line_no, format!("`pool` invalid: {e}")))?;
            }
            "tasks" => truncate_tasks = Some(parse_int(line_no, "tasks", value)?),
            "samples" => truncate_samples = Some(parse_int(line_no, "samples", value)?),
            other => return Err(err(line_no, format!("unknown field `{other}` in open"))),
        }
    }
    Ok(OpenSpec {
        session: session.to_string(),
        tenant: tenant.ok_or_else(|| err(line_no, "open is missing required field `tenant`"))?,
        dataset: dataset.ok_or_else(|| err(line_no, "open is missing required field `dataset`"))?,
        strategy: strategy
            .ok_or_else(|| err(line_no, "open is missing required field `strategy`"))?,
        seed: seed.ok_or_else(|| err(line_no, "open is missing required field `seed`"))?,
        cfg,
        truncate_tasks,
        truncate_samples,
    })
}

/// Parses a whole workload script. `base` is the server's default protocol
/// config; `open` lines start from it and apply their overrides.
pub fn parse_workload(text: &str, base: &ExperimentConfig) -> Result<Vec<Request>, WorkloadError> {
    let mut requests = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let need_session = |tokens: &[&str], verb: &str| -> Result<String, WorkloadError> {
            match tokens.get(1) {
                Some(name) if !name.contains('=') => Ok((*name).to_string()),
                _ => Err(err(line_no, format!("`{verb}` needs a session name"))),
            }
        };
        let request = match tokens[0] {
            "open" => {
                let session = need_session(&tokens, "open")?;
                Request::Open(parse_open(line_no, &session, &tokens[2..], base)?)
            }
            "task" => {
                let session = need_session(&tokens, "task")?;
                let raw = tokens
                    .get(2)
                    .ok_or_else(|| err(line_no, "`task` needs an `index` argument"))?;
                Request::Task { session, index: parse_int(line_no, "index", raw)? }
            }
            "round" => Request::Round { session: need_session(&tokens, "round")? },
            "snapshot" => Request::Snapshot { session: need_session(&tokens, "snapshot")? },
            "restore" => Request::Restore { session: need_session(&tokens, "restore")? },
            "close" => Request::Close { session: need_session(&tokens, "close")? },
            "drain" => Request::Drain,
            other => return Err(err(line_no, format!("unknown request `{other}`"))),
        };
        if !matches!(request, Request::Open(_) | Request::Task { .. } | Request::Drain)
            && tokens.len() > 2
        {
            return Err(err(line_no, format!("trailing tokens after `{}`", tokens[0])));
        }
        requests.push(request);
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn parses_a_mixed_workload() {
        let text = "\
# a comment
open a tenant=t0 dataset=rcmnist strategy=random seed=7 budget=10 batch=5 warm=8 tasks=2 samples=40
task a 0
round a   # inline comment
snapshot a
restore a
close a
drain
";
        let reqs = parse_workload(text, &base()).unwrap();
        assert_eq!(reqs.len(), 7);
        match &reqs[0] {
            Request::Open(spec) => {
                assert_eq!(spec.session, "a");
                assert_eq!(spec.tenant, "t0");
                assert_eq!(spec.dataset, Dataset::Rcmnist);
                assert_eq!(spec.seed, 7);
                assert_eq!(spec.cfg.budget, 10);
                assert_eq!(spec.cfg.acquisition_batch, 5);
                assert_eq!(spec.cfg.warm_start, 8);
                assert_eq!(spec.truncate_tasks, Some(2));
                assert_eq!(spec.truncate_samples, Some(40));
            }
            other => panic!("expected open, got {other:?}"),
        }
        assert!(matches!(&reqs[6], Request::Drain));
    }

    #[test]
    fn open_pool_override_parses_via_pool_policy() {
        let text = "open a tenant=t dataset=nysf strategy=entropy seed=1 pool=window:16\n";
        let reqs = parse_workload(text, &base()).unwrap();
        match &reqs[0] {
            Request::Open(spec) => assert_eq!(spec.cfg.pool_policy, PoolPolicy::SlidingWindow(16)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_name_the_field_and_line() {
        let cases: &[(&str, &str)] = &[
            ("open a tenant=t dataset=nope strategy=random seed=1", "`dataset` unknown"),
            ("open a tenant=t dataset=nysf strategy=wat seed=1", "`strategy` unknown"),
            ("open a tenant=t dataset=nysf strategy=random seed=x", "`seed` must be an integer"),
            ("open a tenant=t dataset=nysf strategy=random", "missing required field `seed`"),
            ("open a tenant=t dataset=nysf strategy=random seed=1 pool=window:0", "`pool` invalid"),
            ("open a tenant=t dataset=nysf strategy=random seed=1 pool=reservoir:8", "`pool` invalid"),
            ("open a tenant=t dataset=nysf strategy=random seed=1 frob=2", "unknown field `frob`"),
            ("task a", "`task` needs an `index`"),
            ("task a x", "`index` must be an integer"),
            ("round", "`round` needs a session name"),
            ("frobnicate a", "unknown request `frobnicate`"),
        ];
        for (text, want) in cases {
            let e = parse_workload(&format!("\n{text}\n"), &base()).unwrap_err();
            assert_eq!(e.line, 2, "{text}");
            assert!(e.message.contains(want), "`{text}` → `{}` (wanted `{want}`)", e.message);
        }
    }

    #[test]
    fn round_rejects_trailing_tokens() {
        let e = parse_workload("round a extra\n", &base()).unwrap_err();
        assert!(e.message.contains("trailing tokens"), "{}", e.message);
    }

    #[test]
    fn render_covers_every_variant_deterministically() {
        let lines = [
            Response::Opened { session: "a".into(), tenant: "t".into(), tasks: 3 }.render(),
            Response::Shed { session: "b".into(), open: 4, max: 4 }.render(),
            Response::Busy { session: "c".into(), capacity: 2 }.render(),
            Response::Error { session: "d".into(), message: "unknown session".into() }.render(),
            Response::TaskStarted { session: "a".into(), index: 1, accuracy: 0.5, ddp: 0.25, eod: 0.125 }
                .render(),
            Response::Round {
                session: "a".into(),
                picked: vec![3, 9],
                granted: 2,
                denied: 0,
                degraded: false,
                train_loss: Some(0.75),
                budget_left: 8,
            }
            .render(),
            Response::Round {
                session: "a".into(),
                picked: vec![],
                granted: 0,
                denied: 0,
                degraded: false,
                train_loss: None,
                budget_left: 0,
            }
            .render(),
            Response::Snapshotted { session: "a".into(), bytes: 420 }.render(),
            Response::Restored { session: "a".into() }.render(),
            Response::Closed { session: "a".into(), queries: 10 }.render(),
            Response::Drained { waves: 2 }.render(),
        ];
        assert_eq!(
            lines,
            [
                "opened a tenant=t tasks=3",
                "shed b sessions=4/4",
                "busy c inbox=2",
                "error d unknown session",
                "task a id=1 acc=0.5 ddp=0.25 eod=0.125",
                "round a picked=3,9 granted=2 denied=0 degraded=false loss=0.75 budget=8",
                "round a picked=- granted=0 denied=0 degraded=false loss=- budget=0",
                "snapshot a bytes=420",
                "restored a",
                "closed a queries=10",
                "drained - waves=2",
            ]
        );
        // Every line's second token is the session (or `-`), the per-session
        // trace filter contract.
        for line in &lines {
            assert!(line.split_whitespace().nth(1).is_some(), "{line}");
        }
    }
}
