//! The multi-tenant session manager: admission, wave execution, settlement.
//!
//! ## Execution model
//!
//! Requests are **submitted** sequentially (admission control: a bounded
//! session table and bounded per-session inboxes, answered with
//! [`Response::Shed`] / [`Response::Busy`] — never a silent drop) and
//! **executed** in waves at every `drain` barrier. One wave takes the front
//! request of every live inbox (per-session FIFO by construction) and runs
//! it in three steps:
//!
//! 1. **Phase A (parallel)** — the per-session compute: booting a session,
//!    evaluating a task, scoring candidates (`OnlineSession::feed`),
//!    capturing a snapshot. Fanned across the engine pool, whose idle
//!    workers pop one shared FIFO of the wave's slot ids; every session's
//!    state sits behind its own mutex, and nothing in this phase touches
//!    shared mutable state.
//! 2. **Settlement (sequential, ascending slot id)** — everything that
//!    touches shared state: tenant label-budget ledgers (grant or deny each
//!    picked index — the oracle denial path), lifecycle transitions,
//!    journal events, telemetry.
//! 3. **Phase B (parallel)** — retraining for every round whose settlement
//!    produced label decisions (denied labels still consume candidates and
//!    still retrain, exactly like the batch runner's oracle path).
//!
//! Because phases A and B are per-session pure and settlement order is
//! fixed by slot id (= admission order), the response trace is a pure
//! function of the workload script — worker count and schedule chaos
//! cannot reach it. The determinism suite pins this byte-for-byte.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use faction_core::{
    AcquisitionDecisions, OnlineSession, SessionSnapshot, Strategy, TrainOutcome,
};
use faction_data::{Scale, TaskStream};
use faction_engine::{
    build_strategy, resolve_workers, scoped_for_each, scoped_for_each_chaos, ChaosSchedule,
    Journal,
};
use faction_telemetry::{Clock, Handle};

use crate::request::{OpenSpec, Request, Response};

/// Server-level configuration: pool shape, bounds, and chaos injection.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for the wave phases.
    pub workers: usize,
    /// When set, every parallel phase runs under this chaos schedule
    /// (salted per wave) — the determinism suite's schedule perturbation.
    pub chaos: Option<ChaosSchedule>,
    /// Admission bound: `open` beyond this many live sessions is shed.
    pub max_sessions: usize,
    /// Backpressure bound: requests past this many queued per session are
    /// answered `busy`.
    pub inbox_capacity: usize,
    /// Label grants per tenant across all of its sessions (the shared
    /// oracle ledger).
    pub tenant_budget: usize,
    /// Telemetry sink for `serve.*` keys and the per-session core metrics.
    pub recorder: Handle,
    /// When set, the lifecycle journal streams to this path as CRC-framed
    /// `faction-wire` records, one flushed append per event — a killed
    /// server leaves a salvageable prefix (`Journal::replay`). Serve
    /// journals carry no batch summary record; replay yields
    /// `summary: None` by design.
    pub journal_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: resolve_workers(None),
            chaos: None,
            max_sessions: 1024,
            inbox_capacity: 32,
            tenant_budget: 100_000,
            recorder: Handle::noop(),
            journal_path: None,
        }
    }
}

/// A deferred request in a session inbox.
enum SessionOp {
    /// Deferred heavy half of `open`: stream generation, model init, warm
    /// start. Admission already happened at submit.
    Boot,
    Task(usize),
    Round,
    Snapshot,
    Restore,
    Close,
}

/// What Phase A computed for a slot, consumed by settlement.
enum PhaseA {
    Opened { tasks: usize },
    TaskStarted { index: usize, accuracy: f64, ddp: f64, eod: f64 },
    RoundFed(AcquisitionDecisions),
    Snapshotted { bytes: usize },
    Restored,
    Closing,
    Failed(String),
}

/// Round bookkeeping carried from settlement into Phase B finalization.
struct RoundPartial {
    seq: u64,
    picked: Vec<usize>,
    granted: usize,
    denied: usize,
    degraded: bool,
}

/// One session's slot: identity, live state machine, inbox, wave scratch.
struct SessionSlot {
    name: String,
    tenant: String,
    spec: OpenSpec,
    open: bool,
    stream: TaskStream,
    session: Option<OnlineSession>,
    strategy: Option<Box<dyn Strategy>>,
    cur_task: Option<usize>,
    /// Last snapshot: the task cursor at capture time plus the typed
    /// [`SessionSnapshot`]. It never leaves the process, so it is kept as
    /// state, not as wire bytes: `restore` rebuilds the session from it
    /// directly, and `snapshot` reports the wire size from a counting pass.
    stash: Option<(Option<usize>, SessionSnapshot)>,
    inbox: VecDeque<(u64, SessionOp)>,
    // Per-wave scratch, all drained before the wave ends.
    current: Option<(u64, SessionOp)>,
    phase_a: Option<PhaseA>,
    round: Option<RoundPartial>,
    labels: Option<Vec<Option<usize>>>,
    outcome: Option<TrainOutcome>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The long-lived multi-tenant server (see the module docs for the
/// execution model). Drive it with [`SessionManager::run`] or the
/// [`SessionManager::submit`] / [`SessionManager::drain`] pair.
pub struct SessionManager {
    cfg: ServeConfig,
    slots: Vec<Mutex<SessionSlot>>,
    names: BTreeMap<String, usize>,
    ledgers: BTreeMap<String, usize>,
    /// Every answer so far in `seq` order, and their `seq`s alongside.
    responses: Vec<Response>,
    answered: Vec<u64>,
    journal: Journal,
    next_seq: u64,
    open_count: usize,
    waves_run: u64,
}

impl SessionManager {
    /// A fresh server with an empty session table.
    pub fn new(cfg: ServeConfig) -> SessionManager {
        let journal = match &cfg.journal_path {
            Some(path) => Journal::start_streaming(path).unwrap_or_else(|e| {
                // A journal that cannot open must not refuse service: fall
                // back to in-memory collection, but say so.
                eprintln!(
                    "warning: could not open journal stream at {}: {e}; \
                     journal will be in-memory only",
                    path.display()
                );
                cfg.recorder.counter_add("serve.journal.open_errors", 1);
                Journal::start()
            }),
            None => Journal::start(),
        };
        SessionManager {
            cfg,
            slots: Vec::new(),
            names: BTreeMap::new(),
            ledgers: BTreeMap::new(),
            responses: Vec::new(),
            answered: Vec::new(),
            journal,
            next_seq: 0,
            open_count: 0,
            waves_run: 0,
        }
    }

    /// Fsyncs and closes the streamed journal, if one is attached. Serve
    /// journals have no summary record (the server has no batch end), so
    /// this is a pure durability barrier. Returns `false` if any stream
    /// write or the final sync failed — the in-memory journal is still
    /// complete in that case.
    pub fn finish_journal(&self) -> bool {
        let ok = self.journal.close_stream();
        let sink_errors = self.journal.sink_errors();
        if sink_errors > 0 {
            self.cfg.recorder.counter_add("serve.journal.write_errors", sink_errors);
        }
        ok && sink_errors == 0
    }

    /// Live (admitted, not yet closed) sessions.
    pub fn open_sessions(&self) -> usize {
        self.open_count
    }

    /// Waves executed so far across all drains.
    pub fn waves_run(&self) -> u64 {
        self.waves_run
    }

    /// Submits one request: admission control and inbox enqueue. Refusals
    /// ([`Response::Shed`], [`Response::Busy`], [`Response::Error`]) are
    /// answered immediately; everything else executes at the next drain.
    /// A [`Request::Drain`] runs [`Self::drain`] inline.
    pub fn submit(&mut self, request: &Request) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.cfg.recorder.counter_add("serve.requests", 1);
        match request {
            Request::Open(spec) => self.submit_open(seq, spec),
            Request::Drain => {
                let waves = self.drain();
                self.answer(seq, Response::Drained { waves });
            }
            Request::Task { session, .. }
            | Request::Round { session }
            | Request::Snapshot { session }
            | Request::Restore { session }
            | Request::Close { session } => {
                let op = match request {
                    Request::Task { index, .. } => SessionOp::Task(*index),
                    Request::Round { .. } => SessionOp::Round,
                    Request::Snapshot { .. } => SessionOp::Snapshot,
                    Request::Restore { .. } => SessionOp::Restore,
                    Request::Close { .. } => SessionOp::Close,
                    Request::Open(_) | Request::Drain => unreachable!("handled above"),
                };
                self.enqueue(seq, session, op);
            }
        }
    }

    fn submit_open(&mut self, seq: u64, spec: &OpenSpec) {
        if self.names.contains_key(&spec.session) {
            self.cfg.recorder.counter_add("serve.requests.error", 1);
            self.answer(
                seq,
                Response::Error {
                    session: spec.session.clone(),
                    message: "session name already open".to_string(),
                },
            );
            return;
        }
        if self.open_count >= self.cfg.max_sessions {
            self.cfg.recorder.counter_add("serve.sessions.shed", 1);
            self.journal.record(
                &spec.session,
                "shed",
                0,
                0,
                0.0,
                &format!("session table full ({}/{})", self.open_count, self.cfg.max_sessions),
            );
            self.answer(
                seq,
                Response::Shed {
                    session: spec.session.clone(),
                    open: self.open_count,
                    max: self.cfg.max_sessions,
                },
            );
            return;
        }
        let slot_id = self.slots.len();
        let mut inbox = VecDeque::new();
        inbox.push_back((seq, SessionOp::Boot));
        self.slots.push(Mutex::new(SessionSlot {
            name: spec.session.clone(),
            tenant: spec.tenant.clone(),
            spec: spec.clone(),
            open: true,
            // Empty until Boot executes: streams are generated on the pool,
            // not on the submission path.
            stream: TaskStream { name: String::new(), input_dim: 0, num_classes: 0, tasks: Vec::new() },
            session: None,
            strategy: None,
            cur_task: None,
            stash: None,
            inbox,
            current: None,
            phase_a: None,
            round: None,
            labels: None,
            outcome: None,
        }));
        self.names.insert(spec.session.clone(), slot_id);
        self.open_count += 1;
    }

    fn enqueue(&mut self, seq: u64, session: &str, op: SessionOp) {
        let Some(&slot_id) = self.names.get(session) else {
            self.cfg.recorder.counter_add("serve.requests.error", 1);
            self.answer(
                seq,
                Response::Error {
                    session: session.to_string(),
                    message: "unknown session".to_string(),
                },
            );
            return;
        };
        let mut slot = lock(&self.slots[slot_id]);
        if slot.inbox.len() >= self.cfg.inbox_capacity {
            self.cfg.recorder.counter_add("serve.requests.busy", 1);
            self.journal.record(
                &slot.name,
                "busy",
                0,
                0,
                0.0,
                &format!("inbox full ({} queued)", slot.inbox.len()),
            );
            drop(slot);
            self.answer(
                seq,
                Response::Busy { session: session.to_string(), capacity: self.cfg.inbox_capacity },
            );
            return;
        }
        slot.inbox.push_back((seq, op));
    }

    /// Executes every queued request, one wave per inbox depth, and returns
    /// the number of waves run.
    pub fn drain(&mut self) -> usize {
        let mut waves = 0usize;
        loop {
            let wave: Vec<usize> = (0..self.slots.len())
                .filter(|&sid| {
                    let mut slot = lock(&self.slots[sid]);
                    match slot.inbox.pop_front() {
                        Some(op) => {
                            slot.current = Some(op);
                            true
                        }
                        None => false,
                    }
                })
                .collect();
            if wave.is_empty() {
                break;
            }
            waves += 1;
            self.waves_run += 1;
            self.cfg.recorder.counter_add("serve.waves", 1);
            // Wave attribution: one `_ns` observation per step per wave.
            // The clock is read only under a live recorder, and nothing
            // reads the durations back.
            let clock = self.step_clock();
            self.run_phase_a(&wave);
            self.record_step("serve.phase_a_ns", clock);
            let clock = self.step_clock();
            let round_slots = self.settle(&wave);
            self.record_step("serve.settle_ns", clock);
            let clock = self.step_clock();
            self.run_phase_b(&round_slots);
            self.record_step("serve.phase_b_ns", clock);
            self.finalize_rounds(&round_slots);
        }
        waves
    }

    fn step_clock(&self) -> Option<Clock> {
        self.cfg.recorder.enabled().then(Clock::start)
    }

    fn record_step(&self, key: &str, clock: Option<Clock>) {
        if let Some(clock) = clock {
            self.cfg.recorder.observe(key, clock.elapsed_ns());
        }
    }

    /// Fans `f` over the slot ids on the engine pool — under the configured
    /// chaos schedule (salted with the wave ordinal) when chaos is on.
    fn fan_out(&self, slot_ids: &[usize], f: impl Fn(&mut SessionSlot) + Sync) {
        let slots = &self.slots;
        let handle = self.cfg.recorder.clone();
        let body = |_idx: usize, sid: &usize| {
            // Telemetry scopes are per-thread: enter on the worker so the
            // session's core.* counters land in the server's registry.
            let _scope = handle.enter();
            f(&mut lock(&slots[*sid]));
        };
        match self.cfg.chaos {
            Some(ChaosSchedule(seed)) => {
                scoped_for_each_chaos(
                    self.cfg.workers,
                    slot_ids,
                    ChaosSchedule(seed ^ self.waves_run),
                    &self.cfg.recorder,
                    body,
                );
            }
            None => {
                scoped_for_each(self.cfg.workers, slot_ids, body);
            }
        }
    }

    fn run_phase_a(&self, wave: &[usize]) {
        self.fan_out(wave, |slot| {
            #[expect(
                clippy::expect_used,
                reason = "`drain` staged `current` for every wave member one line above"
            )]
            let (_, op) = slot.current.as_ref().expect("wave slot has a current op");
            let result = match op {
                SessionOp::Boot => boot(slot),
                SessionOp::Task(index) => begin_task(slot, *index),
                SessionOp::Round => feed(slot),
                SessionOp::Snapshot => snapshot(slot),
                SessionOp::Restore => restore(slot),
                SessionOp::Close => PhaseA::Closing,
            };
            slot.phase_a = Some(result);
        });
    }

    /// The sequential heart of the wave: everything that touches shared
    /// state runs here, in ascending slot id (= admission order), so no
    /// outcome can depend on which worker finished Phase A first. Returns
    /// the slots whose rounds go on to Phase B.
    fn settle(&mut self, wave: &[usize]) -> Vec<usize> {
        let mut round_slots = Vec::new();
        for &sid in wave {
            let mut slot = lock(&self.slots[sid]);
            #[expect(
                clippy::expect_used,
                reason = "`drain` staged `current` for every wave member"
            )]
            let (seq, _) = slot.current.take().expect("settlement consumes the wave op");
            #[expect(
                clippy::expect_used,
                reason = "`run_phase_a` wrote `phase_a` for every wave member"
            )]
            let phase_a = slot.phase_a.take().expect("phase A ran for every wave slot");
            match phase_a {
                PhaseA::Opened { tasks } => {
                    self.cfg.recorder.counter_add("serve.sessions.opened", 1);
                    self.journal.record(
                        &slot.name,
                        "open",
                        0,
                        sid,
                        0.0,
                        &format!(
                            "tenant={} dataset={} strategy={}",
                            slot.tenant,
                            slot.spec.dataset.name(),
                            slot.spec.strategy
                        ),
                    );
                    let response = Response::Opened {
                        session: slot.name.clone(),
                        tenant: slot.tenant.clone(),
                        tasks,
                    };
                    drop(slot);
                    self.answer(seq, response);
                }
                PhaseA::TaskStarted { index, accuracy, ddp, eod } => {
                    let response = Response::TaskStarted {
                        session: slot.name.clone(),
                        index,
                        accuracy,
                        ddp,
                        eod,
                    };
                    drop(slot);
                    self.answer(seq, response);
                }
                PhaseA::RoundFed(decisions) => {
                    self.cfg.recorder.counter_add("serve.rounds", 1);
                    if decisions.degraded {
                        self.cfg.recorder.counter_add("serve.rounds.degraded", 1);
                    }
                    if decisions.picked.is_empty() {
                        let response = Response::Round {
                            session: slot.name.clone(),
                            picked: Vec::new(),
                            granted: 0,
                            denied: 0,
                            degraded: decisions.degraded,
                            train_loss: None,
                            budget_left: slot
                                .session
                                .as_ref()
                                .map_or(0, OnlineSession::budget_remaining),
                        };
                        drop(slot);
                        self.answer(seq, response);
                        continue;
                    }
                    // Tenant-ledger settlement: the shared oracle. A grant
                    // consumes one ledger unit; exhaustion denies (the
                    // session still consumes the candidate and retrains —
                    // the batch runner's denial path).
                    let ledger = self
                        .ledgers
                        .entry(slot.tenant.clone())
                        .or_insert(self.cfg.tenant_budget);
                    #[expect(
                        clippy::expect_used,
                        reason = "`feed` returns Failed, not RoundFed, without an active task"
                    )]
                    let task = &slot.stream.tasks[slot.cur_task.expect("round fed ⇒ active task")];
                    let mut granted = 0usize;
                    let labels: Vec<Option<usize>> = decisions
                        .picked
                        .iter()
                        .map(|&g| {
                            if *ledger > 0 {
                                *ledger -= 1;
                                granted += 1;
                                Some(task.samples[g].label)
                            } else {
                                None
                            }
                        })
                        .collect();
                    let denied = labels.len() - granted;
                    self.cfg.recorder.counter_add("serve.labels.granted", granted as u64);
                    self.cfg.recorder.counter_add("serve.labels.denied", denied as u64);
                    slot.round = Some(RoundPartial {
                        seq,
                        picked: decisions.picked,
                        granted,
                        denied,
                        degraded: decisions.degraded,
                    });
                    slot.labels = Some(labels);
                    round_slots.push(sid);
                }
                PhaseA::Snapshotted { bytes } => {
                    self.cfg.recorder.counter_add("serve.snapshots", 1);
                    self.journal.record(&slot.name, "snapshot", 0, sid, 0.0, &format!("{bytes} bytes"));
                    let response = Response::Snapshotted { session: slot.name.clone(), bytes };
                    drop(slot);
                    self.answer(seq, response);
                }
                PhaseA::Restored => {
                    self.cfg.recorder.counter_add("serve.sessions.restored", 1);
                    self.journal.record(&slot.name, "restore", 0, sid, 0.0, "rolled back to snapshot");
                    let response = Response::Restored { session: slot.name.clone() };
                    drop(slot);
                    self.answer(seq, response);
                }
                PhaseA::Closing => {
                    let queries = slot.session.as_ref().map_or(0, OnlineSession::queries_made);
                    slot.open = false;
                    self.cfg.recorder.counter_add("serve.sessions.closed", 1);
                    self.journal.record(&slot.name, "close", 0, sid, 0.0, &format!("{queries} queries"));
                    let name = slot.name.clone();
                    // Reject anything still queued behind the close.
                    let leftovers: Vec<u64> = slot.inbox.drain(..).map(|(s, _)| s).collect();
                    drop(slot);
                    self.names.remove(&name);
                    self.open_count -= 1;
                    self.answer(seq, Response::Closed { session: name.clone(), queries });
                    for left in leftovers {
                        self.cfg.recorder.counter_add("serve.requests.error", 1);
                        self.answer(
                            left,
                            Response::Error {
                                session: name.clone(),
                                message: "session closed".to_string(),
                            },
                        );
                    }
                }
                PhaseA::Failed(message) => {
                    self.cfg.recorder.counter_add("serve.requests.error", 1);
                    let response = Response::Error { session: slot.name.clone(), message };
                    drop(slot);
                    self.answer(seq, response);
                }
            }
        }
        round_slots
    }

    fn run_phase_b(&self, round_slots: &[usize]) {
        if round_slots.is_empty() {
            return;
        }
        self.fan_out(round_slots, |slot| {
            #[expect(
                clippy::expect_used,
                reason = "settlement staged labels for every member of `round_slots`"
            )]
            let labels = slot.labels.take().expect("settlement staged labels");
            let SessionSlot { stream, session, cur_task, .. } = slot;
            #[expect(
                clippy::expect_used,
                reason = "`feed` returns Failed, not RoundFed, without an active task"
            )]
            let task = &stream.tasks[cur_task.expect("round fed ⇒ active task")];
            #[expect(
                clippy::expect_used,
                reason = "`feed` returns Failed, not RoundFed, on an unbooted session"
            )]
            let session = session.as_mut().expect("round fed ⇒ booted session");
            slot.outcome = Some(session.apply_labels(task, &labels));
        });
    }

    fn finalize_rounds(&mut self, round_slots: &[usize]) {
        for &sid in round_slots {
            let mut slot = lock(&self.slots[sid]);
            #[expect(
                clippy::expect_used,
                reason = "settlement staged the partial for every member of `round_slots`"
            )]
            let partial = slot.round.take().expect("settlement staged the round");
            #[expect(
                clippy::expect_used,
                reason = "`run_phase_b` wrote the outcome for every member of `round_slots`"
            )]
            let outcome = slot.outcome.take().expect("phase B ran for every round slot");
            let response = Response::Round {
                session: slot.name.clone(),
                picked: partial.picked,
                granted: partial.granted,
                denied: partial.denied,
                degraded: partial.degraded,
                train_loss: Some(outcome.train_loss),
                budget_left: slot.session.as_ref().map_or(0, OnlineSession::budget_remaining),
            };
            drop(slot);
            self.answer(partial.seq, response);
        }
    }

    /// Submits every request in order (draining at each [`Request::Drain`])
    /// and finishes with an implicit drain so nothing stays queued.
    pub fn run(&mut self, requests: &[Request]) {
        for request in requests {
            self.submit(request);
        }
        self.drain();
    }

    /// Files an answer at its `seq`. Answers mostly arrive in order, but a
    /// refusal answered at submit lands ahead of the wave answers to the
    /// requests queued before it, so the position is a binary search.
    fn answer(&mut self, seq: u64, response: Response) {
        let at = self.answered.partition_point(|&s| s < seq);
        self.answered.insert(at, seq);
        self.responses.insert(at, response);
    }

    /// All responses so far in submission (`seq`) order, read in place.
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// The full decision trace: one rendered line per response, in
    /// submission order. Byte-deterministic for a given workload + config.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for response in self.responses() {
            out.push_str(&response.render());
            out.push('\n');
        }
        out
    }

    /// One session's slice of the trace (lines whose second token is
    /// `session`), preserving order — the per-client view.
    pub fn session_trace(&self, session: &str) -> String {
        let mut out = String::new();
        for line in self.render_trace().lines() {
            if line.split_whitespace().nth(1) == Some(session) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

// ---- Phase A bodies (per-session pure; no shared state) -------------------

fn boot(slot: &mut SessionSlot) -> PhaseA {
    let spec = &slot.spec;
    let stream =
        spec.dataset.stream_prefix(spec.seed, Scale::Quick, spec.truncate_tasks, spec.truncate_samples);
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, spec.seed);
    // Parse already validated the name; answering Failed keeps the server
    // panic-free even if that contract ever slips.
    let Some(strategy) = build_strategy(&spec.strategy, spec.cfg.loss, 1.0, true) else {
        return PhaseA::Failed(format!("unknown strategy `{}`", spec.strategy));
    };
    let mut session =
        OnlineSession::new(&arch, &spec.cfg, spec.seed, stream.num_classes, strategy.training_loss());
    if let Some(first) = stream.tasks.first() {
        session.warm_start(first);
    }
    let tasks = stream.tasks.len();
    slot.stream = stream;
    slot.session = Some(session);
    slot.strategy = Some(strategy);
    PhaseA::Opened { tasks }
}

fn begin_task(slot: &mut SessionSlot, index: usize) -> PhaseA {
    let SessionSlot { stream, session, cur_task, .. } = slot;
    let Some(task) = stream.tasks.get(index) else {
        return PhaseA::Failed(format!(
            "task index {index} out of range ({} tasks)",
            stream.tasks.len()
        ));
    };
    let Some(session) = session.as_mut() else {
        return PhaseA::Failed("session not booted".to_string());
    };
    let eval = session.begin_task(task);
    *cur_task = Some(index);
    PhaseA::TaskStarted { index, accuracy: eval.accuracy, ddp: eval.ddp, eod: eval.eod }
}

fn feed(slot: &mut SessionSlot) -> PhaseA {
    let SessionSlot { stream, session, strategy, cur_task, .. } = slot;
    let Some(task_index) = *cur_task else {
        return PhaseA::Failed("no active task (send `task` first)".to_string());
    };
    let task = &stream.tasks[task_index];
    let (Some(session), Some(strategy)) = (session.as_mut(), strategy.as_mut()) else {
        return PhaseA::Failed("session not booted".to_string());
    };
    // feed→decision latency span, observability only — wall clock never
    // feeds back into the decision trace.
    let decisions = {
        let _feed_span = faction_telemetry::span("serve.feed_ns");
        session.feed(task, strategy.as_mut())
    };
    PhaseA::RoundFed(decisions)
}

fn snapshot(slot: &mut SessionSlot) -> PhaseA {
    let (Some(session), Some(strategy)) = (slot.session.as_ref(), slot.strategy.as_ref()) else {
        return PhaseA::Failed("session not booted".to_string());
    };
    // analyzer:allow(telemetry-on-hot-path): OnlineSession state capture, not a telemetry registry merge
    let snapshot = session.snapshot(strategy.as_ref());
    // The size the snapshot would have on disk, counted without writing it.
    let bytes = snapshot.wire_len();
    slot.stash = Some((slot.cur_task, snapshot));
    PhaseA::Snapshotted { bytes }
}

fn restore(slot: &mut SessionSlot) -> PhaseA {
    // Restore reads the stash without taking it, for a later restore.
    let Some((stashed_task, snapshot)) = slot.stash.as_ref() else {
        return PhaseA::Failed("no snapshot to restore".to_string());
    };
    let stashed_task = *stashed_task;
    let Some(mut strategy) = build_strategy(&slot.spec.strategy, slot.spec.cfg.loss, 1.0, true)
    else {
        return PhaseA::Failed(format!("unknown strategy `{}`", slot.spec.strategy));
    };
    match OnlineSession::restore(snapshot, &slot.spec.cfg, strategy.as_mut()) {
        Ok(session) => {
            slot.session = Some(session);
            slot.strategy = Some(strategy);
            slot.cur_task = stashed_task;
            PhaseA::Restored
        }
        Err(e) => PhaseA::Failed(format!("restore failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use faction_telemetry::Registry;

    use super::*;
    use crate::request::parse_workload;

    fn quick_base() -> faction_core::ExperimentConfig {
        faction_core::ExperimentConfig {
            budget: 10,
            acquisition_batch: 5,
            warm_start: 8,
            epochs_per_iteration: 2,
            train_batch_size: 16,
            ..faction_core::ExperimentConfig::quick()
        }
    }

    fn run_workload(text: &str, cfg: ServeConfig) -> SessionManager {
        let requests = parse_workload(text, &quick_base()).expect("test workload parses");
        let mut manager = SessionManager::new(cfg);
        manager.run(&requests);
        manager
    }

    const TINY_OPEN: &str = "tenant=t0 dataset=rcmnist strategy=random seed=3 tasks=1 samples=60";

    #[test]
    fn lifecycle_trace_counters_and_journal_agree() {
        let registry = Arc::new(Registry::new());
        let cfg = ServeConfig { recorder: Handle::from(registry.clone()), ..ServeConfig::default() };
        let manager = run_workload(
            &format!("open a {TINY_OPEN}\ntask a 0\nround a\nsnapshot a\nclose a\n"),
            cfg,
        );
        let trace = manager.render_trace();
        let kinds: Vec<&str> =
            trace.lines().map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(kinds, ["opened", "task", "round", "snapshot", "closed"], "{trace}");
        assert!(trace.contains("opened a tenant=t0 tasks=1"), "{trace}");
        // The round queried something: 5 picks, all granted.
        assert!(trace.contains("picked="), "{trace}");
        assert!(trace.contains("granted=5 denied=0"), "{trace}");
        assert!(trace.contains("closed a queries=5"), "{trace}");

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("serve.requests"), Some(5));
        assert_eq!(snapshot.counter("serve.sessions.opened"), Some(1));
        assert_eq!(snapshot.counter("serve.rounds"), Some(1));
        assert_eq!(snapshot.counter("serve.labels.granted"), Some(5));
        assert_eq!(snapshot.counter("serve.snapshots"), Some(1));
        assert_eq!(snapshot.counter("serve.sessions.closed"), Some(1));
        // The per-session core loop recorded into the same registry from
        // the worker threads (ambient scope entered per closure).
        assert_eq!(snapshot.counter("core.runner.rounds"), Some(1));
        assert_eq!(snapshot.counter("core.oracle.queries"), Some(5));

        let journal = manager.journal.events();
        for kind in ["open", "snapshot", "close"] {
            assert!(journal.iter().any(|e| e.kind == kind), "journal missing {kind}: {journal:?}");
        }
        assert_eq!(manager.open_sessions(), 0);
    }

    #[test]
    fn session_table_bound_sheds_with_a_visible_response() {
        let manager = run_workload(
            &format!("open a {TINY_OPEN}\nopen b {TINY_OPEN}\nopen c {TINY_OPEN}\n"),
            ServeConfig { max_sessions: 2, ..ServeConfig::default() },
        );
        let trace = manager.render_trace();
        assert!(trace.contains("opened a"), "{trace}");
        assert!(trace.contains("opened b"), "{trace}");
        assert!(trace.contains("shed c sessions=2/2"), "{trace}");
        // Closing a session frees the slot for a later open.
        let manager = run_workload(
            &format!(
                "open a {TINY_OPEN}\nopen b {TINY_OPEN}\nclose a\ndrain\nopen c {TINY_OPEN}\n"
            ),
            ServeConfig { max_sessions: 2, ..ServeConfig::default() },
        );
        assert!(manager.render_trace().contains("opened c"), "{}", manager.render_trace());
    }

    #[test]
    fn inbox_bound_answers_busy_and_keeps_fifo_order() {
        let manager = run_workload(
            &format!("open a {TINY_OPEN}\ntask a 0\nround a\nround a\nround a\n"),
            ServeConfig { inbox_capacity: 3, ..ServeConfig::default() },
        );
        let trace = manager.render_trace();
        let kinds: Vec<&str> =
            trace.lines().map(|l| l.split_whitespace().next().unwrap()).collect();
        // Inbox holds [boot, task, round]; the 2nd and 3rd rounds bounce.
        // Responses stay in submission order: busy lines come *before* the
        // executed ops' responses because refusal happens at submit.
        assert_eq!(kinds, ["opened", "task", "round", "busy", "busy"], "{trace}");
    }

    #[test]
    fn tenant_ledger_is_shared_and_denies_deterministically() {
        let registry = Arc::new(Registry::new());
        let cfg = ServeConfig {
            tenant_budget: 7,
            recorder: Handle::from(registry.clone()),
            ..ServeConfig::default()
        };
        // Two sessions, one tenant: 5 + 5 picks against a ledger of 7.
        let manager = run_workload(
            &format!(
                "open a {TINY_OPEN}\nopen b tenant=t0 dataset=rcmnist strategy=random seed=4 tasks=1 samples=60\n\
                 task a 0\ntask b 0\nround a\nround b\n"
            ),
            cfg,
        );
        let trace = manager.render_trace();
        // Settlement order is slot id (admission order): a's round settles
        // first and drains the ledger; b gets the remainder denied.
        assert!(trace.contains("round a picked="), "{trace}");
        assert!(trace.lines().any(|l| l.starts_with("round a") && l.contains("granted=5 denied=0")), "{trace}");
        assert!(trace.lines().any(|l| l.starts_with("round b") && l.contains("granted=2 denied=3")), "{trace}");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("serve.labels.granted"), Some(7));
        assert_eq!(snapshot.counter("serve.labels.denied"), Some(3));
        // Denied labels still consumed candidates: both sessions retrained.
        assert!(trace.lines().filter(|l| l.contains("loss=")).count() >= 2, "{trace}");
    }

    #[test]
    fn errors_are_responses_not_panics() {
        let manager = run_workload(
            &format!(
                "round ghost\nopen a {TINY_OPEN}\nopen a {TINY_OPEN}\ntask a 9\nround a\nrestore a\n"
            ),
            ServeConfig::default(),
        );
        let trace = manager.render_trace();
        assert!(trace.contains("error ghost unknown session"), "{trace}");
        assert!(trace.contains("error a session name already open"), "{trace}");
        assert!(trace.contains("error a task index 9 out of range (1 tasks)"), "{trace}");
        assert!(trace.contains("error a no active task"), "{trace}");
        assert!(trace.contains("error a no snapshot to restore"), "{trace}");
    }

    #[test]
    fn restore_rolls_the_future_back_byte_identically() {
        // Snapshot mid-stream, run a round, restore, run a round again:
        // the two rounds must render identically (same picks, same loss).
        for strategy in ["random", "entropy", "faction-incremental"] {
            let text = format!(
                "open a tenant=t dataset=rcmnist strategy={strategy} seed=5 tasks=1 samples=60\n\
                 task a 0\nround a\nsnapshot a\ndrain\nround a\ndrain\nrestore a\ndrain\nround a\n"
            );
            let manager = run_workload(&text, ServeConfig::default());
            let rounds: Vec<String> = manager
                .render_trace()
                .lines()
                .filter(|l| l.starts_with("round a"))
                .map(str::to_string)
                .collect();
            assert_eq!(rounds.len(), 3, "{strategy}: {:?}", rounds);
            assert_eq!(rounds[1], rounds[2], "{strategy}: replay after restore must match");
        }
    }

    #[test]
    fn one_stash_restores_twice() {
        // Restore reads the stash without taking it: a second restore from
        // the same snapshot replays the same round again.
        let text = "open a tenant=t dataset=rcmnist strategy=entropy seed=5 tasks=1 samples=60\n\
                    task a 0\nround a\nsnapshot a\ndrain\nround a\ndrain\nrestore a\ndrain\n\
                    round a\ndrain\nrestore a\ndrain\nround a\n";
        let manager = run_workload(text, ServeConfig::default());
        let trace = manager.render_trace();
        let rounds: Vec<&str> = trace.lines().filter(|l| l.starts_with("round a")).collect();
        assert_eq!(rounds.len(), 4, "{trace}");
        assert_eq!(rounds[1], rounds[2], "first restore replays the round");
        assert_eq!(rounds[1], rounds[3], "second restore replays it again");
        assert!(!trace.contains("error a"), "{trace}");
    }

    #[test]
    fn close_rejects_requests_queued_behind_it() {
        let manager = run_workload(
            &format!("open a {TINY_OPEN}\nclose a\nround a\n"),
            ServeConfig::default(),
        );
        let trace = manager.render_trace();
        assert!(trace.contains("closed a"), "{trace}");
        assert!(trace.contains("error a session closed"), "{trace}");
    }

    #[test]
    fn per_session_trace_is_a_clean_slice() {
        let manager = run_workload(
            &format!("open a {TINY_OPEN}\nopen b {TINY_OPEN}\ntask a 0\ntask b 0\nround a\nround b\ndrain\n"),
            ServeConfig::default(),
        );
        let full = manager.render_trace();
        let a = manager.session_trace("a");
        assert!(a.lines().count() >= 3, "{a}");
        assert!(a.lines().all(|l| l.split_whitespace().nth(1) == Some("a")), "{a}");
        // Slices partition the sessionful lines of the full trace.
        let b = manager.session_trace("b");
        let drained = full.lines().filter(|l| l.starts_with("drained")).count();
        assert_eq!(a.lines().count() + b.lines().count() + drained, full.lines().count());
    }
}
