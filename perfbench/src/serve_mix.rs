//! The `serve_mix` workload: a closed loop of 64 clients, one session each,
//! driving `SessionManager` through `submit` and `drain`. Every live client
//! has exactly one request outstanding per drain and sends its next one only
//! after the drain that answers it returns.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use faction_core::OnlineSession;
use faction_data::Scale;
use faction_engine::build_strategy;
use faction_serve::{OpenSpec, Request, Response, ServeConfig, SessionManager};
use faction_telemetry::{Handle, Registry, Snapshot};

use crate::report::{counter, hist_sum, registry_layers, Run};
use crate::stats::{busy_share, fnv1a, grant_ratio, median, ratio, tail};
use crate::trace::{self, call, Span, Tracer};
use crate::workloads::{
    session_script, ServeMix, Step, OPENS, ROUNDS_PER_TASK, SERVE_BUDGET, SESSIONS, TASKS,
    TENANT_BUDGET,
};

/// Episodes measured at least, whatever `--seconds` says.
const MIN_EPISODES: usize = 3;

/// One client's view of its session, for checking the answers it gets.
#[derive(Default)]
struct Client {
    /// Labels granted on the current task, as the session counts them.
    granted: usize,
    /// `granted` when the last snapshot was taken.
    at_snapshot: usize,
    /// Rounds answered on the current task.
    round: usize,
    /// Picks of the first round after the snapshot; the round after the
    /// restore must repeat them.
    after_snapshot: Vec<usize>,
}

/// Tenant ledger totals seen in round answers.
#[derive(Default)]
struct Ledger {
    granted: usize,
    denied: usize,
}

/// Checks every answer of the timed phase against what the clients know.
struct Checker<'a> {
    names: Vec<&'a str>,
    tenants: Vec<&'a str>,
    clients: Vec<Client>,
    ledgers: BTreeMap<&'a str, Ledger>,
    rounds: usize,
    busy: usize,
    closed: usize,
    snapshot_bytes: u64,
    /// Σ (accuracy, DDP, EOD) over task answers, and their count.
    quality: ([f64; 3], usize),
}

impl<'a> Checker<'a> {
    fn new(admitted: &'a [OpenSpec]) -> Checker<'a> {
        Checker {
            names: admitted.iter().map(|o| o.session.as_str()).collect(),
            tenants: admitted.iter().map(|o| o.tenant.as_str()).collect(),
            clients: admitted.iter().map(|_| Client::default()).collect(),
            ledgers: BTreeMap::new(),
            rounds: 0,
            busy: 0,
            closed: 0,
            snapshot_bytes: 0,
            quality: ([0.0; 3], 0),
        }
    }

    /// Checks client `c`'s answer to `step` (or to its inbox probe).
    fn answer(&mut self, run: &mut Run, c: usize, probe: bool, step: Step, response: &Response) {
        let name = self.names[c];
        let client = &mut self.clients[c];
        match (probe, step, response) {
            (true, _, Response::Busy { .. }) => self.busy += 1,
            (_, _, Response::Error { message, .. }) => {
                run.ops_failed += 1;
                run.note(format!("error answer to {name}: {message}"));
            }
            (
                false,
                Step::Task(k),
                Response::TaskStarted {
                    index,
                    accuracy,
                    ddp,
                    eod,
                    ..
                },
            ) => {
                let metrics = [*accuracy, *ddp, *eod];
                run.check(
                    *index == k && metrics.iter().all(|v| (0.0..=1.0).contains(v)),
                    || format!("{name}: task answer {index} {metrics:?}"),
                );
                for (sum, v) in self.quality.0.iter_mut().zip(metrics) {
                    *sum += v;
                }
                self.quality.1 += 1;
                *client = Client::default();
            }
            (
                false,
                Step::Round,
                Response::Round {
                    picked,
                    granted,
                    denied,
                    degraded,
                    train_loss,
                    budget_left,
                    ..
                },
            ) => {
                self.rounds += 1;
                run.ops_failed += u64::from(*degraded);
                run.check(
                    granted + denied == picked.len() && !picked.is_empty(),
                    || {
                        format!(
                            "{name}: granted {granted} + denied {denied} != picked {}",
                            picked.len()
                        )
                    },
                );
                run.check(train_loss.is_some_and(f64::is_finite), || {
                    format!("{name}: loss {train_loss:?}")
                });
                let ledger = self.ledgers.entry(self.tenants[c]).or_default();
                ledger.granted += granted;
                ledger.denied += denied;
                client.granted += granted;
                let expected = SERVE_BUDGET - client.granted;
                run.check(*budget_left == expected, || {
                    format!("{name}: budget_left {budget_left}, expected {expected}")
                });
                match client.round {
                    1 => client.after_snapshot = picked.clone(),
                    2 => run.check(*picked == client.after_snapshot, || {
                        format!(
                            "{name}: the round after restore did not replay the rolled-back picks"
                        )
                    }),
                    _ => {}
                }
                client.round += 1;
            }
            (false, Step::Snapshot, Response::Snapshotted { bytes, .. }) => {
                self.snapshot_bytes += *bytes as u64;
                client.at_snapshot = client.granted;
            }
            (false, Step::Restore, Response::Restored { .. }) => {
                client.granted = client.at_snapshot
            }
            (false, Step::Close, Response::Closed { queries, .. }) => {
                self.closed += 1;
                run.check(*queries == client.granted, || {
                    format!(
                        "{name}: closed with {queries} queries, its grants say {}",
                        client.granted
                    )
                });
            }
            _ => run.check(false, || {
                format!("{name}: unexpected answer `{}`", response.render())
            }),
        }
    }

    /// The end-of-episode checks: exact refusal and lifecycle counts, and
    /// tenant ledgers that reconcile.
    fn finish(&self, run: &mut Run, still_open: usize) {
        let busy = self.busy;
        run.check(busy == TASKS, || {
            format!("{busy} busy answers, expected one probe per task ({TASKS})")
        });
        let closed = self.closed;
        run.check(closed == SESSIONS && still_open == 0, || {
            format!("{closed} closed, {still_open} still open")
        });
        let rounds = self.rounds;
        run.check(rounds == SESSIONS * TASKS * ROUNDS_PER_TASK, || {
            format!("{rounds} rounds settled")
        });
        for (tenant, l) in &self.ledgers {
            run.check(
                l.granted <= TENANT_BUDGET && (l.denied == 0 || l.granted == TENANT_BUDGET),
                || {
                    format!(
                        "tenant {tenant}: granted {} denied {} against a ledger of {TENANT_BUDGET}",
                        l.granted, l.denied
                    )
                },
            );
        }
        run.check(self.ledgers.values().any(|l| l.denied > 0), || {
            "no grant was denied; the tenant budget must deny the tail".to_string()
        });
    }
}

/// What one episode (open wave, then the closed loop) measured.
struct Episode {
    setup_s: f64,
    wall_s: f64,
    rounds: usize,
    latencies_ms: Vec<f64>,
    drains_ms: Vec<f64>,
    trace_digest: u64,
    quality: [f64; 3],
    snapshot_bytes: u64,
    /// Registry state after the open wave (traced episodes only).
    after_setup: Option<Snapshot>,
}

fn request_for(step: Step, session: &str) -> Request {
    let session = session.to_string();
    match step {
        Step::Task(index) => Request::Task { session, index },
        Step::Round => Request::Round { session },
        Step::Snapshot => Request::Snapshot { session },
        Step::Restore => Request::Restore { session },
        Step::Close => Request::Close { session },
    }
}

fn step_name(step: Step) -> &'static str {
    match step {
        Step::Task(_) => "task",
        Step::Round => "round",
        Step::Snapshot => "snapshot",
        Step::Restore => "restore",
        Step::Close => "close",
    }
}

fn episode(
    mix: &ServeMix,
    workers: usize,
    registry: Option<&Arc<Registry>>,
    tracer: Option<&Tracer>,
    run: &mut Run,
) -> Episode {
    let recorder = registry.map_or_else(Handle::noop, |r| Handle::from(r.clone()));
    let mut manager = SessionManager::new(ServeConfig {
        workers,
        chaos: None,
        max_sessions: SESSIONS,
        inbox_capacity: 1,
        tenant_budget: TENANT_BUDGET,
        recorder,
        journal_path: None,
    });
    let m = &mut manager;

    let setup_start = Instant::now();
    call(tracer, "open_wave", None, "open", |root| {
        for spec in &mix.opens {
            call(tracer, "serve.submit", root, &spec.session, |_| {
                m.submit(&Request::Open(spec.clone()))
            });
        }
        call(tracer, "serve.drain", root, "wave", |_| m.drain());
    });
    let setup_s = setup_start.elapsed().as_secs_f64();
    let after_setup = registry.map(|r| r.snapshot());
    let opened = m.responses();
    run.ops += OPENS as u64;
    let admitted = opened
        .iter()
        .filter(|r| matches!(r, Response::Opened { tasks, .. } if *tasks == TASKS))
        .count();
    let shed = opened
        .iter()
        .filter(|r| matches!(r, Response::Shed { .. }))
        .count();
    run.check(
        admitted == SESSIONS && shed == OPENS - SESSIONS && opened.len() == OPENS,
        || {
            format!(
                "open wave: {admitted} opened, {shed} shed of {} answers",
                opened.len()
            )
        },
    );

    let mut checker = Checker::new(&mix.opens[..SESSIONS]);
    let (mut latencies_ms, mut drains_ms) = (Vec::new(), Vec::new());
    let mut answered = opened.len();
    let timed_start = Instant::now();
    for step in session_script() {
        call(tracer, "tick", None, step_name(step), |root| {
            // (client, is the inbox probe, submitted at)
            let mut sent: Vec<(usize, bool, Instant)> = Vec::with_capacity(SESSIONS + 1);
            for c in 0..SESSIONS {
                let name = checker.names[c];
                let request = request_for(step, name);
                sent.push((c, false, Instant::now()));
                call(tracer, "serve.submit", root, name, |_| m.submit(&request));
                if matches!(step, Step::Task(k) if mix.probes[k] == c) {
                    let probe = Request::Round {
                        session: name.to_string(),
                    };
                    sent.push((c, true, Instant::now()));
                    call(tracer, "serve.submit", root, name, |_| m.submit(&probe));
                }
            }
            let drain_start = Instant::now();
            call(tracer, "serve.drain", root, "wave", |_| m.drain());
            let done = Instant::now();
            drains_ms.push((done - drain_start).as_secs_f64() * 1e3);
            let all = call(tracer, "serve.responses", root, "wave", |_| m.responses());
            let fresh = &all[answered.min(all.len())..];
            answered = all.len();
            run.ops += sent.len() as u64;
            run.check(fresh.len() == sent.len(), || {
                format!("{} answers to {} requests", fresh.len(), sent.len())
            });
            for (&(c, probe, at), response) in sent.iter().zip(fresh) {
                let refused = matches!(response, Response::Busy { .. } | Response::Shed { .. });
                latencies_ms.push(if refused {
                    f64::INFINITY
                } else {
                    (done - at).as_secs_f64() * 1e3
                });
                checker.answer(run, c, probe, step, response);
            }
        });
    }
    let wall_s = timed_start.elapsed().as_secs_f64();
    checker.finish(run, m.open_sessions());
    let n = checker.quality.1.max(1) as f64;
    Episode {
        setup_s,
        wall_s,
        rounds: checker.rounds,
        latencies_ms,
        drains_ms,
        trace_digest: fnv1a(manager.render_trace().as_bytes()),
        quality: checker.quality.0.map(|s| s / n),
        snapshot_bytes: checker.snapshot_bytes,
        after_setup,
    }
}

fn set_quality(run: &mut Run, ep: &Episode) {
    run.set("acc_mean", ep.quality[0]);
    run.set("ddp_mean", ep.quality[1]);
    run.set("eod_mean", ep.quality[2]);
}

/// The end-to-end run: episodes until `seconds` is spent (at least
/// [`MIN_EPISODES`]); each metric is the median over episodes.
pub fn measure(run: &mut Run, mix: &ServeMix, workers: usize, seconds: f64) {
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut lengths = Vec::new();
    loop {
        let t = Instant::now();
        let ep = episode(mix, workers, None, None, run);
        lengths.push(t.elapsed().as_secs_f64());
        if let Some(first) = episodes.first() {
            run.check(first.trace_digest == ep.trace_digest, || {
                "serve traces differ between episodes".to_string()
            });
        }
        episodes.push(ep);
        if episodes.len() >= MIN_EPISODES
            && started.elapsed().as_secs_f64() + median(&lengths) > seconds
        {
            break;
        }
    }
    let per = |f: &dyn Fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
    run.set("setup_s", per(&|e| e.setup_s));
    run.set("wall_s", per(&|e| e.wall_s));
    run.set("rounds_per_s", per(&|e| ratio(e.rounds as f64, e.wall_s)));
    run.set("request_p50_ms", per(&|e| median(&e.latencies_ms)));
    run.set(
        "request_p99_ms",
        per(&|e| tail(&e.latencies_ms, 99.0).map_or(f64::INFINITY, |t| t.value)),
    );
    set_quality(run, &episodes[0]);
    if let Some(t) = tail(&episodes[0].latencies_ms, 99.0) {
        run.note(format!(
            "request latency: submit to the return of the answering drain; p{:.2} over {} samples per episode \
             ({} beyond, refused requests count as misses); median over {} episodes",
            t.percentile,
            t.samples,
            t.beyond,
            episodes.len()
        ));
    }
    run.note(format!(
        "digest: {:016x} (serve decision trace)",
        episodes[0].trace_digest
    ));
    run.note(format!(
        "episodes: {}, wall_s each {:?}",
        episodes.len(),
        episodes.iter().map(|e| e.wall_s).collect::<Vec<_>>()
    ));
}

/// Boots every admitted session again outside the server, through the same
/// public calls its `open` makes, to attribute set-up to stream generation
/// and warm start, and to time wire encode/decode of a session snapshot.
fn boot_probe(specs: &[OpenSpec], tracer: &Tracer, run: &mut Run) {
    let tracer = Some(tracer);
    call(tracer, "boot_probe", None, "probe", |root| {
        for spec in specs {
            let request = spec.session.as_str();
            let mut stream = call(tracer, "data.stream", root, request, |_| {
                spec.dataset.stream(spec.seed, Scale::Quick)
            });
            stream
                .tasks
                .truncate(spec.truncate_tasks.unwrap_or(usize::MAX));
            let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, spec.seed);
            let strategy = build_strategy(&spec.strategy, spec.cfg.loss, 1.0, true)
                .expect("generated strategies exist");
            let mut session = OnlineSession::new(
                &arch,
                &spec.cfg,
                spec.seed,
                stream.num_classes,
                strategy.training_loss(),
            );
            call(tracer, "core.warm_start", root, request, |_| {
                session.warm_start(&stream.tasks[0])
            });
            let snapshot = session.snapshot(strategy.as_ref());
            let bytes = call(tracer, "wire.encode", root, request, |_| {
                snapshot.to_wire_bytes()
            });
            let decoded = call(tracer, "wire.decode", root, request, |_| {
                faction_core::SessionSnapshot::from_wire_bytes(&bytes)
            });
            run.check(decoded.is_ok(), || {
                format!("{}: boot snapshot does not decode", spec.session)
            });
        }
    });
}

/// The traced run: an untraced reference episode, then a traced one with a
/// registry installed and spans around every `submit` and `drain`. Their
/// decision traces must match.
pub fn traced(run: &mut Run, mix: &ServeMix, workers: usize) -> Vec<Span> {
    let reference = episode(mix, workers, None, None, run);
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new();
    let ep = episode(mix, workers, Some(&registry), Some(&tracer), run);
    boot_probe(&mix.opens[..SESSIONS], &tracer, run);
    let spans = tracer.finish();
    let snap = registry.snapshot();
    let setup_snap = ep.after_setup.clone().unwrap_or_default();
    run.check(reference.trace_digest == ep.trace_digest, || {
        format!(
            "traced digest {:016x} != untraced {:016x}",
            ep.trace_digest, reference.trace_digest
        )
    });
    run.note(format!(
        "digest: untraced {:016x}, traced {:016x}",
        reference.trace_digest, ep.trace_digest
    ));

    let totals = trace::by_name(&spans);
    registry_layers(run, &snap);
    // Inside the server these calls run in its private wave phases, so
    // their time comes from the program's own histograms, timed phase only.
    let timed = |key: &str| (hist_sum(&snap, key) - hist_sum(&setup_snap, key)) / 1e6;
    let (eval, select, train) = (
        timed("core.runner.eval_ns"),
        timed("core.runner.selection_ns"),
        timed("core.runner.train_ns"),
    );
    run.set("data.stream_gen_ms", trace::self_ms(&totals, "data.stream"));
    run.set(
        "core.warm_start_ms",
        trace::self_ms(&totals, "core.warm_start"),
    );
    run.set("core.begin_task_ms", eval);
    run.set("core.feed_ms", select);
    run.set("core.apply_labels_ms", train);
    let drain_s: f64 = ep.drains_ms.iter().sum::<f64>() / 1e3;
    run.set(
        "engine.busy_share",
        busy_share((eval + select + train) / 1e3, workers, drain_s),
    );
    run.set("wire.snapshot_bytes", ep.snapshot_bytes as f64);
    run.set("wire.encode_us", trace::mean_us(&totals, "wire.encode"));
    run.set("wire.decode_us", trace::mean_us(&totals, "wire.decode"));
    run.set("serve.submit_us", trace::mean_us(&totals, "serve.submit"));
    run.set("serve.drain_ms.p50", median(&ep.drains_ms));
    run.set(
        "serve.drain_ms.max",
        ep.drains_ms.iter().copied().fold(0.0, f64::max),
    );
    run.set("serve.waves", counter(&snap, "serve.waves"));
    run.set(
        "serve.refused",
        counter(&snap, "serve.sessions.shed") + counter(&snap, "serve.requests.busy"),
    );
    let (granted, denied) = (
        counter(&snap, "serve.labels.granted"),
        counter(&snap, "serve.labels.denied"),
    );
    run.set("serve.grant_ratio", grant_ratio(granted, denied));
    run.set("serve.feed_ms", hist_sum(&snap, "serve.feed_ns") / 1e6);
    run.set(
        "telemetry.overhead_pct",
        100.0 * (ep.wall_s - reference.wall_s) / reference.wall_s,
    );
    let (share, uncovered) = trace::coverage(&spans, &["open_wave", "tick"]);
    run.set("trace.coverage", share);
    run.set("trace.uncovered_ms", uncovered * 1e3);
    run.note(format!(
        "trace: coverage {share:.4} of open-wave and tick time; uncovered {:.1} ms is the clients' answer checks. \
         serve.drain self time {:.1} ms is not subdivided: admission, phase A, settlement and phase B are private to \
         faction-serve, so only the program's own histograms (core.*, serve.feed_ms) attribute it",
        uncovered * 1e3,
        trace::self_ms(&totals, "serve.drain")
    ));
    run.note(trace::shares_line(&spans, &["open_wave", "tick"]));
    run.note(format!(
        "walls: untraced {:.3} s, traced {:.3} s (timed phase)",
        reference.wall_s, ep.wall_s
    ));
    set_quality(run, &ep);
    spans
}
