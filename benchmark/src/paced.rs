//! Open-loop harness (`paced_detect`, `operator_churn`): the real
//! in-process `Daemon` with its default configuration. A generator
//! thread writes BMP on a fixed 2 ms schedule whatever the daemon
//! does; one consumer long-polls `/v1/events` through `CtlClient`; for
//! `operator_churn` one operator thread issues commands and reads.
//!
//! Latency is timed from the due instant of the tick that carries a
//! hijack to the instant the long-poll response containing its alert
//! has been parsed.

use crate::check::{check, LedgerEntry, Seen};
use crate::closed::{service_with_feed, COMMAND_PAIRS};
use crate::fleet::{Fleet, OPERATOR_AS};
use crate::harness::*;
use crate::procinfo;
use crate::stream::{Generator, Mix};
use crate::trace::Tracer;
use artemis_bgp::{Asn, Prefix};
use artemis_core::wire::CommandResult;
use artemis_core::{
    EventCursor, MitigationPolicy, OwnedPrefix, ServiceCommand, ServiceQuery, ServiceReply,
    StageMetrics, StageStat,
};
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The generator's schedule: one write every 2 ms.
const TICK: Duration = Duration::from_millis(2);
/// Each tick carries a hijack with probability 1/7 — about 71 per
/// second, so a 10 s run has ~700 latency samples and its median is
/// known to ±2 %. Poisson-like arrivals sample the pump and long-poll
/// phases evenly; a fixed period would beat against their 10 ms ticks.
const HIJACK_ONE_TICK_IN: usize = 7;
/// Healed 0.8 s after the hijack: about 57 incidents live at a time.
const HEAL_AFTER_TICKS: u64 = 400;
/// How often the operator reads `/v1/incidents` and scrapes `/metrics`.
const INCIDENTS_EVERY: Duration = Duration::from_millis(250);
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// The operator thinks this long after every command.
const THINK: Duration = Duration::from_millis(10);
const STALL_LIMIT: Duration = Duration::from_secs(20);

pub struct PacedSpec {
    pub mix: Mix,
    /// Offered load, events per second.
    pub rate: u64,
    /// Run the operator beside the feed.
    pub operator: bool,
}

/// Control-plane read timings the operator thread collected.
#[derive(Default)]
pub struct OperatorReport {
    pub pair_ms: Vec<f64>,
    pub incidents_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    tracer: Option<Tracer>,
}

/// Extra observations of a daemon round.
#[derive(Default)]
pub struct DaemonExtras {
    pub operator: OperatorReport,
    /// Largest rise of `events_emitted` between two samples taken one
    /// pump interval (10 ms) apart (traced passes only): about the
    /// most one pump drained from the ring.
    pub max_drain: u64,
}

fn generator_main(
    listener: TcpListener,
    gen: &mut Generator<'_>,
    inputs: &RoundInputs,
    spec: &PacedSpec,
    duration: Duration,
    shared: &Shared,
    mut tracer: Tracer,
) -> (Vec<LedgerEntry>, Vec<f64>, Tracer) {
    let (mut sock, _) = listener.accept().expect("feed connects");
    sock.set_nodelay(true).expect("nodelay");
    write_counted(&mut sock, shared, &inputs.open.bytes, inputs.open.events());
    wait_until("set-up is observed", STALL_LIMIT, || {
        shared.phase() == PHASE_TIMED
    });

    let per_tick = (spec.rate as f64 * TICK.as_secs_f64()) as i64;
    let ticks = (duration.as_nanos() / TICK.as_nanos()) as u64;
    let mut cursor = CycleCursor::new(&inputs.cycle);
    let mut ledger: Vec<LedgerEntry> = Vec::new();
    let mut heals: VecDeque<(u64, usize)> = VecDeque::new();
    let mut late_ms = Vec::with_capacity(ticks as usize);
    let mut owed = 0i64;
    let t0 = Instant::now();
    for k in 0..ticks {
        let due = t0 + TICK * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);

        owed += per_tick;
        if owed > 0 {
            let (bytes, events) = cursor.take(owed as u64);
            write_counted(&mut sock, shared, bytes, events);
            owed -= events as i64;
        }
        if gen.one_in(HIJACK_ONE_TICK_IN) {
            if let Some(hijack) = gen.next_hijack() {
                let enc = gen.encode_hijack(&hijack);
                let a = Instant::now();
                write_counted(&mut sock, shared, &enc.bytes, enc.events());
                let id = ledger.len() as u64 + 1;
                tracer.record("wire_write", a, Instant::now(), None, id, enc.events());
                heals.push_back((k + HEAL_AFTER_TICKS, ledger.len()));
                ledger.push(LedgerEntry {
                    hijack,
                    start: due,
                    delivered_at_start: 0,
                    timed: true,
                    healed: false,
                });
            }
        }
        while heals.front().is_some_and(|(at, _)| *at <= k) {
            let (_, i) = heals.pop_front().expect("front exists");
            send_heal(&mut sock, shared, gen, &mut ledger, i);
        }
    }
    shared.set_phase(PHASE_DRAIN);
    for (_, i) in heals {
        send_heal(&mut sock, shared, gen, &mut ledger, i);
    }
    shared.set_phase(PHASE_SENT);
    wait_until("the daemon is stopped", STALL_LIMIT, || {
        shared.phase() == PHASE_CLOSE
    });
    (ledger, late_ms, tracer)
}

/// Long-poll the incident stream until told to stop, then read what is
/// left without waiting.
fn consumer_main(addr: &str, stop: &AtomicBool, shared: &Shared) -> Vec<Seen> {
    let client = CtlClient::new(addr);
    let mut cursor = EventCursor::START;
    let mut stream = Vec::new();
    loop {
        let last = stop.load(Ordering::Relaxed) || shared.phase() == PHASE_CLOSE;
        let env = client
            .events(cursor, if last { 0 } else { 250 })
            .expect("long-poll /v1/events");
        let at = Instant::now();
        assert_eq!(
            env.missed, 0,
            "the long-poll consumer fell behind the event log"
        );
        cursor = env.next;
        stream.extend(env.events.into_iter().map(|event| Seen {
            event,
            at,
            delivered: 0,
        }));
        if last {
            return stream;
        }
    }
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64, Instant, Instant) {
    let a = Instant::now();
    let value = f();
    let b = Instant::now();
    (value, (b - a).as_secs_f64() * 1e3, a, b)
}

fn rejected(result: &Result<artemis_core::wire::OutcomeEnvelope, String>) -> bool {
    !matches!(
        result,
        Ok(env) if matches!(env.result, CommandResult::Outcome(_))
    )
}

/// One offboard + onboard pair over HTTP; returns the summed round
/// trips in milliseconds, thinking after each command if asked to.
fn command_pair(
    client: &CtlClient,
    prefix: Prefix,
    think: bool,
    report: &mut OperatorReport,
    id: u64,
) {
    let (off, off_ms, a, b) =
        timed_ms(|| client.apply(ServiceCommand::RemoveOwnedPrefix { prefix }, None));
    if let Some(t) = report.tracer.as_mut() {
        t.record("operator_offboard", a, b, None, id, 0);
    }
    if think {
        std::thread::sleep(THINK);
    }
    let (on, on_ms, a, b) = timed_ms(|| {
        client.apply(
            ServiceCommand::AddOwnedPrefix {
                owned: OwnedPrefix::new(prefix, Asn(OPERATOR_AS)),
                policy: None,
            },
            None,
        )
    });
    if let Some(t) = report.tracer.as_mut() {
        t.record("operator_onboard", a, b, None, id, 0);
    }
    report.pair_ms.push(off_ms + on_ms);
    report.sent += 2;
    report.failed += rejected(&off) as u64 + rejected(&on) as u64;
}

/// The operator of `operator_churn`: offboard → onboard → set-policy
/// on prefixes spread across the fleet, `/v1/incidents` every 250 ms
/// and `/metrics` every second, all on one connection at a time.
fn operator_main(addr: &str, fleet: &Fleet, shared: &Shared, tracer: Tracer) -> OperatorReport {
    let client = CtlClient::new(addr);
    let mut report = OperatorReport {
        tracer: Some(tracer),
        ..OperatorReport::default()
    };
    wait_until("the timed window opens", STALL_LIMIT, || {
        shared.phase() >= PHASE_TIMED
    });
    let start = Instant::now();
    let mut next_incidents = start + INCIDENTS_EVERY;
    let mut next_scrape = start + SCRAPE_EVERY;
    // A stride coprime to the pool length walks the whole fleet.
    let stride = 7_919;
    let mut i = 0usize;
    while shared.phase() == PHASE_TIMED {
        let prefix =
            fleet.owned[fleet.legit_pool[(i * stride) % fleet.legit_pool.len()] as usize].prefix;
        i += 1;
        command_pair(&client, prefix, true, &mut report, i as u64);
        std::thread::sleep(THINK);
        let policy = if i.is_multiple_of(2) {
            MitigationPolicy::Auto
        } else {
            MitigationPolicy::ConfirmFirst
        };
        let set = client.apply(ServiceCommand::SetMitigationPolicy { prefix, policy }, None);
        report.sent += 1;
        report.failed += rejected(&set) as u64;
        std::thread::sleep(THINK);

        if Instant::now() >= next_incidents {
            next_incidents += INCIDENTS_EVERY;
            let (reply, ms, a, b) = timed_ms(|| client.query(ServiceQuery::Incidents));
            report.incidents_ms.push(ms);
            report.sent += 1;
            report.failed += reply.is_err() as u64;
            if let Some(t) = report.tracer.as_mut() {
                t.record("operator_incidents", a, b, None, i as u64, 0);
            }
        }
        if Instant::now() >= next_scrape {
            next_scrape += SCRAPE_EVERY;
            let (text, ms, a, b) = timed_ms(|| client.metrics_text());
            report.scrape_ms.push(ms);
            report.sent += 1;
            report.failed += text.is_err() as u64;
            if let Some(t) = report.tracer.as_mut() {
                t.record("operator_scrape", a, b, None, i as u64, 0);
            }
        }
    }
    report
}

/// `artemis_stage_<what>_total{stage="<name>"}` of one scrape.
fn scraped(text: &str, what: &str, stage: &str) -> u64 {
    let key = format!("artemis_stage_{what}_total{{stage=\"{stage}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("/metrics has no {key}"))
}

/// Sum of every sample of one metric family (labelled or not).
fn scraped_total(text: &str, family: &str) -> u64 {
    let samples: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix(family))
        .filter(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse().ok())
        .collect();
    assert!(!samples.is_empty(), "/metrics has no {family}");
    samples.iter().sum()
}

/// The daemon's stage metrics, read from outside through `/metrics`.
pub fn stages_from_scrape(text: &str) -> StageMetrics {
    let stat = |stage: &str| {
        let mut s = StageStat::default();
        s.batches = scraped(text, "batches", stage);
        s.events = scraped(text, "events", stage);
        s.nanos = scraped(text, "nanos", stage);
        s
    };
    StageMetrics {
        drain: stat("drain"),
        drain_seal: stat("drain_seal"),
        drain_merge: stat("drain_merge"),
        classify: stat("classify"),
        classify_snapshot: stat("classify_snapshot"),
        classify_prepare: stat("classify_prepare"),
        commit: stat("commit"),
        detect: stat("commit_detect"),
        monitor_route: stat("commit_monitor_route"),
        monitor_ingest: stat("commit_monitor_ingest"),
        resolve: stat("commit_resolve"),
        mitigate: stat("commit_mitigate"),
    }
}

fn feed_counts(client: &CtlClient) -> (u64, u64, usize) {
    match client.query(ServiceQuery::Feeds).expect("query feeds") {
        ServiceReply::Feeds(feeds) => (
            feeds.iter().map(|f| f.events_emitted).sum(),
            feeds.iter().map(|f| f.dropped_events).sum(),
            feeds.iter().map(|f| f.queued_events).sum(),
        ),
        other => panic!("expected a feeds reply, got {other:?}"),
    }
}

/// Run one round of `duration` through the daemon.
pub fn run_round(
    fleet: &Fleet,
    gen: &mut Generator<'_>,
    spec: &PacedSpec,
    duration: Duration,
    tracer: &mut Tracer,
) -> (RoundOutcome, DaemonExtras) {
    let inputs = RoundInputs::prepare(gen, spec.mix);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let feed_addr = listener.local_addr().expect("local addr").to_string();
    let shared = Shared::default();
    let stop_consumer = AtomicBool::new(false);
    let traced = tracer.enabled();
    let origin = tracer.origin();
    let mut out = RoundOutcome::default();
    let mut extras = DaemonExtras::default();

    let (ledger, stream) = std::thread::scope(|scope| {
        let generator = {
            let (inputs, shared) = (&inputs, &shared);
            let t = Tracer::new(origin, traced);
            scope.spawn(move || generator_main(listener, gen, inputs, spec, duration, shared, t))
        };

        let _close = CloseOnDrop(&shared);

        // ---- set-up: config → service → feed attach → daemon start →
        // first event delivered (seen through the control plane).
        let setup_start = Instant::now();
        let service = service_with_feed(fleet, &feed_addr);
        let handle = Daemon::start("127.0.0.1:0", service, DaemonConfig::default())
            .expect("daemon binds loopback");
        let addr = handle.addr().to_string();
        let client = CtlClient::new(addr.clone());
        wait_until("the first event is delivered", STALL_LIMIT, || {
            feed_counts(&client).0 >= 1
        });
        out.setup_s = setup_start.elapsed().as_secs_f64();

        let consumer = {
            let (addr, stop, shared) = (addr.clone(), &stop_consumer, &shared);
            scope.spawn(move || consumer_main(&addr, stop, shared))
        };
        let operator = spec.operator.then(|| {
            let (addr, shared) = (addr.clone(), &shared);
            let t = Tracer::new(origin, traced);
            scope.spawn(move || operator_main(&addr, fleet, shared, t))
        });

        // ---- the timed window belongs to the other threads.
        let cpu0 = procinfo::cpu_seconds();
        let window_start = Instant::now();
        shared.set_phase(PHASE_TIMED);
        let mut last_emitted = 1u64;
        let mut threads = 0;
        while shared.phase() == PHASE_TIMED {
            if traced {
                let emitted = feed_counts(&client).0;
                extras.max_drain = extras.max_drain.max(emitted - last_emitted);
                last_emitted = emitted;
                std::thread::sleep(Duration::from_millis(10));
            } else {
                std::thread::sleep(Duration::from_millis(20));
            }
            threads = threads.max(procinfo::threads());
        }
        out.timed_secs = window_start.elapsed().as_secs_f64();
        out.cpu_s = procinfo::cpu_seconds() - cpu0;
        out.rss_peak_mb = procinfo::rss_peak_mb();
        out.threads = threads;
        if let Some(operator) = operator {
            extras.operator = operator.join().expect("operator thread");
        }

        // ---- drain: everything sent is delivered or counted as shed.
        wait_until("the generator has sent its last heal", STALL_LIMIT, || {
            shared.phase() == PHASE_SENT
        });
        out.sent = shared.sent.load(Ordering::Relaxed);
        wait_until("the daemon has drained the feed", STALL_LIMIT, || {
            let (emitted, dropped, queued) = feed_counts(&client);
            emitted + dropped >= out.sent && queued == 0
        });
        stop_consumer.store(true, Ordering::Relaxed);
        let stream = consumer.join().expect("consumer thread");

        // ---- after the window: commands (when no operator ran),
        // accounting, stage metrics.
        if !spec.operator {
            let stride = fleet.legit_pool.len() / COMMAND_PAIRS;
            extras.operator.tracer = Some(Tracer::new(origin, traced));
            for i in 0..COMMAND_PAIRS {
                let prefix = fleet.owned[fleet.legit_pool[i * stride] as usize].prefix;
                command_pair(&client, prefix, false, &mut extras.operator, i as u64 + 1);
            }
        }
        // Accounting comes from `/metrics`: `CtlClient::status` cannot
        // be used on this fleet — the 12 MB status body exceeds the
        // client's 8 MiB response limit (README, "Findings").
        let text = client.metrics_text().expect("GET /metrics");
        out.delivered = scraped_total(&text, "artemis_events_delivered_total");
        out.dropped = scraped_total(&text, "artemis_feed_dropped_total");
        out.shed = scraped_total(&text, "artemis_feed_shed_total");
        if traced {
            out.stages = Some(stages_from_scrape(&text));
        }

        handle.shutdown(); // drops the service, which joins the reader
        shared.set_phase(PHASE_CLOSE);
        let (ledger, late_ms, gen_tracer) = generator.join().expect("generator thread");
        out.late_ms = late_ms;
        tracer.absorb(gen_tracer);
        (ledger, stream)
    });

    // The open loop offers a fixed rate; what was delivered inside the
    // window is everything sent minus what was shed.
    out.timed_events = out.delivered.saturating_sub(1);
    out.command_ms = std::mem::take(&mut extras.operator.pair_ms);
    out.commands_sent = extras.operator.sent;
    out.commands_failed = extras.operator.failed;
    if let Some(t) = extras.operator.tracer.take() {
        tracer.absorb(t);
    }
    out.verdict = check(&ledger, &stream, tracer);
    (out, extras)
}
