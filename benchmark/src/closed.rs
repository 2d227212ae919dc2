//! Closed-loop harness (`firehose_noise`, `incident_storm`): one
//! thread writes BMP to a loopback socket, held to a fixed in-flight
//! window, drives `ArtemisService::pump_feeds` and reads alerts with
//! `poll_events`, in turn.
//!
//! The program under test is `BmpLiveFeed` (its reader thread) →
//! `FeedHub` → `Detector` → monitors → `Mitigator` → `EventLog`, built
//! and driven only through the surface an operator's deployment uses.
//!
//! The box has two cores and the program keeps two threads busy (the
//! feed's reader and whoever pumps). A generator thread of its own was
//! a third: it took 10–15 % of a core, the three shared two cores by
//! time slice, and segment rates swung 2× with who was preempted when
//! (README, "Host noise"). So the pumping thread also generates: it
//! writes while the window has room, then pumps. The writes cost it
//! the same few percent in every run.

use crate::check::{check, LedgerEntry, Seen};
use crate::fleet::{Fleet, OPERATOR_AS};
use crate::harness::*;
use crate::procinfo;
use crate::stream::{Generator, Mix};
use crate::trace::Tracer;
use artemis_bgp::Asn;
use artemis_core::{ArtemisService, EventCursor, OwnedPrefix, ServiceCommand};
use artemis_feeds::{BmpLiveFeed, LiveFeedConfig};
use artemis_simnet::SimTime;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Events written that the pump has not yet delivered. Half the ring,
/// so nothing can shed whatever the socket buffers hold.
const WINDOW_EVENTS: u64 = 32 * 1024;
/// Events per socket write.
const CHUNK_EVENTS: u64 = 1024;
/// Offboard + onboard pairs timed after every window, set-up-only
/// rounds included.
pub const COMMAND_PAIRS: usize = 64;
const STALL_LIMIT: Duration = Duration::from_secs(20);

pub struct ClosedSpec {
    pub mix: Mix,
    /// One hijack per this many events.
    pub hijack_every: u64,
    /// Heal this many events after the hijack.
    pub heal_after: u64,
}

/// A service protecting `fleet` with one live BMP feed dialing `addr`.
pub fn service_with_feed(fleet: &Fleet, addr: &str) -> ArtemisService {
    fleet.service(Box::new(BmpLiveFeed::connect(
        "bench",
        addr,
        LiveFeedConfig {
            ring_capacity: RING_CAPACITY,
            ..LiveFeedConfig::default()
        },
    )))
}

/// The service, the socket that feeds it, and what came out so far.
struct Chain {
    service: ArtemisService,
    sock: TcpStream,
    /// Counts what was written (`Shared::sent`); nothing else of it is
    /// used on this one thread.
    shared: Shared,
    clock: Instant,
    delivered: u64,
    cursor: EventCursor,
    stream: Vec<Seen>,
    last_progress: Instant,
}

impl Chain {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock.elapsed().as_micros() as u64)
    }

    fn sent(&self) -> u64 {
        self.shared.sent.load(Ordering::Relaxed)
    }

    fn room_for(&self, events: u64) -> bool {
        self.sent() + events <= self.delivered + WINDOW_EVENTS
    }

    fn write(&mut self, bytes: &[u8], events: u64) {
        write_counted(&mut self.sock, &self.shared, bytes, events);
    }

    /// One `pump_feeds`; the events it delivered and when it started
    /// and ended. Alerts are read after every delivering pump.
    fn pump(&mut self) -> (u64, Instant, Instant) {
        let a = Instant::now();
        let n = self.service.pump_feeds(self.now());
        let b = Instant::now();
        if n == 0 {
            assert!(
                b - self.last_progress < STALL_LIMIT,
                "no event delivered for {STALL_LIMIT:?}"
            );
            // Nothing in the ring: give the core to the kernel's side
            // of the socket instead of polling the ring's counters.
            std::thread::yield_now();
            return (0, a, b);
        }
        self.delivered += n;
        self.last_progress = b;
        let batch = self.service.poll_events(self.cursor);
        self.cursor = batch.next;
        assert_eq!(batch.missed, 0, "event log overran between two pumps");
        if !batch.events.is_empty() {
            let at = Instant::now();
            let delivered = self.delivered;
            self.stream
                .extend(batch.events.into_iter().map(|event| Seen {
                    event,
                    at,
                    delivered,
                }));
        }
        (n, a, b)
    }

    /// Pump until everything written is delivered, or nothing was for
    /// `patience`.
    fn drain(&mut self, patience: Duration) {
        self.last_progress = Instant::now();
        while self.delivered < self.sent() && self.last_progress.elapsed() < patience {
            self.pump();
        }
    }

    /// Write outside the timed window, pumping until there is room.
    fn write_when_room(&mut self, bytes: &[u8], events: u64) {
        while !self.room_for(events) {
            self.pump();
        }
        self.write(bytes, events);
    }
}

/// Run one round of `duration`. `tracer` decides whether spans are
/// recorded; a traced round also reads the stage metrics.
pub fn run_round(
    fleet: &Fleet,
    gen: &mut Generator<'_>,
    spec: &ClosedSpec,
    duration: Duration,
    tracer: &mut Tracer,
) -> RoundOutcome {
    let inputs = RoundInputs::prepare(gen, spec.mix);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mut out = RoundOutcome::default();

    // ---- set-up: config → service → feed attach → first event.
    let setup_start = Instant::now();
    let service = service_with_feed(fleet, &addr);
    let (sock, _) = listener.accept().expect("feed connects");
    sock.set_nodelay(true).expect("nodelay");
    let mut chain = Chain {
        service,
        sock,
        shared: Shared::default(),
        clock: Instant::now(),
        delivered: 0,
        cursor: EventCursor::START,
        stream: Vec::new(),
        last_progress: Instant::now(),
    };
    // Session open; its one route event ends set-up.
    chain.write(&inputs.open.bytes, inputs.open.events());
    chain.drain(STALL_LIMIT);
    out.setup_s = setup_start.elapsed().as_secs_f64();

    // Long-lived incidents are raised before the clock starts.
    let mut ledger: Vec<LedgerEntry> = Vec::new();
    if !inputs.lanes.is_empty() {
        let start = Instant::now();
        chain.write(&inputs.lane_raise.bytes, inputs.lane_raise.events());
        ledger.extend(inputs.lanes.iter().map(|lane| LedgerEntry {
            hijack: lane.clone(),
            start,
            delivered_at_start: 0,
            timed: false,
            healed: false,
        }));
        chain.drain(STALL_LIMIT);
    }

    // ---- the timed window.
    let window_start = Instant::now();
    let deadline = window_start + duration;
    let window_delivered = chain.delivered;
    let window_cpu = procinfo::cpu_seconds();
    out.threads = procinfo::threads();
    let mut cycle = CycleCursor::new(&inputs.cycle);
    let mut next_hijack_at = chain.sent() + spec.hijack_every / 2;
    let mut heals: VecDeque<(u64, usize)> = VecDeque::new();
    let mut seg_start = window_start;
    let mut seg_events = 0u64;
    let mut pump = PumpStats::default();
    while Instant::now() < deadline {
        while chain.room_for(CHUNK_EVENTS) {
            let (bytes, events) = cycle.take(CHUNK_EVENTS);
            chain.write(bytes, events);

            if chain.sent() >= next_hijack_at {
                next_hijack_at += spec.hijack_every;
                if let Some(hijack) = gen.next_hijack() {
                    let enc = gen.encode_hijack(&hijack);
                    let delivered_at_start = chain.delivered;
                    let start = Instant::now();
                    chain.write(&enc.bytes, enc.events());
                    let id = ledger.len() as u64 + 1;
                    tracer.record("wire_write", start, Instant::now(), None, id, enc.events());
                    heals.push_back((chain.sent() + spec.heal_after, ledger.len()));
                    ledger.push(LedgerEntry {
                        hijack,
                        start,
                        delivered_at_start,
                        timed: true,
                        healed: false,
                    });
                }
            }
            while heals.front().is_some_and(|(at, _)| *at <= chain.sent()) {
                let (_, i) = heals.pop_front().expect("front exists");
                send_heal(&mut chain.sock, &chain.shared, gen, &mut ledger, i);
            }
        }

        let (n, a, b) = chain.pump();
        if n > 0 {
            pump.busy_ns += (b - a).as_nanos() as u64;
            pump.max_batch = pump.max_batch.max(n);
            seg_events += n;
            if seg_events >= SEGMENT_EVENTS {
                out.segments
                    .push((seg_events, (b - seg_start).as_secs_f64()));
                seg_start = b;
                seg_events = 0;
            }
            tracer.record("pump_feeds", a, b, None, 0, n);
        }
    }
    out.timed_secs = window_start.elapsed().as_secs_f64();
    out.timed_events = chain.delivered - window_delivered;
    out.cpu_s = procinfo::cpu_seconds() - window_cpu;
    out.rss_peak_mb = procinfo::rss_peak_mb();
    out.pump = pump;

    // ---- after the window: heal whatever is still open, so every
    // incident of the round must end in `Resolved`.
    for (_, i) in heals {
        // At most three messages: no need to wait for the window.
        send_heal(&mut chain.sock, &chain.shared, gen, &mut ledger, i);
    }
    for (i, lane) in inputs.lanes.iter().enumerate() {
        let enc = gen.encode_lane_heal(lane);
        chain.write_when_room(&enc.bytes, enc.events());
        ledger[i].healed = true;
    }
    // A shed event is never delivered; do not wait for it forever (the
    // accounting below reports it).
    chain.drain(Duration::from_secs(2));
    out.sent = chain.sent();

    // ---- operator commands, accounting.
    let Chain {
        mut service,
        sock,
        clock,
        delivered,
        stream,
        ..
    } = chain;
    let now = || SimTime::from_micros(clock.elapsed().as_micros() as u64);
    let stride = fleet.legit_pool.len() / COMMAND_PAIRS;
    for i in 0..COMMAND_PAIRS {
        let prefix = fleet.owned[fleet.legit_pool[i * stride] as usize].prefix;
        let t = Instant::now();
        let off = service.apply(ServiceCommand::RemoveOwnedPrefix { prefix }, now());
        let on = service.apply(
            ServiceCommand::AddOwnedPrefix {
                owned: OwnedPrefix::new(prefix, Asn(OPERATOR_AS)),
                policy: None,
            },
            now(),
        );
        let end = Instant::now();
        out.command_ms.push((end - t).as_secs_f64() * 1e3);
        tracer.record("operator_pair", t, end, None, i as u64 + 1, 0);
        out.commands_sent += 2;
        out.commands_failed += off.is_err() as u64 + on.is_err() as u64;
    }
    let status = service.status(now());
    out.delivered = status.events_delivered;
    out.dropped = status.feeds.iter().map(|f| f.dropped_events).sum();
    out.shed = status.feeds.iter().map(|f| f.shed_events).sum();
    assert_eq!(
        out.delivered, delivered,
        "status disagrees with pump returns"
    );
    if tracer.enabled() {
        out.stages = Some(*service.stage_metrics());
    }

    // The reader re-dials on EOF: the session stays up until the
    // service, and with it the reader thread, is gone.
    drop(service);
    drop(sock);
    out.verdict = check(&ledger, &stream, tracer);
    out
}
