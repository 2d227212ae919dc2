//! The wake path over real loopback sockets: RFC 7854 bytes written to
//! a [`BmpLiveFeed`] must reach a client parked on `/v1/events`
//! through two notifications (ring → feed pump, feed pump →
//! long-poll) and no timer. Nothing here times anything finer than
//! half an idle tick: a lost ring wake shows as a wait for
//! [`FEED_PUMP_IDLE_TICK`], and a lost long-poll or pager wake, since
//! nothing re-checks the log on a timer, as a wait to the test's own
//! deadline. An operator command that appends to the log wakes a
//! parked long-poll and a parked pager the same way.
//!
//! They live beside the daemon rather than under `tests/` because
//! they are stated in terms of its private constants and reach into
//! [`Shared`] to poison the state lock.
//!
//! The last test attaches a feed whose poll panics: the pump must
//! count it and keep pumping. Another attaches a feed whose name holds
//! a NUL byte, which no thread may be named with: the command must
//! still be answered and the state lock stay whole.

use super::*;
use crate::CtlClient;
use artemis_bgp::{AsPath, Asn, BgpMessage, PathAttributes, Prefix, RouteChange, UpdateMessage};
use artemis_bmp::{BmpMessage, BmpWriter, PeerHeader};
use artemis_controller::Controller;
use artemis_core::wire::CommandResult;
use artemis_core::{
    ArtemisConfig, CommandOutcome, MitigationPolicy, OwnedPrefix, Pipeline, ServiceCommand,
    ServiceReply,
};
use artemis_feeds::{
    BmpLiveFeed, FeedEvent, FeedKind, FeedSource, FeedSpec, LiveFeedConfig, RibView, WireFeedEvent,
};
use artemis_simnet::{LatencyModel, SimRng};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};

const OPERATOR: Asn = Asn(65_001);
const VANTAGE: Asn = Asn(174);

/// A service owning `10.0.0.0/16`, so every round below can hijack a
/// /24 of its own and raise a fresh alert.
fn pipeline() -> Pipeline {
    let owned = OwnedPrefix::new("10.0.0.0/16".parse().unwrap(), OPERATOR);
    let config = ArtemisConfig::new(OPERATOR, vec![owned]);
    Pipeline::bare(config, [VANTAGE, Asn(3356)].into_iter().collect())
}

fn start(pipeline: Pipeline) -> (DaemonHandle, CtlClient) {
    start_with(pipeline, DaemonConfig::default())
}

fn start_with(pipeline: Pipeline, config: DaemonConfig) -> (DaemonHandle, CtlClient) {
    let controller = Controller::new(OPERATOR, LatencyModel::const_secs(15), SimRng::new(1));
    let service = ArtemisService::new(pipeline, controller);
    let daemon = Daemon::start("127.0.0.1:0", service, config).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    (daemon, client)
}

/// A collector socket a live feed will dial.
fn collector() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

/// A daemon whose live feed was attached before it started, and the
/// collector's end of that feed's session.
fn start_with_live_feed() -> (DaemonHandle, CtlClient, TcpStream) {
    let (listener, addr) = collector();
    let mut pipeline = pipeline();
    let feed = BmpLiveFeed::connect("bmp0", addr, LiveFeedConfig::default());
    pipeline.attach_feed(Box::new(feed), SimTime::ZERO);
    let (daemon, client) = start(pipeline);
    let (sock, _) = listener.accept().unwrap();
    (daemon, client, sock)
}

/// `10.0.<third>.0/24` announced by a rogue origin, as wire bytes.
fn hijack_bytes(third: u8) -> Vec<u8> {
    let peer = PeerHeader::global(
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        VANTAGE,
        Ipv4Addr::new(192, 0, 2, 10),
        1_000_000,
    );
    let prefix = Prefix::v4(Ipv4Addr::new(10, 0, third, 0), 24).unwrap();
    let mut w = BmpWriter::new();
    w.write(&BmpMessage::RouteMonitoring {
        peer,
        update: BgpMessage::Update(UpdateMessage::announce(
            PathAttributes::with_path(
                AsPath::from_sequence([VANTAGE.0, 666]),
                "192.0.2.10".parse().unwrap(),
            ),
            vec![prefix],
        )),
    })
    .unwrap();
    w.into_bytes()
}

/// Park a long-poll at the log's tail, write hijack number `round` on
/// the collector socket and return how long the poll took to come back
/// with the alert, counted from the write.
fn wire_to_parked_poll(client: &CtlClient, sock: &mut TcpStream, round: u8) -> Duration {
    let tail = client.events(EventCursor::START, 0).unwrap().next;
    let addr = client.addr().to_string();
    let parked = std::thread::spawn(move || {
        let batch = CtlClient::new(addr).events(tail, 10_000).unwrap();
        (Instant::now(), batch)
    });
    // Let it park, at a different phase of the idle tick every round.
    std::thread::sleep(Duration::from_millis(60 + 37 * u64::from(round)));
    let sent = Instant::now();
    sock.write_all(&hijack_bytes(round)).unwrap();
    let (back, batch) = parked.join().unwrap();
    assert!(
        batch
            .events
            .iter()
            .any(|e| matches!(e, IncidentEvent::AlertRaised { .. })),
        "round {round}: the poll came back without the alert: {batch:?}"
    );
    back.saturating_duration_since(sent)
}

fn assert_woken_not_ticked(client: &CtlClient, sock: &mut TcpStream) {
    for round in 0..6 {
        let took = wire_to_parked_poll(client, sock, round);
        assert!(
            took < FEED_PUMP_IDLE_TICK / 2,
            "round {round}: wire to parked poll took {took:?} — a wake was lost"
        );
    }
}

fn counter(metrics: &str, name: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("{name} missing from /metrics"));
    line[name.len() + 1..].parse().unwrap()
}

#[test]
fn a_hijack_on_the_wire_wakes_a_parked_poll() {
    let (daemon, client, mut sock) = start_with_live_feed();
    assert_woken_not_ticked(&client, &mut sock);
    daemon.shutdown();
}

#[test]
fn a_feed_attached_at_runtime_wakes_the_pump_too() {
    let (daemon, client) = start(pipeline());
    let (listener, addr) = collector();
    let feed = FeedSpec::BmpLive {
        name: "bmp-late".into(),
        addr,
        ring_capacity: None,
        filter: None,
    };
    client
        .apply(ServiceCommand::AttachFeed { feed }, None)
        .unwrap();
    let (mut sock, _) = listener.accept().unwrap();
    assert_woken_not_ticked(&client, &mut sock);
    daemon.shutdown();
}

#[test]
fn a_feed_name_with_a_nul_byte_is_attached_without_poisoning_the_lock() {
    let (daemon, client) = start(pipeline());
    let (_listener, addr) = collector();
    let name = "bmp\u{0}x";
    let feed = FeedSpec::BmpLive {
        name: name.into(),
        addr,
        ring_capacity: None,
        filter: None,
    };
    let reply = client
        .apply(ServiceCommand::AttachFeed { feed }, None)
        .expect("the command is answered");
    assert!(
        matches!(
            reply.result,
            CommandResult::Outcome(CommandOutcome::FeedAttached { .. })
        ),
        "{reply:?}"
    );
    let feeds = minihttp::Client::new(client.addr())
        .get("/v1/feeds")
        .unwrap();
    assert_eq!(feeds.status, 200);
    let ServiceReply::Feeds(table) = serde_json::from_str(&feeds.body_utf8()).unwrap() else {
        panic!("/v1/feeds answers the feed table");
    };
    assert!(table.iter().any(|f| f.name == name), "{table:?}");
    let metrics = client.metrics_text().unwrap();
    assert_eq!(counter(&metrics, "artemis_state_lock_poisoned_total"), 0);
    daemon.shutdown();
}

#[test]
fn an_idle_daemon_ticks_and_does_not_spin() {
    let (daemon, client, _sock) = start_with_live_feed();
    let wakeups = || {
        counter(
            &client.metrics_text().unwrap(),
            "artemis_feed_pump_wakeups_total",
        )
    };
    let (before, started) = (wakeups(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let (after, elapsed) = (wakeups(), started.elapsed());
    let ticks = (elapsed.as_millis() / FEED_PUMP_IDLE_TICK.as_millis()) as u64;
    assert!(
        after - before <= ticks + 1,
        "{} pump wake-ups in {elapsed:?} of silence",
        after - before
    );
    assert!(after > before, "the idle tick is the safety net: it ticks");
    daemon.shutdown();
}

#[test]
fn shutdown_releases_parked_polls() {
    type Stop = fn(DaemonHandle, &CtlClient);
    let by_handle: Stop = |daemon, _| daemon.shutdown();
    let by_request: Stop = |daemon, client| {
        client.shutdown().unwrap();
        daemon.wait();
    };
    for stop in [by_handle, by_request] {
        // A sink on a closed port: its pager has nothing to page and
        // stays parked on the log, which the stop must end too.
        let config = DaemonConfig {
            webhooks: vec!["http://127.0.0.1:9/hook".into()],
            ..DaemonConfig::default()
        };
        let (daemon, client) = start_with(pipeline(), config);
        let tail = client.events(EventCursor::START, 0).unwrap().next;
        let addr = client.addr().to_string();
        let parked = std::thread::spawn(move || CtlClient::new(addr).events(tail, 10_000));
        std::thread::sleep(Duration::from_millis(100));
        // `client` holds an idle kept-alive connection, which the stop
        // must end rather than wait out its idle timeout.
        let started = Instant::now();
        stop(daemon, &client);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "shutdown waited {took:?} for a parked long-poll or pager"
        );
        let batch = parked.join().unwrap().expect("the poll is answered");
        assert!(batch.events.is_empty());
        assert_eq!(batch.next, tail);
    }
}

/// A webhook receiver on loopback recording when each body arrived.
struct Capture {
    url: String,
    received: Arc<Mutex<Vec<(Instant, String)>>>,
    switch: ShutdownSwitch,
    thread: JoinHandle<()>,
}

impl Capture {
    fn start() -> Capture {
        let receiver = Server::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}/hook", receiver.local_addr().unwrap());
        let switch = receiver.shutdown_switch().unwrap();
        let received: Arc<Mutex<Vec<(Instant, String)>>> = Arc::default();
        let store = Arc::clone(&received);
        let thread = std::thread::spawn(move || {
            let _ = receiver.serve(move |req| {
                let body = req.body_utf8().unwrap_or_default().to_string();
                store.lock().unwrap().push((Instant::now(), body));
                Response::json("{}")
            });
        });
        Capture {
            url,
            received,
            switch,
            thread,
        }
    }

    /// When the first body holding `needle` arrived, waiting up to
    /// `within` for it.
    fn arrival_of(&self, needle: &str, within: Duration) -> Option<Instant> {
        let deadline = Instant::now() + within;
        loop {
            let got = self.received.lock().unwrap();
            if let Some((at, _)) = got.iter().find(|(_, body)| body.contains(needle)) {
                return Some(*at);
            }
            drop(got);
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn stop(self) {
        self.switch.trigger();
        self.thread.join().unwrap();
    }
}

#[test]
fn a_command_wakes_a_parked_poll_and_a_parked_pager() {
    let capture = Capture::start();
    let (daemon, client) = start(pipeline());
    client.add_webhook(&capture.url).unwrap();
    let policy = ServiceCommand::SetMitigationPolicy {
        prefix: "10.0.0.0/16".parse().unwrap(),
        policy: MitigationPolicy::ConfirmFirst,
    };
    client.apply(policy, None).unwrap();
    let hijack = WireFeedEvent {
        emitted_at: SimTime::from_secs(45),
        observed_at: SimTime::from_secs(40),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: VANTAGE,
        prefix: "10.0.7.0/24".parse().unwrap(),
        as_path: Some(AsPath::from_sequence([VANTAGE.0, 666])),
        origin_as: Some(Asn(666)),
        raw: None,
    };
    assert_eq!(client.inject(vec![hijack]).unwrap().alerts_raised, 1);
    // Settled: the hijack's pages have reached the sink, and the poll
    // below parks at the log's tail with its pager parked too.
    assert!(capture
        .arrival_of("MitigationPending", Duration::from_secs(5))
        .is_some());
    let settled = client.events(EventCursor::START, 0).unwrap();
    let alert = settled
        .events
        .iter()
        .find_map(|e| match e {
            IncidentEvent::MitigationPending { alert, .. } => Some(*alert),
            _ => None,
        })
        .expect("the plan is held for confirmation");
    let addr = client.addr().to_string();
    let tail = settled.next;
    let parked = std::thread::spawn(move || {
        let batch = CtlClient::new(addr).events(tail, 10_000).unwrap();
        (Instant::now(), batch)
    });
    std::thread::sleep(Duration::from_millis(100));

    let confirmed = Instant::now();
    client
        .apply(ServiceCommand::ConfirmMitigation { alert }, None)
        .unwrap();
    let (back, batch) = parked.join().unwrap();
    assert!(
        batch
            .events
            .iter()
            .any(|e| matches!(e, IncidentEvent::MitigationTriggered { .. })),
        "the poll came back without the mitigation: {batch:?}"
    );
    let polled = back.saturating_duration_since(confirmed);
    assert!(polled < Duration::from_secs(1), "the poll took {polled:?}");
    let paged = capture
        .arrival_of("MitigationTriggered", Duration::from_secs(5))
        .expect("the sink is paged the mitigation")
        .saturating_duration_since(confirmed);
    assert!(paged < Duration::from_secs(1), "the page took {paged:?}");
    daemon.shutdown();
    capture.stop();
}

#[test]
fn a_panic_under_the_state_lock_takes_nothing_else_down() {
    let (daemon, client, mut sock) = start_with_live_feed();
    let shared = Arc::clone(&daemon.shared);
    let handler = std::thread::spawn(move || {
        let _inner = shared.lock();
        panic!("a handler dies holding the state lock (expected by this test)");
    });
    assert!(handler.join().is_err());

    client.healthz().unwrap();
    client.events(EventCursor::START, 0).unwrap();
    client.apply(ServiceCommand::Pause, None).unwrap();
    // The feed pump and the long-poll path still deliver off the wire.
    assert_woken_not_ticked(&client, &mut sock);
    let metrics = client.metrics_text().unwrap();
    assert_eq!(counter(&metrics, "artemis_state_lock_poisoned_total"), 1);
    assert!(!daemon.shared.inner.is_poisoned());
    daemon.shutdown();
}

/// A pull feed whose first poll panics; it never asks to run again.
struct PanicsOnFirstPoll {
    polled: bool,
}

impl FeedSource for PanicsOnFirstPoll {
    fn kind(&self) -> FeedKind {
        FeedKind::Periscope
    }
    fn name(&self) -> &str {
        "panics-on-first-poll"
    }
    fn on_route_change_into(&mut self, _: &RouteChange, _: &mut SimRng, _: &mut Vec<FeedEvent>) {}
    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        (!self.polled).then_some(now)
    }
    fn poll(&mut self, _: SimTime, _: &dyn RibView, _: &mut SimRng) -> Vec<FeedEvent> {
        self.polled = true;
        panic!("a feed's poll dies (expected by this test)");
    }
    fn events_emitted(&self) -> u64 {
        0
    }
}

#[test]
fn a_panicking_feed_poll_is_counted_and_the_pump_keeps_going() {
    let mut pipeline = pipeline();
    pipeline.attach_feed(Box::new(PanicsOnFirstPoll { polled: false }), SimTime::ZERO);
    let (daemon, client) = start(pipeline);
    let read = |name| counter(&client.metrics_text().unwrap(), name);
    let deadline = Instant::now() + Duration::from_secs(5);
    while read("artemis_feed_pump_panics_total") == 0 {
        assert!(Instant::now() < deadline, "the pump never polled the feed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let wakeups = read("artemis_feed_pump_wakeups_total");
    std::thread::sleep(FEED_PUMP_IDLE_TICK * 2);
    assert!(
        read("artemis_feed_pump_wakeups_total") > wakeups,
        "the pump thread died with the panic"
    );
    assert_eq!(read("artemis_feed_pump_panics_total"), 1);

    let hijack = WireFeedEvent {
        emitted_at: SimTime::from_secs(45),
        observed_at: SimTime::from_secs(40),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: VANTAGE,
        prefix: "10.0.7.0/24".parse().unwrap(),
        as_path: Some(AsPath::from_sequence([VANTAGE.0, 666])),
        origin_as: Some(Asn(666)),
        raw: None,
    };
    assert_eq!(client.inject(vec![hijack]).unwrap().alerts_raised, 1);
    let batch = client.events(EventCursor::START, 0).unwrap();
    assert!(batch
        .events
        .iter()
        .any(|e| matches!(e, IncidentEvent::AlertRaised { .. })));
    daemon.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn audit_records_the_file_refuses_are_served_from_memory_and_counted() {
    // Every write to /dev/full fails with ENOSPC: the audit file takes
    // nothing, yet every command must succeed and stay listed.
    let controller = Controller::new(OPERATOR, LatencyModel::const_secs(15), SimRng::new(1));
    let service = ArtemisService::new(pipeline(), controller);
    let config = DaemonConfig {
        audit_path: Some("/dev/full".into()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start("127.0.0.1:0", service, config).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    const N: u64 = 4;
    for i in 0..N {
        let owned = OwnedPrefix::new(format!("172.16.{i}.0/24").parse().unwrap(), OPERATOR);
        let command = ServiceCommand::AddOwnedPrefix {
            owned,
            policy: None,
        };
        let out = client.apply(command, Some(SimTime::from_secs(i))).unwrap();
        assert!(matches!(out.result, CommandResult::Outcome(_)), "{out:?}");
    }
    let audit = client.audit(0).unwrap();
    assert_eq!(audit.len() as u64, N);
    assert!(audit.iter().all(|r| r.accepted()));
    let metrics = client.metrics_text().unwrap();
    assert_eq!(counter(&metrics, "artemis_audit_records_total"), N);
    assert_eq!(counter(&metrics, "artemis_audit_write_errors_total"), N);
    daemon.shutdown();
}
