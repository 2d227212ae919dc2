//! The wake path over real loopback sockets: RFC 7854 bytes written to
//! a [`BmpLiveFeed`] must reach a client parked on `/v1/events`
//! through two notifications (ring → feed pump, feed pump →
//! long-poll) and no timer. Nothing here times anything finer than
//! half an idle tick: a lost ring wake shows as a wait for
//! [`FEED_PUMP_IDLE_TICK`], and — because these tests build with the
//! raised [`LONGPOLL_PARK_CAP`] — a lost long-poll wake shows as
//! seconds.
//!
//! They live beside the daemon rather than under `tests/` because
//! they are stated in terms of its private constants and reach into
//! [`Shared`] to poison the state lock.

use super::*;
use crate::CtlClient;
use artemis_bgp::{AsPath, Asn, BgpMessage, PathAttributes, Prefix, UpdateMessage};
use artemis_bmp::{BmpMessage, BmpWriter, PeerHeader};
use artemis_controller::Controller;
use artemis_core::{ArtemisConfig, OwnedPrefix, Pipeline, ServiceCommand};
use artemis_feeds::{BmpLiveFeed, FeedSpec, LiveFeedConfig};
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
    let controller = Controller::new(OPERATOR, LatencyModel::const_secs(15), SimRng::new(1));
    let service = ArtemisService::new(pipeline, controller);
    let daemon = Daemon::start("127.0.0.1:0", service, DaemonConfig::default()).unwrap();
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
        let (daemon, client) = start(pipeline());
        let tail = client.events(EventCursor::START, 0).unwrap().next;
        let addr = client.addr().to_string();
        let parked = std::thread::spawn(move || CtlClient::new(addr).events(tail, 10_000));
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        stop(daemon, &client);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "shutdown waited {took:?} for a parked long-poll"
        );
        let batch = parked.join().unwrap().expect("the poll is answered");
        assert!(batch.events.is_empty());
        assert_eq!(batch.next, tail);
    }
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
