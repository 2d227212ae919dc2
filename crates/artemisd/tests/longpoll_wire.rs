//! Wire tests for the cursor-based event stream: independent HTTP
//! consumers replay identical histories from their own cursors, ring
//! overruns surface as `missed` over the wire, a long-poll parks
//! until an event arrives, an idle daemon's parked pagers and
//! long-polls stay parked, and `/v1/inject` counts alerts whatever the
//! log retains.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_controller::Controller;
use artemis_core::{
    ArtemisConfig, ArtemisService, EventCursor, IncidentEvent, MitigationPolicy, OwnedPrefix,
    Pipeline, ServiceCommand,
};
use artemis_feeds::{FeedKind, WireFeedEvent};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::str::FromStr;
use std::time::{Duration, Instant};

fn pfx(s: &str) -> Prefix {
    Prefix::from_str(s).unwrap()
}

fn service_with_capacity(capacity: usize) -> ArtemisService {
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
    );
    let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect())
        .with_event_capacity(capacity);
    let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
    ArtemisService::new(pipeline, controller)
}

/// Six commands producing six events: onboard, policy change, pause,
/// resume, offboard, pause again.
fn drive_six_events(client: &CtlClient) {
    let script: Vec<(ServiceCommand, u64)> = vec![
        (
            ServiceCommand::AddOwnedPrefix {
                owned: OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
                policy: None,
            },
            1,
        ),
        (
            ServiceCommand::SetMitigationPolicy {
                prefix: pfx("10.0.0.0/23"),
                policy: MitigationPolicy::ConfirmFirst,
            },
            2,
        ),
        (ServiceCommand::Pause, 3),
        (ServiceCommand::Resume, 4),
        (
            ServiceCommand::RemoveOwnedPrefix {
                prefix: pfx("172.16.0.0/23"),
            },
            5,
        ),
        (ServiceCommand::Pause, 6),
    ];
    for (cmd, at) in script {
        client
            .apply(cmd, Some(SimTime::from_secs(at)))
            .expect("command failed");
    }
}

#[test]
fn independent_consumers_replay_identical_histories() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        service_with_capacity(1024),
        DaemonConfig::default(),
    )
    .unwrap();
    let addr = daemon.addr().to_string();
    drive_six_events(&CtlClient::new(addr.clone()));

    // Consumer A reads the whole stream in one poll; consumer B (its
    // own connection) reads it in two, starting over from START.
    let a = CtlClient::new(addr.clone());
    let b = CtlClient::new(addr);
    let full = a.events(EventCursor::START, 0).expect("consumer A poll");
    assert_eq!(full.events.len(), 6);
    assert_eq!(full.missed, 0);

    let b1 = b.events(EventCursor::START, 0).expect("consumer B poll 1");
    let b2 = b.events(b1.next, 0).expect("consumer B poll 2");
    assert!(b2.events.is_empty(), "B already consumed everything");
    assert_eq!(b1.next, full.next);
    assert_eq!(
        serde_json::to_string(&full.events).unwrap(),
        serde_json::to_string(&b1.events).unwrap(),
        "two consumers must replay byte-identical histories"
    );

    // Replaying from an interior cursor yields exactly the suffix.
    let mid = b.events(EventCursor::START, 0).unwrap();
    let suffix_start = mid.events.len() - 2;
    let tail_cursor: EventCursor =
        serde_json::from_str(&(suffix_start as u64).to_string()).unwrap();
    let tail = a.events(tail_cursor, 0).expect("suffix poll");
    assert_eq!(tail.events.len(), 2);
    assert_eq!(
        serde_json::to_string(&tail.events).unwrap(),
        serde_json::to_string(&mid.events[suffix_start..].to_vec()).unwrap()
    );

    daemon.shutdown();
}

#[test]
fn ring_overrun_reports_missed_over_the_wire() {
    // Capacity 4, six events: the two oldest are evicted before a
    // START consumer ever polls.
    let daemon = Daemon::start(
        "127.0.0.1:0",
        service_with_capacity(4),
        DaemonConfig::default(),
    )
    .unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    drive_six_events(&client);

    let batch = client.events(EventCursor::START, 0).expect("poll failed");
    assert_eq!(batch.missed, 2, "two evicted events must be reported");
    assert_eq!(batch.events.len(), 4, "only the retained tail arrives");
    assert_eq!(batch.next.sequence(), 6);

    // A consumer already past the evicted region sees no loss.
    let caught_up = client.events(batch.next, 0).expect("tail poll");
    assert_eq!(caught_up.missed, 0);
    assert!(caught_up.events.is_empty());

    daemon.shutdown();
}

#[test]
fn longpoll_parks_until_an_event_arrives() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        service_with_capacity(1024),
        DaemonConfig::default(),
    )
    .unwrap();
    let addr = daemon.addr().to_string();
    let client = CtlClient::new(addr.clone());

    // Reach the current tail.
    let tail = client.events(EventCursor::START, 0).unwrap().next;

    // A second client fires a command shortly after the poll parks.
    let writer_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        CtlClient::new(writer_addr)
            .apply(ServiceCommand::Pause, Some(SimTime::from_secs(9)))
            .expect("pause failed");
    });

    let started = Instant::now();
    let batch = client.events(tail, 10_000).expect("long-poll failed");
    let waited = started.elapsed();
    writer.join().unwrap();

    assert_eq!(batch.events.len(), 1, "the pause event wakes the poll");
    assert!(
        waited >= Duration::from_millis(100),
        "poll must actually park, returned after {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(9),
        "poll must return on the event, not the timeout"
    );

    daemon.shutdown();
}

#[test]
fn inject_counts_the_alert_that_a_one_entry_log_already_evicted() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        service_with_capacity(1),
        DaemonConfig::default(),
    )
    .unwrap();
    let client = CtlClient::new(daemon.addr().to_string());

    let as_path = AsPath::from_sequence([174u32, 666]);
    let hijack = WireFeedEvent {
        emitted_at: SimTime::from_secs(45),
        observed_at: SimTime::from_secs(40),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(174),
        prefix: pfx("10.0.0.0/23"),
        origin_as: as_path.origin(),
        as_path: Some(as_path),
        raw: None,
    };
    let injected = client.inject(vec![hijack]).expect("inject failed");
    assert_eq!(injected.delivered, 1);
    assert_eq!(injected.alerts_raised, 1);

    // The auto-mitigation's entry pushed the alert's out of the log.
    let batch = client.events(EventCursor::START, 0).expect("poll failed");
    assert_eq!(batch.missed, 1, "AlertRaised was evicted");
    assert!(matches!(
        batch.events.as_slice(),
        [IncidentEvent::MitigationTriggered { .. }]
    ));

    daemon.shutdown();
}

fn counter(metrics: &str, name: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("{name} missing from /metrics"));
    line[name.len() + 1..].parse().unwrap()
}

#[test]
fn an_idle_daemon_leaves_its_parked_readers_parked() {
    // Four sinks on a closed port: each pager parks on the log with
    // nothing to page, beside two parked long-polls.
    let config = DaemonConfig {
        webhooks: vec!["http://127.0.0.1:9/hook".into(); 4],
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start("127.0.0.1:0", service_with_capacity(1024), config).unwrap();
    let addr = daemon.addr().to_string();
    let client = CtlClient::new(addr.clone());
    let tail = client.events(EventCursor::START, 0).unwrap().next;
    let polls: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || CtlClient::new(addr).events(tail, 10_000))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let wakeups = || {
        counter(
            &client.metrics_text().unwrap(),
            "artemis_log_park_wakeups_total",
        )
    };
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(500));
    let woken = wakeups() - before;
    assert!(woken < 5, "{woken} park wake-ups in 500 ms of silence");

    daemon.shutdown();
    for poll in polls {
        let batch = poll.join().unwrap().expect("the stop answers the poll");
        assert!(batch.events.is_empty());
    }
}
