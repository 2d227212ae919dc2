//! End-to-end wire tests: every [`ServiceCommand`] variant travels
//! through the daemon's HTTP API with explicit service-clock stamps,
//! and the resulting incident-event history is byte-identical to an
//! in-process twin applying the same script. Also covers `/metrics`
//! content, the audit trail, and webhook alert delivery.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_controller::Controller;
use artemis_core::service::MitigationPhase;
use artemis_core::wire::CommandResult;
use artemis_core::{
    AlertId, ArtemisConfig, ArtemisService, CommandOutcome, EventCursor, MitigationPolicy,
    OwnedPrefix, Pipeline, ServiceCommand, ServiceError,
};
use artemis_feeds::{FeedEvent, FeedKind, FeedSpec, WireFeedEvent};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemisd::daemon::AlertPayload;
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn pfx(s: &str) -> Prefix {
    Prefix::from_str(s).unwrap()
}

fn service() -> ArtemisService {
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
    );
    let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
    let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
    ArtemisService::new(pipeline, controller)
}

fn event(vp: u32, prefix: &str, path: &[u32], t: u64) -> WireFeedEvent {
    let as_path = AsPath::from_sequence(path.iter().copied());
    let origin = as_path.origin();
    WireFeedEvent {
        emitted_at: SimTime::from_secs(t),
        observed_at: SimTime::from_secs(t.saturating_sub(5)),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(vp),
        prefix: pfx(prefix),
        as_path: Some(as_path),
        origin_as: origin,
        raw: None,
    }
}

/// Apply `cmd` over the wire and to the in-process twin at the same
/// instant; the two results must agree exactly.
fn apply_both(
    client: &CtlClient,
    twin: &mut ArtemisService,
    cmd: ServiceCommand,
    at_secs: u64,
) -> CommandResult {
    let at = SimTime::from_secs(at_secs);
    let wire = client
        .apply(cmd.clone(), Some(at))
        .expect("wire command failed");
    assert_eq!(wire.at, at, "daemon must honor the explicit at");
    let local = match twin.apply(cmd, at) {
        Ok(outcome) => CommandResult::Outcome(outcome),
        Err(error) => CommandResult::Rejected(error),
    };
    assert_eq!(wire.result, local, "wire and in-process outcomes differ");
    wire.result
}

#[test]
fn every_command_round_trips_with_identical_history() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    let mut twin = service();

    client.healthz().expect("daemon must be live");

    // 1–3: policy swap, onboarding, feed attach.
    let r = apply_both(
        &client,
        &mut twin,
        ServiceCommand::SetMitigationPolicy {
            prefix: pfx("10.0.0.0/23"),
            policy: MitigationPolicy::ConfirmFirst,
        },
        1,
    );
    assert!(matches!(r, CommandResult::Outcome(_)));
    apply_both(
        &client,
        &mut twin,
        ServiceCommand::AddOwnedPrefix {
            owned: OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
            policy: Some(MitigationPolicy::Auto),
        },
        2,
    );
    let attached = apply_both(
        &client,
        &mut twin,
        ServiceCommand::AttachFeed {
            feed: FeedSpec::ris_live("rrc", vec![Asn(174)]),
        },
        3,
    );
    let CommandResult::Outcome(CommandOutcome::FeedAttached { handle }) = attached else {
        panic!("expected FeedAttached, got {attached:?}");
    };

    // 4: a sub-prefix hijack arrives through both paths.
    let hijack = event(174, "10.0.0.0/23", &[174, 666], 45);
    let injected = client.inject(vec![hijack.clone()]).expect("inject failed");
    assert_eq!(injected.delivered, 1);
    assert_eq!(injected.alerts_raised, 1);
    twin.deliver(&FeedEvent::from(hijack));

    // Mid-flight scrape: feed attached, incident pending confirmation.
    let metrics = client.metrics_text().expect("metrics scrape failed");
    assert!(metrics.contains("artemis_stage_batches_total{stage=\"drain\"}"));
    assert!(metrics.contains("artemis_stage_mean_batch_nanos{stage=\"classify\"}"));
    assert!(metrics.contains("artemis_incidents{phase=\"pending_confirmation\"} 1"));
    assert!(metrics.contains(&format!("artemis_feed_queued_events{{feed=\"{handle}\"")));
    assert!(metrics.contains("artemis_events_delivered_total 1"));
    assert!(metrics.contains("artemis_audit_records_total 3"));

    // The raised alert has the same id on both sides.
    let status = client.status().expect("status failed");
    assert_eq!(status.incidents.len(), 1);
    assert_eq!(
        status.incidents[0].phase,
        MitigationPhase::PendingConfirmation
    );
    let alert = status.incidents[0].alert;
    assert_eq!(
        twin.status(SimTime::from_secs(50)).incidents[0].alert,
        alert
    );

    // 5–6: confirm executes the held plan once, then rejects.
    let confirmed = apply_both(
        &client,
        &mut twin,
        ServiceCommand::ConfirmMitigation { alert },
        60,
    );
    assert!(matches!(
        confirmed,
        CommandResult::Outcome(CommandOutcome::MitigationConfirmed { .. })
    ));
    let again = apply_both(
        &client,
        &mut twin,
        ServiceCommand::ConfirmMitigation { alert },
        61,
    );
    assert_eq!(
        again,
        CommandResult::Rejected(ServiceError::NothingPending(alert))
    );

    // 7–9: pause (twice; second rejects), resume.
    apply_both(&client, &mut twin, ServiceCommand::Pause, 62);
    let double_pause = apply_both(&client, &mut twin, ServiceCommand::Pause, 63);
    assert_eq!(
        double_pause,
        CommandResult::Rejected(ServiceError::AlreadyPaused)
    );
    apply_both(&client, &mut twin, ServiceCommand::Resume, 64);

    // 10–11: detach the feed once, then reject.
    let detached = apply_both(
        &client,
        &mut twin,
        ServiceCommand::DetachFeed { handle },
        65,
    );
    assert!(matches!(
        detached,
        CommandResult::Outcome(CommandOutcome::FeedDetached { .. })
    ));
    let redetached = apply_both(
        &client,
        &mut twin,
        ServiceCommand::DetachFeed { handle },
        66,
    );
    assert_eq!(
        redetached,
        CommandResult::Rejected(ServiceError::UnknownFeed(handle))
    );

    // 12–13: offboard once, then reject an unknown prefix.
    apply_both(
        &client,
        &mut twin,
        ServiceCommand::RemoveOwnedPrefix {
            prefix: pfx("172.16.0.0/23"),
        },
        67,
    );
    let unknown = apply_both(
        &client,
        &mut twin,
        ServiceCommand::RemoveOwnedPrefix {
            prefix: pfx("8.8.8.0/24"),
        },
        68,
    );
    assert_eq!(
        unknown,
        CommandResult::Rejected(ServiceError::UnknownPrefix(pfx("8.8.8.0/24")))
    );

    // The histories are byte-identical once serialized.
    let wire_history = client.events(EventCursor::START, 0).expect("events failed");
    let local_history = twin.poll_events(EventCursor::START);
    assert!(!wire_history.events.is_empty());
    assert_eq!(wire_history.missed, 0);
    assert_eq!(wire_history.next, local_history.next);
    assert_eq!(
        serde_json::to_string(&wire_history.events).unwrap(),
        serde_json::to_string(&local_history.events).unwrap(),
        "wire and in-process event histories must serialize identically"
    );

    // The audit trail recorded every command — accepted and rejected —
    // in order, with the explicit instants.
    let audit = client.audit(0).expect("audit failed");
    assert_eq!(audit.len(), 12, "12 commands were posted");
    assert_eq!(audit[0].at, SimTime::from_secs(1));
    assert_eq!(audit[11].at, SimTime::from_secs(68));
    let rejected: Vec<u64> = audit
        .iter()
        .filter(|r| !r.accepted())
        .map(|r| r.seq)
        .collect();
    assert_eq!(rejected, vec![4, 6, 9, 11], "exactly the four rejections");
    for (i, rec) in audit.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "audit sequence is gapless");
    }

    daemon.shutdown();
}

#[test]
fn schema_version_mismatch_is_rejected() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let http = minihttp::Client::new(daemon.addr().to_string());
    let body = "{\"schema_version\":999,\"at\":null,\"command\":\"Pause\"}";
    let resp = http
        .post("/v1/command", "application/json", body)
        .expect("request failed");
    assert_eq!(resp.status, 400);
    assert!(resp.body_utf8().contains("schema_version"));
    // Nothing was applied or audited.
    let client = CtlClient::new(daemon.addr().to_string());
    assert!(client.audit(0).unwrap().is_empty());
    daemon.shutdown();
}

/// A v2 inject body as a client in any language writes it: one event
/// whose origin is left to its path (`"origin_as": null`).
fn inject_body(vantage: u32, path: &[u32], secs: u64) -> String {
    let path: Vec<String> = path.iter().map(u32::to_string).collect();
    format!(
        "{{\"schema_version\":2,\"events\":[{{\"emitted_at\":{t},\"observed_at\":{t},\
         \"source\":\"RisLive\",\"collector\":\"rrc00\",\"vantage\":{vantage},\
         \"prefix\":\"10.0.0.0/23\",\"as_path\":{{\"segments\":[{{\"Sequence\":[{}]}}]}},\
         \"origin_as\":null,\"raw\":null}}]}}",
        path.join(","),
        t = secs * 1_000_000,
    )
}

/// The origin an injected event leaves to its path is the one both
/// detection and the incident's monitor read: heals announced by every
/// vantage point with `"origin_as": null` are benign *and* resolve the
/// incident. (When the monitor kept the stated `null`, it counted each
/// healed vantage point as hijacked by an AS_SET origin, and the
/// incident never resolved.)
#[test]
fn heals_without_a_stated_origin_resolve_the_incident() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let http = minihttp::Client::new(daemon.addr().to_string());
    let inject = |vantage: u32, path: &[u32], secs: u64| -> String {
        let resp = http
            .post(
                "/v1/inject",
                "application/json",
                &inject_body(vantage, path, secs),
            )
            .expect("inject failed");
        assert_eq!(resp.status, 200);
        resp.body_utf8().to_string()
    };
    assert!(inject(174, &[174, 666], 45).contains("\"alerts_raised\":1"));
    assert!(inject(3356, &[3356, 666], 50).contains("\"alerts_raised\":0"));
    for (vantage, secs) in [(174, 120), (3356, 121), (174, 300)] {
        let reply = inject(vantage, &[vantage, 65001], secs);
        assert!(
            reply.contains("\"delivered\":1,\"alerts_raised\":0"),
            "{reply}"
        );
    }
    let client = CtlClient::new(daemon.addr().to_string());
    let log = client.events(EventCursor::START, 0).expect("events").events;
    let resolved: Vec<_> = log
        .iter()
        .filter_map(|e| match e {
            artemis_core::IncidentEvent::Resolved { alert, at } => Some((*alert, *at)),
            _ => None,
        })
        .collect();
    assert_eq!(resolved, vec![(AlertId(0), SimTime::from_secs(121))]);
    daemon.shutdown();
}

/// A webhook receiver on loopback recording every body it is sent.
struct Capture {
    url: String,
    received: Arc<Mutex<Vec<String>>>,
    switch: minihttp::ShutdownSwitch,
    thread: std::thread::JoinHandle<()>,
}

impl Capture {
    fn start() -> Capture {
        let receiver = minihttp::Server::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}/hook", receiver.local_addr().unwrap());
        let switch = receiver.shutdown_switch().unwrap();
        let received: Arc<Mutex<Vec<String>>> = Arc::default();
        let store = Arc::clone(&received);
        let thread = std::thread::spawn(move || {
            let _ = receiver.serve(move |req| {
                if let Ok(body) = req.body_utf8() {
                    store.lock().unwrap().push(body.to_string());
                }
                minihttp::Response::json("{}")
            });
        });
        Capture {
            url,
            received,
            switch,
            thread,
        }
    }

    /// The bodies received once there are at least `n`, or all of
    /// them when `within` passes first.
    fn wait_for(&self, n: usize, within: Duration) -> Vec<String> {
        let deadline = Instant::now() + within;
        loop {
            let got = self.received.lock().unwrap().clone();
            if got.len() >= n || Instant::now() >= deadline {
                return got;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn stop(self) {
        self.switch.trigger();
        self.thread.join().unwrap();
    }
}

fn first_is_alert_zero_raised(payloads: &[String]) -> bool {
    payloads.first().is_some_and(|p| {
        let payload: AlertPayload = serde_json::from_str(p).expect("payload must parse");
        matches!(
            payload.event,
            artemis_core::IncidentEvent::AlertRaised { alert, .. } if alert == AlertId(0)
        )
    })
}

/// The value of one unlabelled or labelled series in a scrape.
fn scraped(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {series} in the scrape"))
        .parse()
        .unwrap()
}

#[test]
fn webhook_sink_receives_alert_payloads() {
    let capture = Capture::start();
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    let sinks = client.add_webhook(&capture.url).expect("add-sink failed");
    assert_eq!(sinks.len(), 1);

    // Default policy is auto-mitigate: one hijack produces AlertRaised
    // and MitigationTriggered payloads.
    client
        .inject(vec![event(174, "10.0.0.0/23", &[174, 666], 45)])
        .expect("inject failed");

    let payloads = capture.wait_for(2, Duration::from_secs(10));
    assert!(
        payloads.len() >= 2,
        "expected at least 2 alert payloads, got {}",
        payloads.len()
    );
    assert!(first_is_alert_zero_raised(&payloads), "{payloads:?}");

    daemon.shutdown();
    capture.stop();
}

/// The incident log is a pager's only buffer: entries evicted before
/// the pager read them are counted as overflow, and the queue depth is
/// what the sinks have yet to read.
#[test]
fn entries_evicted_before_a_sink_read_them_count_as_overflow() {
    let capture = Capture::start();
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
    );
    let pipeline =
        Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect()).with_event_capacity(1);
    let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
    let daemon = Daemon::start(
        "127.0.0.1:0",
        ArtemisService::new(pipeline, controller),
        DaemonConfig {
            webhooks: vec![capture.url.clone()],
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let client = CtlClient::new(daemon.addr().to_string());

    // One lock hold appends AlertRaised and MitigationTriggered; the
    // second evicts the first before the pager can read it.
    client
        .inject(vec![event(174, "10.0.0.0/23", &[174, 666], 45)])
        .unwrap();
    let payloads = capture.wait_for(1, Duration::from_secs(10));
    assert_eq!(payloads.len(), 1, "{payloads:?}");
    let payload: AlertPayload = serde_json::from_str(&payloads[0]).unwrap();
    assert!(matches!(
        payload.event,
        artemis_core::IncidentEvent::MitigationTriggered { .. }
    ));
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = client.metrics_text().unwrap();
        if scraped(&text, "artemis_alerts_delivered_total") == 1 || Instant::now() >= deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(scraped(&text, "artemis_alerts_enqueued_total"), 1);
    assert_eq!(scraped(&text, "artemis_alerts_delivered_total"), 1);
    assert_eq!(
        scraped(&text, "artemis_alerts_dropped_total{reason=\"overflow\"}"),
        1
    );
    assert_eq!(
        scraped(&text, "artemis_alerts_dropped_total{reason=\"failed\"}"),
        0
    );
    assert_eq!(scraped(&text, "artemis_alert_queue_depth"), 0);

    daemon.shutdown();
    capture.stop();
}

/// Every sink owns a pager thread, so the daemon pages at most
/// `MAX_SINKS` (16): a seventeenth is refused over the wire and at
/// start. Nothing is paged, so no sink needs to listen.
#[test]
fn the_seventeenth_sink_is_refused() {
    assert_eq!(artemisd::MAX_SINKS, 16);
    let urls: Vec<String> = (0..17).map(|i| format!("http://127.0.0.1:9/{i}")).collect();
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    for (i, url) in urls[..16].iter().enumerate() {
        assert_eq!(client.add_webhook(url).unwrap().len(), i + 1);
    }
    let refused = client.add_webhook(&urls[16]).unwrap_err();
    assert!(refused.contains("400"), "{refused}");
    assert_eq!(client.sinks().unwrap(), urls[..16]);
    daemon.shutdown();

    let too_many = DaemonConfig {
        webhooks: urls,
        ..DaemonConfig::default()
    };
    assert!(Daemon::start("127.0.0.1:0", service(), too_many).is_err());
}

/// A URL without a port would fail every delivery, and one with a raw
/// space or CR/LF would write its own request line and headers: both
/// are refused when the sink is registered, over the wire and at start.
#[test]
fn a_webhook_url_without_a_port_or_with_raw_whitespace_is_refused() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    for url in [
        "http://127.0.0.1/hook",
        "http://127.0.0.1:9/a b",
        "http://127.0.0.1:9/hook\r\nx-injected: 1",
    ] {
        let refused = client.add_webhook(url).unwrap_err();
        assert!(refused.contains("400"), "{url:?}: {refused}");
        let config = DaemonConfig {
            webhooks: vec![url.to_string()],
            ..DaemonConfig::default()
        };
        assert!(Daemon::start("127.0.0.1:0", service(), config).is_err());
    }
    assert!(client.sinks().unwrap().is_empty());
    daemon.shutdown();
}

/// A webhook that accepts TCP and answers nothing until released must
/// delay neither detection, the control plane nor another sink: each
/// sink is paged from a thread of its own, outside the state lock. The
/// bound is logical, not a timing one: every step must finish in well
/// under the sink's 5 s delivery timeout, which is what any of them
/// would wait for if the delivery ran under the lock or one thread
/// paged every sink.
#[test]
fn a_sink_that_never_answers_delays_neither_detection_nor_commands() {
    use std::sync::mpsc::{channel, Receiver};
    const WELL_UNDER_THE_SINK_TIMEOUT: Duration = Duration::from_secs(2);

    // The sink: every request waits at the gate until `release` is
    // sent (or dropped); from then on it answers at once.
    let (entered_tx, entered) = channel::<()>();
    let (release, released) = channel::<()>();
    let gate: Mutex<(Receiver<()>, bool)> = Mutex::new((released, false));
    let entered_tx = Mutex::new(entered_tx);
    let received: Arc<Mutex<Vec<String>>> = Arc::default();
    let store = Arc::clone(&received);
    let sink = minihttp::Server::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink.local_addr().unwrap();
    let sink_switch = sink.shutdown_switch().unwrap();
    let sink_thread = std::thread::spawn(move || {
        let _ = sink.serve(move |req| {
            let _ = entered_tx.lock().unwrap().send(());
            let mut gate = gate.lock().unwrap();
            if !gate.1 {
                let _ = gate.0.recv_timeout(Duration::from_secs(30));
                gate.1 = true;
            }
            store
                .lock()
                .unwrap()
                .push(req.body_utf8().unwrap().to_string());
            minihttp::Response::json("{}")
        });
    });

    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let addr = daemon.addr().to_string();
    let client = CtlClient::new(addr.clone());
    client
        .add_webhook(&format!("http://{sink_addr}/hook"))
        .unwrap();
    // Registered after the silent sink: in a queue both drain, its
    // pages would wait behind the silent sink's.
    let live = Capture::start();
    client.add_webhook(&live.url).unwrap();
    let timed = |what: &str, f: &dyn Fn()| {
        let started = Instant::now();
        f();
        let took = started.elapsed();
        assert!(took < WELL_UNDER_THE_SINK_TIMEOUT, "{what} took {took:?}");
    };

    // The first hijack's page reaches the sink and hangs there.
    timed("an inject", &|| {
        client
            .inject(vec![event(174, "10.0.0.0/24", &[174, 666], 45)])
            .unwrap();
    });
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("the daemon pages the sink");
    let live_pages = live.wait_for(1, WELL_UNDER_THE_SINK_TIMEOUT);
    assert!(
        first_is_alert_zero_raised(&live_pages),
        "the live sink waited on the silent one: {live_pages:?}"
    );

    // While it hangs: a second hijack reaches a parked long-poll, and
    // a command and a scrape are answered.
    let tail = client.events(EventCursor::START, 0).unwrap().next;
    let parked = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let batch = CtlClient::new(addr).events(tail, 10_000).unwrap();
            (Instant::now(), batch)
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let sent = Instant::now();
    client
        .inject(vec![event(174, "10.0.1.0/24", &[174, 666], 50)])
        .unwrap();
    let (back, batch) = parked.join().unwrap();
    let took = back.saturating_duration_since(sent);
    assert!(
        took < WELL_UNDER_THE_SINK_TIMEOUT,
        "wire to parked poll took {took:?}"
    );
    assert!(batch
        .events
        .iter()
        .any(|e| matches!(e, artemis_core::IncidentEvent::AlertRaised { .. })));
    timed("a command", &|| {
        client.apply(ServiceCommand::Pause, None).unwrap();
    });
    timed("a scrape", &|| {
        client.metrics_text().unwrap();
    });

    // Once the sink answers, every page is delivered, oldest first:
    // each hijack raised an alert and triggered its mitigation.
    release.send(()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while received.lock().unwrap().len() < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    let payloads = received.lock().unwrap().clone();
    assert_eq!(payloads.len(), 4, "{payloads:?}");
    assert!(first_is_alert_zero_raised(&payloads), "{payloads:?}");
    assert_eq!(live.wait_for(4, Duration::from_secs(10)), payloads);

    daemon.shutdown();
    sink_switch.trigger();
    sink_thread.join().unwrap();
    live.stop();
}

/// A webhook that accepts TCP and never reads must not hold up
/// shutdown: the switch ends the delivery in flight instead of waiting
/// out the sink's 5 s timeout, and `shutdown` still drops the service
/// (joining its live feed's reader) before it returns.
#[test]
fn shutdown_ends_a_delivery_to_a_sink_that_never_reads() {
    use artemis_feeds::{BmpLiveFeed, LiveFeedConfig};
    use std::io::Read;
    use std::net::TcpListener;

    // The kernel completes the sink's handshakes from the backlog; the
    // test accepts one only to learn that a delivery is under way.
    let sink = TcpListener::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink.local_addr().unwrap();
    let collector = TcpListener::bind("127.0.0.1:0").unwrap();
    let feed = BmpLiveFeed::connect(
        "bmp0",
        collector.local_addr().unwrap().to_string(),
        LiveFeedConfig::default(),
    );
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
    );
    let mut pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
    pipeline.attach_feed(Box::new(feed), SimTime::ZERO);
    let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
    let daemon = Daemon::start(
        "127.0.0.1:0",
        ArtemisService::new(pipeline, controller),
        DaemonConfig {
            webhooks: vec![format!("http://{sink_addr}/hook")],
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let (mut session, _) = collector.accept().unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    client
        .inject(vec![event(174, "10.0.0.0/24", &[174, 666], 45)])
        .unwrap();
    let (_delivery, _) = sink.accept().unwrap();
    // Let the page be written; the sink's pager now waits for an answer.
    std::thread::sleep(Duration::from_millis(200));

    let started = Instant::now();
    daemon.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    // The service is gone: its feed's reader was joined and hung up.
    session
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut buf = [0u8; 64];
    let read = session.read(&mut buf);
    assert!(
        matches!(read, Ok(0))
            || read
                .as_ref()
                .is_err_and(|e| e.kind() == std::io::ErrorKind::ConnectionReset),
        "the collector session is closed, got {read:?}"
    );
}

/// A body of nothing but `[` nests far deeper than any envelope: the
/// parser refuses it past 128 levels with a 400, instead of recursing
/// until the handler thread's stack overflows and aborts the daemon.
#[test]
fn deeply_nested_bodies_are_refused_and_the_daemon_lives_on() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let http = minihttp::Client::new(daemon.addr().to_string());
    let body = "[".repeat(64 * 1024);
    for path in ["/v1/command", "/v1/inject"] {
        let resp = http.post(path, "application/json", &body).unwrap();
        assert_eq!(resp.status, 400, "{path}: {}", resp.body_utf8());
        assert!(resp.body_utf8().contains("invalid body"), "{path}");
    }
    let health = http.get("/healthz").unwrap();
    assert_eq!((health.status, health.body_utf8().as_str()), (200, "ok\n"));
    daemon.shutdown();
}
