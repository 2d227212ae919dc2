//! The operator daemon, end to end over loopback HTTP: start
//! `artemisd` in-process on an ephemeral port, register a webhook
//! alert sink (a second loopback server), and drive a full incident
//! lifecycle through the typed [`CtlClient`] — onboard, attach a
//! feed, inject a sub-prefix hijack, confirm the held mitigation,
//! offboard — then replay the history from two independent cursors,
//! scrape `/metrics`, and dump the audit trail.
//!
//! ```sh
//! cargo run --release --example daemon_loopback
//! ```
//!
//! Every command carries an explicit service-clock instant, so the
//! printed story is deterministic run to run.

use artemis_repro::bgp::AsPath;
use artemis_repro::controller::Controller;
use artemis_repro::core::config::OwnedPrefix;
use artemis_repro::core::service::MitigationPhase;
use artemis_repro::core::wire::CommandResult;
use artemis_repro::core::{
    ArtemisConfig, ArtemisService, CommandOutcome, EventCursor, MitigationPolicy, Pipeline,
    ServiceCommand,
};
use artemis_repro::feeds::{FeedKind, FeedSpec, WireFeedEvent};
use artemis_repro::prelude::*;
use artemis_repro::simnet::{LatencyModel, SimRng, SimTime};
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn hijack_event(vantage: u32, prefix: &str, path: &[u32], t: u64) -> WireFeedEvent {
    let as_path = AsPath::from_sequence(path.iter().copied());
    let origin_as = as_path.origin();
    WireFeedEvent {
        emitted_at: SimTime::from_secs(t),
        observed_at: SimTime::from_secs(t.saturating_sub(5)),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(vantage),
        prefix: prefix.parse().expect("valid prefix"),
        as_path: Some(as_path),
        origin_as,
        raw: None,
    }
}

fn apply(client: &CtlClient, cmd: ServiceCommand, at: u64) -> CommandResult {
    client
        .apply(cmd, Some(SimTime::from_secs(at)))
        .expect("command failed")
        .result
}

fn main() {
    // --- A webhook receiver: where hijack alerts get paged to --------
    let paged: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let receiver = minihttp::Server::bind("127.0.0.1:0").expect("bind receiver");
    let receiver_addr = receiver.local_addr().expect("receiver addr");
    let receiver_switch = receiver.shutdown_switch().expect("receiver switch");
    let store = Arc::clone(&paged);
    let receiver_thread = std::thread::spawn(move || {
        let _ = receiver.serve(move |req| {
            if let Ok(body) = req.body_utf8() {
                store.lock().unwrap().push(body.to_string());
            }
            minihttp::Response::json("{}")
        });
    });

    // --- The daemon ---------------------------------------------------
    let asn = Asn(65001);
    let config = ArtemisConfig::new(
        asn,
        vec![OwnedPrefix::new("10.0.0.0/23".parse().expect("valid"), asn)],
    );
    let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
    let controller = Controller::new(asn, LatencyModel::const_secs(15), SimRng::new(1));
    let service = ArtemisService::new(pipeline, controller);
    let daemon =
        Daemon::start("127.0.0.1:0", service, DaemonConfig::default()).expect("start daemon");
    let client = CtlClient::new(daemon.addr().to_string());
    println!("daemon    : listening on http://{}", daemon.addr());

    client.healthz().expect("daemon must be live");
    let sinks = client
        .add_webhook(&format!("http://{receiver_addr}/hook"))
        .expect("register webhook");
    println!("alert sink: {}", sinks[0]);

    // --- Operate ------------------------------------------------------
    apply(
        &client,
        ServiceCommand::SetMitigationPolicy {
            prefix: "10.0.0.0/23".parse().expect("valid"),
            policy: MitigationPolicy::ConfirmFirst,
        },
        1,
    );
    apply(
        &client,
        ServiceCommand::AddOwnedPrefix {
            owned: OwnedPrefix::new("172.16.0.0/23".parse().expect("valid"), asn),
            policy: None,
        },
        2,
    );
    let attached = apply(
        &client,
        ServiceCommand::AttachFeed {
            feed: FeedSpec::ris_live("rrc", vec![Asn(174)]),
        },
        3,
    );
    let CommandResult::Outcome(CommandOutcome::FeedAttached { handle }) = attached else {
        panic!("expected FeedAttached, got {attached:?}");
    };
    println!("feed      : attached under handle {handle}");

    // A sub-prefix hijack shows up at a vantage point.
    let injected = client
        .inject(vec![hijack_event(174, "10.0.0.0/24", &[174, 666], 45)])
        .expect("inject failed");
    println!(
        "hijack    : injected {} event(s), {} alert(s) raised",
        injected.delivered, injected.alerts_raised
    );

    let status = client.status().expect("status failed");
    let incident = &status.incidents[0];
    assert_eq!(incident.phase, MitigationPhase::PendingConfirmation);
    println!(
        "incident  : alert {} on {} ({:?}), awaiting confirmation",
        incident.alert.0, incident.observed_prefix, incident.hijack_type
    );

    let confirmed = apply(
        &client,
        ServiceCommand::ConfirmMitigation {
            alert: incident.alert,
        },
        60,
    );
    let CommandResult::Outcome(CommandOutcome::MitigationConfirmed { plan, .. }) = confirmed else {
        panic!("expected MitigationConfirmed, got {confirmed:?}");
    };
    println!(
        "mitigation: confirmed — announcing {} more-specific(s)",
        plan.announce.len()
    );

    apply(
        &client,
        ServiceCommand::RemoveOwnedPrefix {
            prefix: "172.16.0.0/23".parse().expect("valid"),
        },
        70,
    );

    // --- Replay: two consumers, identical histories -------------------
    let full = client.events(EventCursor::START, 0).expect("events failed");
    let replay = client.events(EventCursor::START, 0).expect("events failed");
    assert_eq!(
        serde_json::to_string(&full.events).expect("serialize"),
        serde_json::to_string(&replay.events).expect("serialize"),
    );
    println!(
        "events    : {} recorded, 0 missed, histories identical across consumers",
        full.events.len()
    );

    // --- Scrape and audit ---------------------------------------------
    let metrics = client.metrics_text().expect("metrics failed");
    for needle in [
        "artemis_stage_batches_total{stage=\"drain\"}",
        "artemis_incidents{phase=\"executing\"} 1",
        "artemis_events_delivered_total 1",
    ] {
        assert!(metrics.contains(needle), "missing metric: {needle}");
    }
    // Series whose values every step above has settled; stage timings,
    // pump wake-ups and the webhook's counters depend on when the
    // daemon's threads ran.
    println!("metrics   :");
    for series in [
        "artemis_events_delivered_total",
        "artemis_events_recorded_total",
        "artemis_incidents{phase=\"pending_confirmation\"}",
        "artemis_incidents{phase=\"executing\"}",
        "artemis_audit_records_total",
    ] {
        let line = metrics
            .lines()
            .find(|l| l.strip_prefix(series).is_some_and(|v| v.starts_with(' ')))
            .unwrap_or_else(|| panic!("missing metric: {series}"));
        println!("            {line}");
    }

    let audit = client.audit(0).expect("audit failed");
    println!("audit     : {} commands recorded:", audit.len());
    for rec in &audit {
        println!(
            "            #{} at t={}s {} — {}",
            rec.seq,
            rec.at.as_micros() / 1_000_000,
            if rec.accepted() { "ok " } else { "REJ" },
            serde_json::to_string(&rec.command).expect("serialize"),
        );
    }

    // --- The webhook got paged ----------------------------------------
    let deadline = Instant::now() + Duration::from_secs(10);
    while paged.lock().unwrap().len() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    let payloads = paged.lock().unwrap().clone();
    assert!(
        payloads.len() >= 2,
        "webhook must be paged about the alert and the mitigation"
    );
    println!("webhook   : paged {} time(s)", payloads.len());

    daemon.shutdown();
    receiver_switch.trigger();
    let _ = receiver_thread.join();
    println!("daemon    : clean shutdown");
}
