//! Live BMP ingestion, end to end over a real loopback TCP socket: an
//! in-process "collector" accepts the daemon's BMP session and streams
//! RFC 7854 frames — initiation, peer-up, benign announcements, then a
//! sub-prefix hijack. The daemon's feed pump drains the wire feed's
//! backpressure ring through detection, auto-mitigates the hijack, and
//! resolves the incident once the collector streams the post-mitigation
//! legitimate routes. A pre-ring [`FeedFilter`] keeps unrelated noise
//! out of the ring, and `/metrics` shows the per-feed lag counters.
//!
//! ```sh
//! cargo run --release --example live_collector
//! ```

use artemis_repro::bgp::{AsPath, BgpMessage, OpenMessage, PathAttributes, UpdateMessage};
use artemis_repro::bmp::{BmpMessage, BmpWriter, InfoTlv, PeerHeader};
use artemis_repro::controller::Controller;
use artemis_repro::core::config::OwnedPrefix;
use artemis_repro::core::service::MitigationPhase;
use artemis_repro::core::{
    ArtemisConfig, ArtemisService, MitigationPolicy, Pipeline, ServiceCommand,
};
use artemis_repro::feeds::{FeedFilter, FeedSpec};
use artemis_repro::prelude::*;
use artemis_repro::simnet::{LatencyModel, SimRng};
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const VANTAGE: u32 = 174;
const OPERATOR: u32 = 65_001;
const ROGUE: u32 = 666;

fn peer(ts_secs: u64) -> PeerHeader {
    PeerHeader::global(
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        Asn(VANTAGE),
        Ipv4Addr::new(192, 0, 2, 10),
        ts_secs * 1_000_000,
    )
}

fn route_monitoring(prefix: &str, path: &[u32], ts_secs: u64) -> BmpMessage {
    BmpMessage::RouteMonitoring {
        peer: peer(ts_secs),
        update: BgpMessage::Update(UpdateMessage::announce(
            PathAttributes::with_path(
                AsPath::from_sequence(path.iter().copied()),
                "192.0.2.10".parse().expect("valid next hop"),
            ),
            vec![prefix.parse().expect("valid prefix")],
        )),
    }
}

fn open(asn: u32) -> OpenMessage {
    OpenMessage {
        version: 4,
        asn: Asn(asn),
        hold_time: 180,
        bgp_id: Ipv4Addr::new(192, 0, 2, 10),
        four_octet_capable: true,
    }
}

fn main() {
    // --- The collector: a real TCP listener the daemon will dial -----
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind collector");
    let collector_addr = listener.local_addr().expect("collector addr");
    println!("collector : listening on {collector_addr}");

    // The collector scripts its stream in two acts; the main thread
    // cues act two once the daemon has mitigated.
    let (cue_tx, cue_rx) = mpsc::channel::<()>();
    let collector = std::thread::spawn(move || {
        let (mut sock, from) = listener.accept().expect("daemon dials in");
        println!("collector : session from {from}");
        let mut w = BmpWriter::new();
        // Act one: session bootstrap, benign traffic, noise, hijack.
        w.write(&BmpMessage::Initiation {
            info: vec![InfoTlv::string(2, "live-collector-example")],
        })
        .expect("encode initiation");
        w.write(&BmpMessage::PeerUp {
            peer: peer(1),
            local_ip: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
            local_port: 179,
            remote_port: 40_000,
            sent_open: open(64_500),
            recv_open: open(VANTAGE),
        })
        .expect("encode peer up");
        // The operator's legitimate /23, as the internet normally sees it.
        w.write(&route_monitoring(
            "10.0.0.0/23",
            &[VANTAGE, 3356, OPERATOR],
            2,
        ))
        .expect("encode benign");
        // Unrelated noise: the pre-ring filter must shed these.
        for i in 0..5u64 {
            w.write(&route_monitoring(
                "203.0.113.0/24",
                &[VANTAGE, 2914, 64_510],
                3 + i,
            ))
            .expect("encode noise");
        }
        // The attack: a rogue origin announces a /24 *inside* the /23.
        w.write(&route_monitoring("10.0.0.0/24", &[VANTAGE, ROGUE], 10))
            .expect("encode hijack");
        sock.write_all(w.as_bytes()).expect("stream act one");

        // Act two (after mitigation): the vantage point converges back
        // to the legitimate origin for the attacked prefix.
        cue_rx.recv().expect("cue from main");
        let mut w = BmpWriter::new();
        w.write(&route_monitoring(
            "10.0.0.0/24",
            &[VANTAGE, 3356, OPERATOR],
            20,
        ))
        .expect("encode recovery");
        w.write(&BmpMessage::Termination {
            info: vec![InfoTlv::string(0, "session ends")],
        })
        .expect("encode termination");
        sock.write_all(w.as_bytes()).expect("stream act two");
        // Closing the socket EOFs the feed's reader cleanly.
    });

    // --- The daemon: auto-mitigation, one owned /23 -------------------
    let asn = Asn(OPERATOR);
    let config = ArtemisConfig::new(
        asn,
        vec![OwnedPrefix::new("10.0.0.0/23".parse().expect("valid"), asn)],
    );
    let pipeline = Pipeline::bare(config, [Asn(VANTAGE), Asn(3356)].into_iter().collect());
    let controller = Controller::new(asn, LatencyModel::const_secs(15), SimRng::new(1));
    let service = ArtemisService::new(pipeline, controller);
    let daemon =
        Daemon::start("127.0.0.1:0", service, DaemonConfig::default()).expect("start daemon");
    let client = CtlClient::new(daemon.addr().to_string());
    println!("daemon    : listening on http://{}", daemon.addr());

    client
        .apply(
            ServiceCommand::SetMitigationPolicy {
                prefix: "10.0.0.0/23".parse().expect("valid"),
                policy: MitigationPolicy::Auto,
            },
            None,
        )
        .expect("set policy");

    // Attach the live BMP feed: the daemon dials the collector. The
    // pre-ring filter watches only the operator's address space.
    let attached = client
        .apply(
            ServiceCommand::AttachFeed {
                feed: FeedSpec::BmpLive {
                    name: "bmp0".into(),
                    addr: collector_addr.to_string(),
                    ring_capacity: Some(8_192),
                    filter: Some(FeedFilter::any().prefix("10.0.0.0/23".parse().expect("valid"))),
                },
            },
            None,
        )
        .expect("attach feed");
    println!("feed      : attached — {:?}", attached.result);

    // --- Detection + auto-mitigation off the wire ---------------------
    let deadline = Instant::now() + Duration::from_secs(20);
    let incident = loop {
        assert!(Instant::now() < deadline, "hijack was never detected");
        let status = client.status().expect("status");
        if let Some(i) = status
            .incidents
            .iter()
            .find(|i| i.phase == MitigationPhase::Executing)
        {
            break i.clone();
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    println!(
        "incident  : alert {} — {} announced by {:?} ({:?}), auto-mitigating",
        incident.alert.0, incident.observed_prefix, incident.offending_origin, incident.hijack_type
    );

    // Cue the collector: the mitigation "took effect" on the wire.
    cue_tx.send(()).expect("cue collector");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "incident never resolved");
        let status = client.status().expect("status");
        if status
            .incidents
            .iter()
            .any(|i| i.alert == incident.alert && i.phase == MitigationPhase::Resolved)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("incident  : resolved — vantage back on the legitimate origin");

    // --- Feed health: the wire side is fully accounted ---------------
    let status = client.status().expect("status");
    let bmp = status
        .feeds
        .iter()
        .find(|f| f.name == "bmp0")
        .expect("bmp feed");
    println!(
        "feed      : {} emitted, {} dropped ({} shed), {} polls",
        bmp.events_emitted, bmp.dropped_events, bmp.shed_events, bmp.polls_executed
    );
    assert!(bmp.events_emitted >= 3, "benign + hijack + recovery");
    assert!(
        bmp.dropped_events >= 5,
        "the pre-ring filter must shed the noise announcements"
    );
    assert_eq!(bmp.shed_events, 0, "nothing backpressure-shed at this rate");

    let metrics = client.metrics_text().expect("metrics");
    let nonzero_feed_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.contains("name=\"bmp0\"") && !l.ends_with(" 0"))
        .collect();
    assert!(
        nonzero_feed_lines
            .iter()
            .any(|l| l.starts_with("artemis_feed_dropped_total") && l.contains("bmp0")),
        "per-feed drop counter must be live in /metrics"
    );
    assert!(
        nonzero_feed_lines
            .iter()
            .any(|l| l.starts_with("artemis_feed_events_emitted_total") && l.contains("bmp0")),
        "per-feed emission counter must be live in /metrics"
    );
    println!(
        "metrics   : {} non-zero per-feed series:",
        nonzero_feed_lines.len()
    );
    for line in &nonzero_feed_lines {
        println!("            {line}");
    }

    collector.join().expect("collector thread");
    daemon.shutdown();
    println!("daemon    : clean shutdown");
}
