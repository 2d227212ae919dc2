//! Quickstart: configure ARTEMIS for your prefixes, feed it monitoring
//! events, and watch it detect + plan mitigation for a hijack.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use artemis_bgp::AsPath;
use artemis_feeds::{FeedEvent, FeedKind};
use artemis_repro::core::{ArtemisConfig, Detector, Mitigator, OwnedPrefix};
use artemis_repro::prelude::*;
use artemis_simnet::SimTime;

fn main() {
    // 1. Describe what you own: AS65001 originates 10.0.0.0/23 through
    //    upstreams AS174 and AS3356.
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![
            OwnedPrefix::new("10.0.0.0/23".parse().expect("valid prefix"), Asn(65001))
                .with_neighbors([Asn(174), Asn(3356)]),
        ],
    );

    let mut detector = Detector::new(config.clone());
    let mitigator = Mitigator::new(config);

    // 2. Feed it monitoring events (in a deployment these come from the
    //    RIS-live / BGPmon / Periscope adapters in `artemis-feeds`).
    let benign = feed_event("10.0.0.0/23", &[2914, 3356, 65001], 10);
    println!("benign announcement  -> {:?}", detector.process(&benign));

    let hijack = feed_event("10.0.0.0/23", &[2914, 174, 666], 45);
    println!("hijack announcement  -> {:?}", detector.process(&hijack));

    // 3. Inspect the alert and the automatic mitigation plan.
    let alert = &detector.alerts().all()[0];
    println!("\nalert: {alert}");

    let plan = mitigator.plan(alert);
    println!("mitigation plan: {}", plan.rationale);
    for p in &plan.announce {
        println!("  would announce {p}");
    }
}

/// Build a monitoring event as the feed adapters would.
fn feed_event(prefix: &str, path: &[u32], t: u64) -> FeedEvent {
    FeedEvent::new(
        SimTime::from_secs(t),
        SimTime::from_secs(t.saturating_sub(8)),
        FeedKind::RisLive,
        Asn(path[0]),
        prefix.parse().expect("valid prefix"),
        Some(&AsPath::from_sequence(path.iter().copied())),
        None,
    )
}
