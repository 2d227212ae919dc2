//! The last mile of mitigation: the ARTEMIS controller speaking real
//! RFC 4271 BGP to a router. This example establishes a session
//! (OPEN/KEEPALIVE handshake with capability negotiation), computes a
//! mitigation plan for a hijack alert, and injects the de-aggregated
//! /24s as genuine UPDATE wire messages — printing the actual bytes.
//!
//! ```sh
//! cargo run --example controller_session
//! ```

use artemis_repro::bgp::{AsPath, PathAttributes, UpdateMessage};
use artemis_repro::bgpd::{Session, SessionConfig, SessionEvent, State};
use artemis_repro::core::{ArtemisConfig, Detector, Mitigator, OwnedPrefix};
use artemis_repro::prelude::*;
use artemis_repro::simnet::SimTime;

fn main() {
    let now = SimTime::ZERO;

    // 1. Controller side and "router" side of the injection session.
    let mut controller = Session::connect(
        SessionConfig::new(Asn(65001), "10.0.0.100".parse().unwrap()).with_peer(Asn(65001)),
    );
    let mut router = Session::connect(
        SessionConfig::new(Asn(65001), "10.0.0.1".parse().unwrap()).with_peer(Asn(65001)),
    );
    controller.on_transport_connected(now);
    router.on_transport_connected(now);
    shuttle(now, &mut controller, &mut router);
    println!(
        "session: controller={:?} router={:?} (hold {}s, 4-octet AS negotiated)",
        controller.state(),
        router.state(),
        controller.negotiated_hold_time()
    );
    assert_eq!(controller.state(), State::Established);

    // 2. A hijack alert arrives from the detection service.
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![OwnedPrefix::new("10.0.0.0/23".parse().unwrap(), Asn(65001))],
    );
    let mut detector = Detector::new(config.clone());
    let hijack = artemis_repro::feeds::FeedEvent::new(
        SimTime::from_secs(45),
        SimTime::from_secs(40),
        artemis_repro::feeds::FeedKind::RisLive,
        Asn(174),
        "10.0.0.0/23".parse().unwrap(),
        Some(&AsPath::from_sequence([174u32, 666])),
        None,
    );
    detector.process(&hijack);
    let alert = &detector.alerts().all()[0];
    println!("\nalert: {alert}");

    // 3. Mitigation plan → real UPDATE messages on the session.
    let plan = Mitigator::new(config).plan(alert);
    println!("plan: {}\n", plan.rationale);
    for prefix in &plan.announce {
        let update = UpdateMessage::announce(
            PathAttributes::originate(Asn(65001), "10.0.0.100".parse().unwrap()),
            vec![*prefix],
        );
        controller.announce(update).expect("session is up");
        let wire = controller.take_output();
        println!("UPDATE for {prefix}: {} bytes on the wire", wire.len());
        print!("  ");
        for b in wire.iter().take(32) {
            print!("{b:02x} ");
        }
        println!("…");
        // Deliver to the router and confirm it parsed.
        let events = router.on_bytes(now, &wire);
        for ev in events {
            if let SessionEvent::Update(u) = ev {
                println!("  router installed: {:?}", u.nlri);
            }
        }
    }
    println!("\nmitigation announcements are live — BGP will do the rest.");
}

fn shuttle(now: SimTime, a: &mut Session, b: &mut Session) {
    loop {
        let out_a = a.take_output();
        let out_b = b.take_output();
        if out_a.is_empty() && out_b.is_empty() {
            break;
        }
        if !out_a.is_empty() {
            b.on_bytes(now, &out_a);
        }
        if !out_b.is_empty() {
            a.on_bytes(now, &out_b);
        }
    }
}
