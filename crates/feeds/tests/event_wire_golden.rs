//! The wire shape of a [`FeedEvent`], held by bytes.
//!
//! What crosses ring → lane → batch in memory (shared collector name,
//! shared AS path) is not what is serialised: `/v1/inject`, the event
//! stream and `artemisctl` exchange the JSON below, and
//! `wire::SCHEMA_VERSION` stays where it is only while these strings
//! do. They were taken from the output of the code that still owned a
//! `String` and a `Vec<Segment>` per event.

use artemis_bgp::{aspath::Segment, AsPath, Asn, Prefix};
use artemis_bgpsim::{BestRoute, RouteChange};
use artemis_feeds::{FeedEvent, FeedKind, FeedSource, StreamFeed};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use std::collections::BTreeMap;
use std::str::FromStr;

fn announcement() -> FeedEvent {
    FeedEvent {
        emitted_at: SimTime::from_micros(105_250_000),
        observed_at: SimTime::from_secs(100),
        source: FeedKind::BmpLive,
        collector: "bmp0".into(),
        vantage: Asn(174),
        prefix: Prefix::from_str("10.0.0.0/23").unwrap(),
        as_path: Some(AsPath::from_segments([
            Segment::Sequence(vec![Asn(174), Asn(3356)]),
            Segment::Set(vec![Asn(64512), Asn(64513)]),
            Segment::Sequence(vec![Asn(4_200_000_001)]),
        ])),
        origin_as: Some(Asn(4_200_000_001)),
        raw: None,
    }
}

fn withdrawal() -> FeedEvent {
    FeedEvent {
        emitted_at: SimTime::from_secs(7),
        observed_at: SimTime::from_secs(7),
        source: FeedKind::MrtReplay,
        collector: "mrt-replay".into(),
        vantage: Asn(2914),
        prefix: Prefix::from_str("2001:db8::/32").unwrap(),
        as_path: None,
        origin_as: None,
        raw: None,
    }
}

/// As the simulated RIS-live stream builds it, `raw` payload included.
fn ris_event() -> FeedEvent {
    let mut collectors = BTreeMap::new();
    collectors.insert("rrc00".to_string(), vec![Asn(174)]);
    let mut feed = StreamFeed::ris_live(collectors).with_export_delay(LatencyModel::const_secs(5));
    let change = RouteChange {
        time: SimTime::from_secs(100),
        asn: Asn(174),
        prefix: Prefix::from_str("10.0.0.0/24").unwrap(),
        old: None,
        new: Some(BestRoute {
            as_path: AsPath::from_sequence([3356u32, 666]),
            origin_as: Asn(666),
            neighbor: Some(Asn(3356)),
            learned_from: Some(artemis_topology::RelKind::Provider),
            local_pref: 100,
        }),
    };
    let mut evs = feed.on_route_change(&change, &mut SimRng::new(1));
    assert_eq!(evs.len(), 1);
    evs.remove(0)
}

const ANNOUNCEMENT: &str = r#"{"emitted_at":105250000,"observed_at":100000000,"source":"BmpLive","collector":"bmp0","vantage":174,"prefix":"10.0.0.0/23","as_path":{"segments":[{"Sequence":[174,3356]},{"Set":[64512,64513]},{"Sequence":[4200000001]}]},"origin_as":4200000001,"raw":null}"#;
const WITHDRAWAL: &str = r#"{"emitted_at":7000000,"observed_at":7000000,"source":"MrtReplay","collector":"mrt-replay","vantage":2914,"prefix":"2001:db8::/32","as_path":null,"origin_as":null,"raw":null}"#;
const RIS_EVENT: &str = r#"{"emitted_at":105000000,"observed_at":100000000,"source":"RisLive","collector":"rrc00","vantage":174,"prefix":"10.0.0.0/24","as_path":{"segments":[{"Sequence":[174,3356,666]}]},"origin_as":666,"raw":"{\"type\":\"ris_message\",\"data\":{\"timestamp\":105.0,\"host\":\"rrc00\",\"peer_asn\":\"174\",\"type\":\"UPDATE\",\"path\":[174,3356,666],\"announcements\":[{\"prefixes\":[\"10.0.0.0/24\"]}],\"withdrawals\":[]}}"}"#;

#[test]
fn event_json_is_byte_identical_to_the_owned_representation() {
    for (event, golden) in [
        (announcement(), ANNOUNCEMENT),
        (withdrawal(), WITHDRAWAL),
        (ris_event(), RIS_EVENT),
    ] {
        let text = serde_json::to_string(&event).unwrap();
        assert_eq!(text, golden);
        let back: FeedEvent = serde_json::from_str(golden).unwrap();
        assert_eq!(back, event);
        assert_eq!(serde_json::to_string(&back).unwrap(), golden);
    }
}
