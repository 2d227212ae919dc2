//! Property tests for the monitoring feeds: event fidelity, batching
//! arithmetic, JSON schema stability.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_bgpsim::{BestRoute, RouteChange};
use artemis_feeds::vantage::group_into_collectors;
use artemis_feeds::{ArchiveUpdatesFeed, FeedSource, Reach, StreamFeed};
use artemis_simnet::{LatencyModel, SimDuration, SimRng, SimTime};
use artemis_topology::RelKind;
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 8u8..=28)
        .prop_map(|(a, l)| Prefix::v4(std::net::Ipv4Addr::from(a), l).expect("valid"))
}

fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(1u32..100_000, 1..6).prop_map(AsPath::from_sequence)
}

fn arb_change() -> impl Strategy<Value = RouteChange> {
    (
        arb_prefix(),
        arb_path(),
        1u32..100_000,
        0u64..10_000,
        any::<bool>(),
    )
        .prop_map(|(prefix, path, vantage, t, withdraw)| RouteChange {
            time: SimTime::from_secs(t),
            asn: Asn(vantage),
            prefix,
            old: None,
            new: (!withdraw).then(|| BestRoute {
                origin_as: path.origin().expect("non-empty"),
                as_path: path,
                neighbor: Some(Asn(3356)),
                learned_from: Some(RelKind::Provider),
                local_pref: 100,
            }),
        })
}

proptest! {
    /// Stream events are faithful: correct vantage/prefix, the
    /// origin-adjacent hop is that of the Loc-RIB path prepended with
    /// the vantage AS, the origin is preserved, and emission never
    /// precedes observation.
    #[test]
    fn stream_events_are_faithful(change in arb_change()) {
        let vantage = change.asn;
        let mut feed = StreamFeed::ris_live(group_into_collectors(
            "rrc",
            &[vantage],
            1,
        ));
        let mut rng = SimRng::new(1);
        let events = feed.on_route_change(&change, &mut rng);
        prop_assert_eq!(events.len(), 1);
        let ev = &events[0];
        prop_assert_eq!(ev.vantage, vantage);
        prop_assert_eq!(ev.prefix, change.prefix);
        prop_assert!(ev.emitted_at >= ev.observed_at);
        prop_assert_eq!(ev.observed_at, change.time);
        match (&change.new, ev.reach) {
            (Some(best), Reach::Announced { origin_neighbor }) => {
                let path = best.as_path.prepend(vantage);
                prop_assert_eq!(origin_neighbor, path.origin_neighbor(), "vantage prepended");
                prop_assert_eq!(ev.origin_as, Some(best.origin_as));
            }
            (None, Reach::Withdrawn) => prop_assert!(ev.origin_as.is_none()),
            other => prop_assert!(false, "mismatch {:?}", other),
        }
    }

    /// The RIS JSON payload round-trips the typed fields exactly.
    #[test]
    fn ris_json_schema_roundtrip(change in arb_change()) {
        let vantage = change.asn;
        let mut feed = StreamFeed::ris_live(group_into_collectors("rrc", &[vantage], 1));
        let mut rng = SimRng::new(2);
        let events = feed.on_route_change(&change, &mut rng);
        let ev = &events[0];
        let raw: serde_json::Value =
            serde_json::from_str(ev.raw.as_ref().expect("ris has raw")).expect("valid JSON");
        prop_assert_eq!(raw["type"].as_str(), Some("ris_message"));
        prop_assert_eq!(
            raw["data"]["peer_asn"].as_str().expect("peer_asn"),
            vantage.value().to_string()
        );
        if ev.is_withdrawal() {
            prop_assert_eq!(
                raw["data"]["withdrawals"][0].as_str().expect("wd"),
                ev.prefix.to_string()
            );
        } else {
            prop_assert_eq!(
                raw["data"]["announcements"][0]["prefixes"][0].as_str().expect("ann"),
                ev.prefix.to_string()
            );
            let json_path: Vec<u64> = raw["data"]["path"]
                .as_array().expect("path")
                .iter()
                .map(|v| v.as_u64().expect("asn"))
                .collect();
            let typed: Vec<u64> = change.new.as_ref().expect("announced")
                .as_path
                .prepend(vantage)
                .iter()
                .map(|a| a.value() as u64)
                .collect();
            prop_assert_eq!(json_path, typed);
        }
    }

    /// Archive batching: visibility = end of the observation's batch
    /// window plus the publish delay — never earlier, never more than
    /// one full window + delay later.
    #[test]
    fn archive_batching_bounds(change in arb_change()) {
        let vantage = change.asn;
        let mut feed = ArchiveUpdatesFeed::route_views(vec![vantage]);
        let mut rng = SimRng::new(3);
        let events = feed.on_route_change(&change, &mut rng);
        prop_assert_eq!(events.len(), 1);
        let ev = &events[0];
        let delay = ev.emitted_at.since(change.time);
        prop_assert!(delay >= feed.publish_delay);
        prop_assert!(delay <= feed.batch_period + feed.publish_delay);
        // Batch boundary alignment.
        let visible_minus_publish = ev.emitted_at.as_micros() - feed.publish_delay.as_micros();
        prop_assert_eq!(visible_minus_publish % feed.batch_period.as_micros(), 0);
    }

    /// Export delay model is respected: constant-delay feeds emit at
    /// exactly observation + delay.
    #[test]
    fn export_delay_model_applies(change in arb_change(), delay_s in 1u64..120) {
        let vantage = change.asn;
        let mut feed = StreamFeed::ris_live(group_into_collectors("rrc", &[vantage], 1))
            .with_export_delay(LatencyModel::const_secs(delay_s));
        let mut rng = SimRng::new(4);
        let events = feed.on_route_change(&change, &mut rng);
        prop_assert_eq!(
            events[0].emitted_at,
            change.time + SimDuration::from_secs(delay_s)
        );
    }

    /// Feeds never fire for non-vantage ASes, whatever the change.
    #[test]
    fn non_vantage_changes_ignored(change in arb_change()) {
        prop_assume!(change.asn != Asn(424242));
        let mut feed = StreamFeed::bgpmon(group_into_collectors("bmon", &[Asn(424242)], 1));
        let mut rng = SimRng::new(5);
        prop_assert!(feed.on_route_change(&change, &mut rng).is_empty());
        prop_assert_eq!(feed.events_emitted(), 0);
    }
}
