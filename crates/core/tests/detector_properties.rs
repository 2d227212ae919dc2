//! Property tests for the detector: no false positives on legitimate
//! traffic, no false negatives on hijacks, dedup sanity, and repeat
//! victims held to a linear model of dedup.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_core::alert::{AlertId, AlertState};
use artemis_core::detector::Detection;
use artemis_core::{ArtemisConfig, Detector, OwnedPrefix};
use artemis_feeds::{FeedEvent, FeedKind};
use artemis_simnet::SimTime;
use proptest::prelude::*;

const VICTIM: u32 = 65_001;
const UPSTREAM_A: u32 = 174;
const UPSTREAM_B: u32 = 3_356;

fn config() -> ArtemisConfig {
    ArtemisConfig::new(
        Asn(VICTIM),
        vec![
            OwnedPrefix::new("10.0.0.0/23".parse().expect("valid"), Asn(VICTIM))
                .with_neighbors([Asn(UPSTREAM_A), Asn(UPSTREAM_B)]),
        ],
    )
}

fn event(prefix: Prefix, path: Vec<u32>, t: u64) -> FeedEvent {
    let as_path = AsPath::from_sequence(path.iter().copied());
    FeedEvent {
        emitted_at: SimTime::from_secs(t),
        observed_at: SimTime::from_secs(t),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(path[0]),
        prefix,
        origin_as: as_path.origin(),
        as_path: Some(as_path),
        raw: None,
    }
}

/// Middle-of-path ASNs (not the victim, not reserved).
fn arb_transit() -> impl Strategy<Value = u32> {
    (1u32..60_000).prop_filter("not victim/upstream", |a| {
        *a != VICTIM && *a != UPSTREAM_A && *a != UPSTREAM_B
    })
}

/// The repeat-victim fleet: an owned /22 and an owned /24 nested in it.
const NESTED_FLEET: [&str; 2] = ["10.0.0.0/22", "10.0.1.0/24"];
/// What the repeat-victim histories announce: each owned prefix
/// itself and more-specifics of each.
const OBSERVED: [&str; 5] = [
    "10.0.0.0/22",
    "10.0.0.0/23",
    "10.0.2.0/24",
    "10.0.1.0/24",
    "10.0.1.128/25",
];

fn pfx(s: &str) -> Prefix {
    s.parse().expect("valid")
}

/// One step of a repeat-victim history.
#[derive(Debug, Clone)]
enum Step {
    /// `AS<vantage>` sees `AS<origin>` announce `OBSERVED[observed]`.
    Witness {
        vantage: u32,
        origin: u32,
        observed: usize,
    },
    /// Resolve the `k`-th unresolved alert (mod their count).
    Resolve(usize),
    /// Offboard `NESTED_FLEET[i]` and onboard it again.
    Reonboard(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..64, 0u32..3, 0u32..3).prop_map(|(kind, k, origin, vantage)| match kind {
        0..=6 => Step::Witness {
            vantage: [UPSTREAM_A, UPSTREAM_B, 2_914][vantage as usize],
            origin: [666, 667, VICTIM][origin as usize],
            observed: k % OBSERVED.len(),
        },
        7 | 8 => Step::Resolve(k),
        _ => Step::Reonboard(k % NESTED_FLEET.len()),
    })
}

/// The linear model of dedup: the unresolved alert on `key` raised
/// since `owned` was last onboarded (`since` is the first id raised
/// after that), found by scanning every alert ever raised.
fn model_open(d: &Detector, key: (Prefix, Prefix, Option<Asn>), since: AlertId) -> Option<AlertId> {
    d.alerts()
        .all()
        .iter()
        .find(|a| {
            a.state != AlertState::Resolved
                && a.id >= since
                && (a.owned_prefix, a.observed_prefix, a.offending_origin) == key
        })
        .map(|a| a.id)
}

proptest! {
    /// Hijacks that come back — after their incident resolved, or
    /// after their prefix was offboarded and onboarded again — open a
    /// new incident exactly when the linear model finds no open one on
    /// the same key, and join the open one otherwise. An offboard hands
    /// back exactly the prefix's open alerts, ascending.
    #[test]
    fn repeat_victims_match_a_linear_model(
        steps in prop::collection::vec(arb_step(), 1..160),
    ) {
        let fleet: Vec<Prefix> = NESTED_FLEET.iter().map(|p| pfx(p)).collect();
        let onboard = |p: Prefix| OwnedPrefix::new(p, Asn(VICTIM));
        let mut d = Detector::new(ArtemisConfig::new(
            Asn(VICTIM),
            fleet.iter().map(|p| onboard(*p)).collect(),
        ));
        // The first id each owned prefix may dedup against.
        let mut since = [AlertId(0); 2];
        let next_id = |d: &Detector| AlertId(d.alerts().all().len() as u64);
        for (t, step) in steps.into_iter().enumerate() {
            match step {
                Step::Witness { vantage, origin, observed } => {
                    let observed = pfx(OBSERVED[observed]);
                    let owner = (0..fleet.len())
                        .filter(|i| fleet[*i].contains(observed))
                        .max_by_key(|i| fleet[*i].len())
                        .expect("observed inside the fleet");
                    let owned = fleet[owner];
                    let hijack = observed != owned || origin != VICTIM;
                    let key = (owned, observed, Some(Asn(origin)));
                    let expected = if !hijack {
                        Detection::Benign
                    } else {
                        match model_open(&d, key, since[owner]) {
                            Some(id) => Detection::UpdatedAlert(id),
                            None => Detection::NewAlert(next_id(&d)),
                        }
                    };
                    let got = d.process(&event(observed, vec![vantage, origin], t as u64));
                    prop_assert_eq!(&got, &expected);
                    if let Detection::NewAlert(id) = got {
                        let alert = d.alerts().get(id).expect("stored");
                        prop_assert_eq!(
                            (alert.owned_prefix, alert.observed_prefix, alert.offending_origin),
                            key
                        );
                    }
                }
                Step::Resolve(k) => {
                    let open: Vec<AlertId> =
                        d.alerts().active().map(|a| a.id).collect();
                    if !open.is_empty() {
                        let id = open[k % open.len()];
                        d.alerts_mut().mark_resolved(id, SimTime::from_secs(t as u64));
                    }
                }
                Step::Reonboard(i) => {
                    let owned = fleet[i];
                    let expected: Vec<AlertId> = d
                        .alerts()
                        .active()
                        .filter(|a| a.owned_prefix == owned && a.id >= since[i])
                        .map(|a| a.id)
                        .collect();
                    let removed = d.remove_shard(owned).expect("onboarded");
                    prop_assert_eq!(removed.open_alerts, expected);
                    prop_assert!(d.add_shard(onboard(owned)));
                    since[i] = next_id(&d);
                }
            }
        }
    }

    /// Announcements of the owned prefix with the legitimate origin
    /// through a known upstream never alert, whatever the transit tail.
    #[test]
    fn no_false_positives_on_legit_paths(
        transit in prop::collection::vec(arb_transit(), 0..4),
        upstream in prop_oneof![Just(UPSTREAM_A), Just(UPSTREAM_B)],
        t in 1u64..10_000,
    ) {
        let mut d = Detector::new(config());
        let mut path = vec![9_999u32]; // vantage
        path.extend(transit.iter().copied().filter(|a| *a != 9_999));
        path.push(upstream);
        path.push(VICTIM);
        let ev = event("10.0.0.0/23".parse().expect("valid"), path, t);
        prop_assert_eq!(d.process(&ev), Detection::Benign);
        prop_assert_eq!(d.alerts().all().len(), 0);
    }

    /// Any exact-prefix announcement whose origin is not the victim
    /// always raises exactly one alert, whatever the path shape.
    #[test]
    fn no_false_negatives_on_origin_hijacks(
        attacker in arb_transit(),
        transit in prop::collection::vec(arb_transit(), 0..4),
        t in 1u64..10_000,
    ) {
        let mut d = Detector::new(config());
        let mut path = vec![9_999u32];
        path.extend(transit.iter().copied());
        path.push(attacker);
        let ev = event("10.0.0.0/23".parse().expect("valid"), path, t);
        match d.process(&ev) {
            Detection::NewAlert(_) => {}
            other => prop_assert!(false, "expected alert, got {:?}", other),
        }
        prop_assert_eq!(d.alerts().all().len(), 1);
    }

    /// Sub-prefix announcements of owned space by third parties always
    /// alert, at any more-specific length.
    #[test]
    fn subprefix_hijacks_always_alert(
        attacker in arb_transit(),
        len in 24u8..=28,
        half in 0u8..=1,
        t in 1u64..10_000,
    ) {
        let mut d = Detector::new(config());
        // A more-specific inside 10.0.0.0/23.
        let base: u32 = (10 << 24) | ((half as u32) << 8); // 10.0.0.0 or 10.0.1.0
        let sub = Prefix::v4(std::net::Ipv4Addr::from(base), len).expect("valid");
        let ev = event(sub, vec![9_999, attacker], t);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                let alert = d.alerts().get(id).expect("stored");
                prop_assert_eq!(alert.observed_prefix, sub);
                prop_assert_eq!(
                    alert.owned_prefix,
                    "10.0.0.0/23".parse::<Prefix>().expect("valid")
                );
            }
            other => prop_assert!(false, "expected alert, got {:?}", other),
        }
    }

    /// Processing the same hijack observation repeatedly never creates
    /// more than one alert (dedup is idempotent), and witnesses
    /// accumulate monotonically.
    #[test]
    fn dedup_is_idempotent(
        attacker in arb_transit(),
        vantages in prop::collection::vec(1u32..60_000, 1..10),
        t in 1u64..10_000,
    ) {
        let mut d = Detector::new(config());
        for (i, vp) in vantages.iter().enumerate() {
            let ev = event(
                "10.0.0.0/23".parse().expect("valid"),
                vec![*vp, attacker],
                t + i as u64,
            );
            d.process(&ev);
        }
        prop_assert_eq!(d.alerts().all().len(), 1);
        let alert = &d.alerts().all()[0];
        let uniq: std::collections::BTreeSet<u32> =
            vantages.iter().copied().collect();
        prop_assert_eq!(alert.vantage_points.len(), uniq.len());
        // Detection time is the first event's.
        prop_assert_eq!(alert.detected_at, SimTime::from_secs(t));
    }

    /// Events about unrelated address space never alert, whatever the
    /// origin.
    #[test]
    fn unrelated_space_is_ignored(
        addr in any::<u32>(),
        len in 8u8..=24,
        origin in arb_transit(),
        t in 1u64..10_000,
    ) {
        let prefix = Prefix::v4(std::net::Ipv4Addr::from(addr), len).expect("valid");
        // Skip anything overlapping the owned /23.
        let owned: Prefix = "10.0.0.0/23".parse().expect("valid");
        prop_assume!(!prefix.overlaps(owned));
        let mut d = Detector::new(config());
        let ev = event(prefix, vec![9_999, origin], t);
        prop_assert_eq!(d.process(&ev), Detection::Benign);
    }
}
