//! Property tests for the detector: no false positives on legitimate
//! traffic, no false negatives on hijacks, dedup sanity, repeat
//! victims held to a linear model of dedup, and classification held to
//! the linear model of the detection rules in `support`.

mod support;

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_core::alert::{AlertId, AlertState};
use artemis_core::detector::Detection;
use artemis_core::{ArtemisConfig, Detector, OwnedPrefix};
use artemis_feeds::{FeedEvent, FeedKind};
use artemis_simnet::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use support::{
    arb_observed, arb_owned, RulesModel, ADJACENT, ORIGINS, UPSTREAM_A, UPSTREAM_B, VICTIM,
};

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
    FeedEvent::new(
        SimTime::from_secs(t),
        SimTime::from_secs(t),
        FeedKind::RisLive,
        Asn(path[0]),
        prefix,
        Some(&AsPath::from_sequence(path.iter().copied())),
        None,
    )
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

/// An observation: an announcement of `prefix` along one of a few path
/// shapes, or its withdrawal.
#[derive(Debug, Clone)]
struct Observation {
    prefix: Prefix,
    /// The AS path, vantage point first; `None` for a withdrawal.
    path: Option<AsPath>,
}

fn arb_observation() -> impl Strategy<Value = Observation> {
    (arb_observed(), 0u8..6, 0usize..4, 0usize..3, 0usize..2).prop_map(
        |(prefix, shape, origin, adjacent, vantage)| {
            let (origin, adj, vp) = (ORIGINS[origin], ADJACENT[adjacent], [2_914, 1_299][vantage]);
            let path = match shape {
                0 | 1 => vec![vp, adj, origin],
                2 => vec![vp, origin],
                // The vantage point is the origin: no adjacency to judge.
                3 => vec![origin],
                // A prepended origin is its own adjacent hop.
                4 => vec![vp, adj, origin, origin],
                _ => Vec::new(),
            };
            Observation {
                prefix,
                path: (!path.is_empty()).then(|| AsPath::from_sequence(path)),
            }
        },
    )
}

/// One step of a classification history.
#[derive(Debug, Clone)]
enum Op {
    Observe(Observation),
    /// `expect_announcement` — mid-batch, as a mitigation does it.
    Expect(Prefix),
    /// `activate_prefix` on the `k`-th owned prefix (mod their count),
    /// mid-batch.
    Activate(usize),
    /// `add_shard`, between batches.
    Add(OwnedPrefix),
    /// `remove_shard` of the `k`-th owned prefix, between batches.
    Remove(usize),
    /// End the batch.
    Cut,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..20,
        arb_observation(),
        arb_observed(),
        arb_owned(),
        0usize..64,
    )
        .prop_map(|(kind, observation, prefix, owned, k)| match kind {
            0..=12 => Op::Observe(observation),
            13 | 14 => Op::Expect(prefix),
            15 => Op::Activate(k),
            16 => Op::Add(owned),
            17 => Op::Remove(k),
            _ => Op::Cut,
        })
}

fn observation_event(o: &Observation, t: u64) -> FeedEvent {
    let vantage = o
        .path
        .as_ref()
        .and_then(|p| p.iter().next())
        .unwrap_or(Asn(2_914));
    FeedEvent::new(
        SimTime::from_secs(t),
        SimTime::from_secs(t),
        FeedKind::RisLive,
        vantage,
        o.prefix,
        o.path.as_ref(),
        None,
    )
}

/// Commit one batch of observations, expectations and activations the
/// way the pipeline does — every observation prepared up front, then
/// everything applied in order — checking each observation's outcome
/// against `model` at its turn.
fn commit_batch(
    d: &mut Detector,
    model: &mut RulesModel,
    since: &BTreeMap<Prefix, AlertId>,
    batch: &mut Vec<(u64, Op)>,
) -> Result<(), TestCaseError> {
    d.begin_batch();
    let prepared: Vec<_> = batch
        .iter()
        .map(|(t, op)| match op {
            Op::Observe(o) => {
                let ev = observation_event(o, *t);
                let prep = d.prepare(&ev);
                Some((ev, prep))
            }
            _ => None,
        })
        .collect();
    for ((_, op), prepared) in batch.drain(..).zip(prepared) {
        match op {
            Op::Observe(o) => {
                let (ev, prep) = prepared.expect("observations are prepared");
                let verdict = model.classify(o.prefix, o.path.as_ref(), None);
                let expected = match verdict {
                    None | Some((_, None)) => Detection::Benign,
                    Some((owned, Some(_))) => {
                        let first = since.get(&owned).copied().unwrap_or(AlertId(0));
                        match model_open(d, (owned, o.prefix, ev.origin_as), first) {
                            Some(id) => Detection::UpdatedAlert(id),
                            None => Detection::NewAlert(AlertId(d.alerts().all().len() as u64)),
                        }
                    }
                };
                let got = d.process_prepared(&ev, prep);
                prop_assert_eq!(&got, &expected, "{:?}: model says {:?}", o, verdict);
                if let Detection::NewAlert(id) = got {
                    let alert = d.alerts().get(id).expect("stored");
                    prop_assert_eq!(Some(alert.hijack_type), verdict.and_then(|v| v.1));
                }
            }
            Op::Expect(prefix) => {
                d.expect_announcement(prefix);
                model.expect(prefix);
            }
            Op::Activate(k) if !model.shards.is_empty() => {
                let owned = model.shards[k % model.shards.len()].prefix;
                d.activate_prefix(owned);
                model.activate(owned);
            }
            Op::Activate(_) => {}
            Op::Add(_) | Op::Remove(_) | Op::Cut => unreachable!("only rule changes are batched"),
        }
    }
    Ok(())
}

proptest! {
    /// Every committed event classifies as the linear rules model says,
    /// across owned sets with nested and repeated prefixes, both
    /// families, one or two origins, known neighbours and dormancy, and
    /// across expectations and activations registered mid-batch and
    /// shards onboarded and offboarded between batches. Each batch is
    /// prepared up front and committed in order, as the pipeline does.
    #[test]
    fn classification_matches_a_linear_model(
        config in prop::collection::vec(arb_owned(), 1..8),
        ops in prop::collection::vec(arb_op(), 1..160),
    ) {
        let mut model = RulesModel::default();
        for owned in &config {
            model.add(owned, true);
        }
        let mut d = Detector::new(ArtemisConfig::new(Asn(VICTIM), config));
        prop_assert_eq!(d.shard_count(), model.shards.len());
        // The first alert id each owned prefix may dedup against.
        let mut since: BTreeMap<Prefix, AlertId> = BTreeMap::new();
        let mut batch: Vec<(u64, Op)> = Vec::new();
        for (t, op) in ops.into_iter().enumerate() {
            match op {
                Op::Observe(_) | Op::Expect(_) | Op::Activate(_) => batch.push((t as u64, op)),
                Op::Add(owned) => {
                    commit_batch(&mut d, &mut model, &since, &mut batch)?;
                    let added = model.add(&owned, false);
                    prop_assert_eq!(d.add_shard(owned.clone()), added, "{}", owned.prefix);
                    if added {
                        since.insert(owned.prefix, AlertId(d.alerts().all().len() as u64));
                    }
                }
                Op::Remove(k) => {
                    commit_batch(&mut d, &mut model, &since, &mut batch)?;
                    if model.shards.is_empty() {
                        continue;
                    }
                    let shard = model.shards.swap_remove(k % model.shards.len());
                    let removed = d.remove_shard(shard.prefix).expect("onboarded");
                    prop_assert_eq!(&removed.owned.legitimate_origins, &shard.origins);
                    prop_assert_eq!(&removed.owned.known_neighbors, &shard.neighbors);
                    prop_assert_eq!(removed.owned.dormant, shard.dormant);
                }
                Op::Cut => commit_batch(&mut d, &mut model, &since, &mut batch)?,
            }
            prop_assert_eq!(d.shard_count(), model.shards.len());
        }
        commit_batch(&mut d, &mut model, &since, &mut batch)?;
    }

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
