//! Reducing a path to what detection reads changes no detection
//! outcome.
//!
//! A feed event keeps of its AS path only whether it announces, the
//! origin and the origin-adjacent hop. Here full paths — AS_SETs at any
//! position, prepends, split sequences, 0–12 hops — enter the service
//! the way `/v1/inject` takes them (a v2 [`WireFeedEvent`] converted at
//! the boundary), and everything the service raises and resolves is
//! held to a reference that reads the full path itself: the rules
//! model in `support` for detection, plus the monitoring rule for
//! resolution written out over per-vantage-point route maps.

mod support;

use artemis_bgp::aspath::Segment;
use artemis_bgp::prefix::Afi;
use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_controller::Controller;
use artemis_core::{
    ArtemisConfig, ArtemisService, EventCursor, HijackType, IncidentEvent, OwnedPrefix, Pipeline,
};
use artemis_feeds::{FeedEvent, FeedKind, Reach, WireFeedEvent};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use support::{
    arb_observed, arb_owned, path_origin, path_origin_neighbor, RulesModel, ADJACENT, ORIGINS,
    VICTIM,
};

/// The monitors' vantage-point population.
const VPS: [u32; 3] = [2_914, 1_299, 6_939];
/// A vantage point outside the population: detection hears it, the
/// monitors do not.
const OUTSIDER: u32 = 7_018;
/// Transit hops that are neither origins nor known neighbours.
const TRANSIT: [u32; 3] = [1_273, 3_257, 6_453];

/// `Some` of a draw from `inner` with probability `tenths` / 10.
fn sometimes<S: Strategy>(tenths: u8, inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..10, inner).prop_map(move |(roll, v)| (roll < tenths).then_some(v))
}

/// A generated hop: ASN, repetitions (prepending), and how it joins
/// the path (`0`: an AS_SET of its own, `1`: opens a new sequence
/// segment, else appends to the current sequence).
type Hop = (u32, usize, u8);

fn arb_hop(pool: &'static [u32]) -> impl Strategy<Value = Hop> {
    (0..pool.len(), 1usize..4, 0u8..10).prop_map(move |(i, reps, shape)| (pool[i], reps, shape))
}

/// The shape of a full path as a vantage point reports it: usually
/// the vantage point first, then transit, an origin-adjacent hop and
/// an origin, each possibly prepended, in an AS_SET, or opening a
/// segment of its own (the wire does not canonicalise, so a sequence
/// can straddle two segments). Any part may be missing: 0–12 hops.
#[derive(Debug, Clone)]
struct PathShape {
    lead: bool,
    hops: Vec<Hop>,
}

fn arb_shape() -> impl Strategy<Value = PathShape> {
    (
        0u8..8,
        prop::collection::vec(arb_hop(&TRANSIT), 0..10),
        sometimes(8, arb_hop(&ADJACENT)),
        sometimes(9, arb_hop(&ORIGINS)),
    )
        .prop_map(|(lead, transit, adjacent, origin)| PathShape {
            lead: lead > 0,
            hops: transit.into_iter().chain(adjacent).chain(origin).collect(),
        })
}

impl PathShape {
    fn build(&self, vantage: u32) -> AsPath {
        let lead = self.lead.then_some((vantage, 1, 2));
        let mut segments: Vec<Segment> = Vec::new();
        for (asn, reps, shape) in lead.into_iter().chain(self.hops.iter().copied()) {
            let asn = Asn(asn);
            match (shape, segments.last_mut()) {
                (0, _) => segments.push(Segment::Set(vec![asn; reps])),
                (2.., Some(Segment::Sequence(seq))) => seq.extend(std::iter::repeat_n(asn, reps)),
                _ => segments.push(Segment::Sequence(vec![asn; reps])),
            }
        }
        AsPath::from_segments(segments)
    }
}

/// A v2 wire event: `path` `None` is a withdrawal, and `stated` the
/// origin a client may state beside the path.
fn wire_event(
    vantage: u32,
    prefix: Prefix,
    path: Option<AsPath>,
    stated: Option<Asn>,
    t: u64,
) -> WireFeedEvent {
    WireFeedEvent {
        emitted_at: SimTime::from_secs(t),
        observed_at: SimTime::from_secs(t),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(vantage),
        prefix,
        as_path: path,
        origin_as: stated,
        raw: None,
    }
}

fn arb_stated() -> impl Strategy<Value = Asn> {
    (0..ORIGINS.len()).prop_map(|i| Asn(ORIGINS[i]))
}

/// Where a generated event points: arbitrary nearby space, an owned
/// prefix, or one half of one (what a mitigation de-aggregates into).
#[derive(Debug, Clone)]
enum Target {
    Space(Prefix),
    Owned(usize),
    Half(usize, bool),
}

impl Target {
    fn resolve(&self, owned: &[OwnedPrefix]) -> Prefix {
        match *self {
            Target::Space(p) => p,
            Target::Owned(k) => owned[k % owned.len()].prefix,
            Target::Half(k, hi) => {
                let p = owned[k % owned.len()].prefix;
                p.split().map_or(p, |(lo, up)| if hi { up } else { lo })
            }
        }
    }
}

/// One delivered event, before its target is resolved.
#[derive(Debug, Clone)]
struct Delivery {
    vantage: u32,
    target: Target,
    /// `None`: a withdrawal.
    path: Option<PathShape>,
    stated: Option<Asn>,
}

fn arb_delivery() -> impl Strategy<Value = Delivery> {
    (
        (0usize..8, 0u8..6, arb_observed(), 0usize..64, any::<bool>()),
        sometimes(9, arb_shape()),
        sometimes(1, arb_stated()),
    )
        .prop_map(|((vp, kind, space, k, hi), path, stated)| Delivery {
            vantage: if vp == 7 {
                OUTSIDER
            } else {
                VPS[vp % VPS.len()]
            },
            target: match kind {
                0 | 1 => Target::Space(space),
                2 | 3 => Target::Owned(k),
                _ => Target::Half(k, hi),
            },
            path,
            stated,
        })
}

/// What the service logs that the reference predicts.
#[derive(Debug, Clone, PartialEq)]
enum Logged {
    Raised {
        alert: u64,
        owned: Prefix,
        observed: Prefix,
        origin: Option<Asn>,
        hijack: HijackType,
    },
    Resolved {
        alert: u64,
    },
}

/// One incident as the reference keeps it.
struct Incident {
    owned: Prefix,
    key: (Prefix, Prefix, Option<Asn>),
    legitimate: BTreeSet<Asn>,
    open: bool,
    /// Per population vantage point: every route it reported in the
    /// monitored space since the incident began, by prefix.
    routes: BTreeMap<Asn, BTreeMap<Prefix, Option<Asn>>>,
}

impl Incident {
    /// The monitoring rule: no vantage point selects (by longest
    /// prefix, ties to the greater) an illegitimate origin, and at
    /// least one selects a legitimate one.
    fn healed(&self) -> bool {
        let selected = self.routes.values().filter_map(|routes| {
            routes
                .iter()
                .max_by_key(|(p, _)| (p.len(), **p))
                .map(|(_, origin)| origin.is_some_and(|o| self.legitimate.contains(&o)))
        });
        let (mut legit, mut hijacked) = (0, 0);
        for ok in selected {
            if ok {
                legit += 1;
            } else {
                hijacked += 1;
            }
        }
        hijacked == 0 && legit > 0
    }
}

/// The service written out: the rules model decides, an automatic
/// mitigation registers its announcements at once, and each incident's
/// monitor resolves it as soon as it heals.
struct Reference {
    rules: RulesModel,
    incidents: Vec<Incident>,
    log: Vec<Logged>,
}

impl Reference {
    fn deliver(
        &mut self,
        vantage: Asn,
        prefix: Prefix,
        path: Option<&AsPath>,
        stated: Option<Asn>,
    ) {
        let origin = path.and_then(|p| stated.or_else(|| path_origin(p)));
        if let Some((owned, Some(hijack))) = self.rules.classify(prefix, path, stated) {
            let key = (owned, prefix, origin);
            if !self.incidents.iter().any(|i| i.open && i.key == key) {
                let alert = self.incidents.len() as u64;
                let shard = &self.rules.shards[self.rules.owner(owned).expect("owned")];
                self.incidents.push(Incident {
                    owned,
                    key,
                    legitimate: shard.origins.clone(),
                    open: true,
                    routes: BTreeMap::new(),
                });
                self.log.push(Logged::Raised {
                    alert,
                    owned,
                    observed: prefix,
                    origin,
                    hijack,
                });
                // The plan: announce the dormant prefix itself, or the
                // two halves of the observed one down to the filtering
                // limit, else the observed one again.
                let limit = match prefix.afi() {
                    Afi::Ipv4 => 24,
                    Afi::Ipv6 => 48,
                };
                if hijack == HijackType::Squatting {
                    self.rules.expect(owned);
                    self.rules.activate(owned);
                } else if prefix.len() < limit {
                    let (lo, hi) = prefix.split().expect("below the limit");
                    self.rules.expect(lo);
                    self.rules.expect(hi);
                } else {
                    self.rules.expect(prefix);
                }
            }
        }
        let mut healed = Vec::new();
        for (alert, incident) in self.incidents.iter_mut().enumerate() {
            let relevant = incident.owned.contains(prefix) || prefix.contains(incident.owned);
            if !incident.open || !relevant {
                continue;
            }
            if VPS.contains(&vantage.value()) {
                let routes = incident.routes.entry(vantage).or_default();
                match path {
                    Some(_) => routes.insert(prefix, origin),
                    None => routes.remove(&prefix),
                };
            }
            if incident.healed() {
                healed.push(alert);
            }
        }
        for alert in healed {
            self.incidents[alert].open = false;
            self.log.push(Logged::Resolved {
                alert: alert as u64,
            });
        }
    }
}

/// The service's log, as far as the reference predicts it.
fn logged(service: &ArtemisService) -> Vec<Logged> {
    service
        .poll_events(EventCursor::START)
        .events
        .into_iter()
        .filter_map(|e| match e {
            IncidentEvent::AlertRaised {
                alert,
                owned_prefix,
                observed_prefix,
                hijack_type,
                ..
            } => Some(Logged::Raised {
                alert: alert.0,
                owned: owned_prefix,
                observed: observed_prefix,
                origin: service
                    .pipeline()
                    .detector()
                    .alerts()
                    .get(alert)
                    .expect("raised")
                    .offending_origin,
                hijack: hijack_type,
            }),
            IncidentEvent::Resolved { alert, .. } => Some(Logged::Resolved { alert: alert.0 }),
            _ => None,
        })
        .collect()
}

proptest! {
    /// Full paths delivered through the wire conversion and the whole
    /// service raise the alerts the reference raises — same owned and
    /// observed prefix, offending origin and hijack type, in the same
    /// order — and resolve them in the same order.
    #[test]
    fn reduced_events_match_the_reference_through_the_service(
        config in prop::collection::vec(arb_owned(), 1..6),
        deliveries in prop::collection::vec(arb_delivery(), 1..120),
    ) {
        let mut rules = RulesModel::default();
        for owned in &config {
            rules.add(owned, true);
        }
        let mut reference = Reference { rules, incidents: Vec::new(), log: Vec::new() };
        let pipeline = Pipeline::bare(
            ArtemisConfig::new(Asn(VICTIM), config.clone()),
            VPS.iter().map(|vp| Asn(*vp)).collect(),
        );
        let controller = Controller::new(Asn(VICTIM), LatencyModel::const_secs(15), SimRng::new(1));
        let mut service = ArtemisService::new(pipeline, controller);
        for (t, d) in deliveries.into_iter().enumerate() {
            let prefix = d.target.resolve(&config);
            let path = d.path.map(|shape| shape.build(d.vantage));
            let wire = wire_event(d.vantage, prefix, path.clone(), d.stated, t as u64);
            service.deliver(&FeedEvent::from(wire));
            reference.deliver(Asn(d.vantage), prefix, path.as_ref(), d.stated);
        }
        prop_assert_eq!(logged(&service), reference.log);
    }

    /// The v2 wire event converts to the origin and origin-adjacent hop
    /// the full path has (`AsPath::origin`, `AsPath::origin_neighbor`,
    /// and the reference's own reading of the segments), unless the
    /// client states an origin, which wins; a withdrawal stays one.
    #[test]
    fn the_wire_conversion_keeps_the_paths_origin_and_adjacent_hop(
        shape in sometimes(9, arb_shape()),
        stated in sometimes(2, arb_stated()),
    ) {
        let path = shape.map(|shape| shape.build(VPS[0]));
        let prefix = support::space(false, 24, 1);
        let event = FeedEvent::from(wire_event(VPS[0], prefix, path.clone(), stated, 1));
        match &path {
            None => {
                prop_assert_eq!(event.reach, Reach::Withdrawn);
                prop_assert_eq!(event.origin_as, stated);
            }
            Some(path) => {
                prop_assert_eq!(path.origin(), path_origin(path));
                prop_assert_eq!(path.origin_neighbor(), path_origin_neighbor(path));
                prop_assert_eq!(event.origin_as, stated.or(path.origin()));
                prop_assert_eq!(
                    event.reach,
                    Reach::Announced { origin_neighbor: path.origin_neighbor() }
                );
            }
        }
    }
}
