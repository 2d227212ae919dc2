//! The streaming detection service.
//!
//! "The detection service runs continuously and combines control plane
//! information from Periscope, the streaming service of RIPE RIS, and
//! BGPmon […] By combining multiple sources, the delay of the
//! detection phase is the min of the delays of these sources." (§2)
//!
//! The detector is a pure stream processor: it consumes
//! [`FeedEvent`]s in emission order and raises/updates
//! [`Alert`](crate::alert::Alert)s. It
//! never talks to the network itself — that separation is what makes
//! it equally usable against simulated feeds (here) or the real
//! services (a deployment).
//!
//! # Two-phase processing
//!
//! Detection splits into a *classification* phase (route the event to
//! the owning shard and classify it against that shard's rules — a
//! pure read, [`Detector::prepare`]) and a *commit* phase (per-shard
//! event accounting and alert dedup against the shard's open alerts,
//! [`Detector::process_prepared`]). The pipeline classifies
//! a whole batch in one tight pass and then commits in batch order; a
//! rules mutation mid-batch (a mitigation registering an expected
//! announcement, a squatting plan activating a dormant prefix) marks
//! the shard *dirty* so classifications prepared before it are
//! recomputed at commit time. [`Detector::process`] is the two phases
//! back to back for one event.
//!
//! # One trie entry per event
//!
//! The routing trie's value for an owned prefix is a `ShardRoute`:
//! the shard's index and, when the shard is *plain* (announced, one
//! legitimate origin, no known neighbours, nothing expected), that
//! origin. Classifying an event routed to a plain shard reads nothing
//! but the trie entry; only the other shards load their rules. Both
//! paths run the same rules (`decide`). A shard's expectation set
//! holds only the announcements a mitigation registered, never the
//! configured prefix itself: no rule reads that entry for an announced
//! prefix, so a fleet of plain prefixes allocates no set at all.

use crate::alert::{AlertId, AlertStore};
use crate::classify::HijackType;
use crate::config::{ArtemisConfig, OwnedPrefix};
use artemis_bgp::{Asn, FlatTrie, Prefix};
use artemis_feeds::{FeedEvent, Reach};
use std::collections::BTreeSet;

/// Outcome of feeding one event to the detector.
#[derive(Debug, Clone, PartialEq)]
pub enum Detection {
    /// Event was benign (or irrelevant to our prefixes).
    Benign,
    /// A *new* incident was detected.
    NewAlert(AlertId),
    /// An existing incident gained a witness.
    UpdatedAlert(AlertId),
}

/// The classification-relevant state of one shard: the owned prefix's
/// legitimacy rules and the announcements we expect within its space.
#[derive(Debug)]
struct ShardRules {
    /// The shard's owned prefix and its legitimacy rules.
    owned: OwnedPrefix,
    /// Announcements within this shard's space that a mitigation
    /// registered as our own ([`Detector::expect_announcement`],
    /// [`Detector::activate_prefix`]). Empty for a configured prefix:
    /// its own announcement is judged by origin alone.
    expected: BTreeSet<Prefix>,
}

impl ShardRules {
    /// The routing trie's value for this shard at index `idx`.
    fn route(&self, idx: usize) -> ShardRoute {
        let owned = &self.owned;
        let origins = &owned.legitimate_origins;
        ShardRoute {
            idx: u32::try_from(idx).expect("shard count fits in u32"),
            origin: origins.first().copied().unwrap_or(Asn(0)),
            plain: !owned.dormant
                && owned.known_neighbors.is_empty()
                && origins.len() == 1
                && self.expected.is_empty(),
        }
    }

    /// Classify an announcement of `prefix` routed to this shard, from
    /// its origin and its origin-adjacent hop. Pure read.
    fn classify(
        &self,
        prefix: Prefix,
        observed_origin: Option<Asn>,
        origin_neighbor: Option<Asn>,
    ) -> Option<HijackType> {
        let owned = &self.owned;
        decide(
            owned.dormant,
            prefix == owned.prefix,
            observed_origin.is_some_and(|o| owned.legitimate_origins.contains(&o)),
            || self.expected.contains(&prefix),
            || {
                // Type-1 check: the hop adjacent to the origin must be
                // a known neighbor. Skip when the vantage point *is*
                // the origin (path "VP" with VP == origin: no adjacency
                // to judge).
                !owned.known_neighbors.is_empty()
                    && origin_neighbor.is_some_and(|adj| {
                        !owned.known_neighbors.contains(&adj)
                            && Some(adj) != observed_origin
                            && !owned.legitimate_origins.contains(&adj)
                    })
            },
        )
    }
}

/// The detection rules, over what one event tells the shard it routes
/// to: whether the shard's prefix is dormant, whether the event
/// announces that prefix itself (`exact`, else a more-specific) and
/// whether its origin is legitimate. The two remaining facts are asked
/// only where a rule needs them: whether the announcement is one we
/// expect, and whether its origin-adjacent hop is a fake neighbour. A
/// plain shard answers both `false` without looking.
#[inline(always)]
fn decide(
    dormant: bool,
    exact: bool,
    legit_origin: bool,
    expected: impl FnOnce() -> bool,
    fake_neighbor: impl FnOnce() -> bool,
) -> Option<HijackType> {
    if dormant {
        // Any announcement of a dormant prefix is squatting — *except*
        // the echo of our own mitigation announcement: a Squatting plan
        // announces the dormant prefix itself, and that announcement
        // re-enters here through the feeds. An event is ours only when
        // it is both expected (registered by the mitigation) and
        // carries a legitimate origin; an attacker announcing the same
        // prefix stays a hijack.
        if expected() && legit_origin {
            None
        } else {
            Some(HijackType::Squatting)
        }
    } else if exact {
        if !legit_origin {
            Some(HijackType::ExactOrigin)
        } else if fake_neighbor() {
            Some(HijackType::Type1FakeNeighbor)
        } else {
            None
        }
    } else if expected() {
        // More-specific announcement of our space, and our own
        // (mitigation) announcement echoed back — but only if the
        // origin is also legitimate; an attacker announcing *the same*
        // /24 is still a hijack.
        if legit_origin {
            None
        } else {
            Some(HijackType::SubPrefix)
        }
    } else if legit_origin {
        Some(HijackType::SubPrefixForgedOrigin)
    } else {
        Some(HijackType::SubPrefix)
    }
}

/// Fold a repeated configuration entry for the same prefix into the
/// first: the shard accepts every origin and neighbour either copy
/// lists, and stays dormant only if both copies are.
fn fold_repeat(first: &mut OwnedPrefix, repeat: OwnedPrefix) {
    first.legitimate_origins.extend(repeat.legitimate_origins);
    first.known_neighbors.extend(repeat.known_neighbors);
    first.dormant &= repeat.dormant;
}

/// What [`Detector::remove_shard`] hands back: everything the caller
/// needs to wind an offboarded prefix down cleanly.
#[derive(Debug)]
pub struct RemovedShard {
    /// The shard's configuration at removal time.
    pub owned: OwnedPrefix,
    /// The shard's open alerts, ascending. They no longer absorb
    /// witnesses; the caller closes them.
    pub open_alerts: Vec<AlertId>,
    /// Events the shard processed (final accounting).
    pub events: u64,
}

/// Precomputed classification outcome for one event — the output of
/// [`Detector::prepare`], committed in batch order via
/// [`Detector::process_prepared`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedEvent {
    /// Index of the shard the event routes to; `None` for withdrawals
    /// and events outside every owned prefix (both classify Benign
    /// without touching shard accounting).
    shard: Option<u32>,
    /// The classification against the rules snapshot at preparation
    /// time (`None` = benign).
    hijack: Option<HijackType>,
}

impl PreparedEvent {
    /// A prepared outcome that commits as benign without shard
    /// accounting (withdrawals, space we do not own).
    const BENIGN: PreparedEvent = PreparedEvent {
        shard: None,
        hijack: None,
    };
}

/// The routing trie's value for one owned prefix: the shard's index
/// into the rule table, and the shard's rules themselves when they are
/// the common case — `plain`: announced, exactly one legitimate origin
/// (`origin`), no known neighbours and no expected announcements. An
/// event routed to a plain shard classifies from this entry alone.
/// Re-derived ([`ShardRules::route`]) after every change to the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardRoute {
    idx: u32,
    origin: Asn,
    plain: bool,
}

// Keeps the trie's value slot (prefix bits, length, family and value)
// at 32 bytes, as it was for a bare `usize` index.
const _: () = assert!(std::mem::size_of::<ShardRoute>() <= 12);

/// The detector's routing structure: the incremental [`FlatTrie`] that
/// maps an observed prefix to the responsible shard, plus a generation
/// counter bumped on every onboard/offboard mutation (exported as the
/// `artemis_routing_epoch` gauge).
pub struct RoutingEpoch {
    flat: FlatTrie<ShardRoute>,
    epoch: u64,
}

impl RoutingEpoch {
    /// Shard index of the most-specific owned prefix covering `p`.
    pub fn route(&self, p: Prefix) -> Option<usize> {
        self.flat.longest_match(p).map(|(_, r)| r.idx as usize)
    }

    /// Shard index of the owned prefix `owned` itself.
    fn shard_of(&self, owned: Prefix) -> Option<usize> {
        self.flat.get(owned).map(|r| r.idx as usize)
    }

    /// Generation counter: bumped once per onboard/offboard mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of routed (owned) prefixes.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// True when no prefixes are routed.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }
}

/// The ARTEMIS detection service.
///
/// Each configured prefix gets its own shard: its rules, its event
/// counter and its dirty flag, at one index in the parallel vectors
/// below. Events are routed to exactly one shard via longest-prefix
/// match, so per-event work stays independent of how many prefixes an
/// operator configures.
pub struct Detector {
    operator_as: Asn,
    /// Classification rules per shard — also the only copy of the
    /// owned-prefix table the pipeline keeps.
    rules: Vec<ShardRules>,
    /// Routes an observed prefix to the responsible shard (index into
    /// `rules`) by longest-prefix match. Onboard/offboard patch it
    /// incrementally (O(affected subtree)) and bump its epoch.
    routing: RoutingEpoch,
    store: AlertStore,
    events_processed: u64,
    /// Shards whose rules changed since [`Detector::begin_batch`]:
    /// batch-start [`PreparedEvent`]s for them are stale and commit by
    /// re-classifying against live state instead.
    dirty: Vec<bool>,
    /// Events routed to each shard.
    events: Vec<u64>,
    /// Every index set in `dirty` since the last batch start (possibly
    /// repeated, possibly stale after an offboard), so starting a batch
    /// clears only those instead of one flag per shard of the fleet.
    dirtied: Vec<usize>,
}

impl Detector {
    /// Build from the operator's configuration: one shard per owned
    /// prefix. A prefix listed more than once gets one shard whose
    /// rules are the union of the copies' (see [`ArtemisConfig::owned`]).
    pub fn new(config: ArtemisConfig) -> Self {
        let operator_as = config.operator_as;
        let mut flat = FlatTrie::new();
        let mut rules = Vec::with_capacity(config.owned.len());
        for owned in config.owned {
            let prefix = owned.prefix;
            let shard = ShardRules {
                owned,
                expected: BTreeSet::new(),
            };
            match flat.insert(prefix, shard.route(rules.len())) {
                None => rules.push(shard),
                Some(first) => {
                    let first = first.idx as usize;
                    fold_repeat(&mut rules[first].owned, shard.owned);
                    flat.insert(prefix, rules[first].route(first));
                }
            }
        }
        let shards = rules.len();
        Detector {
            operator_as,
            rules,
            routing: RoutingEpoch { flat, epoch: 0 },
            store: AlertStore::new(),
            events_processed: 0,
            dirty: vec![false; shards],
            events: vec![0; shards],
            dirtied: Vec::new(),
        }
    }

    /// Number of per-prefix shards (one per configured owned prefix).
    pub fn shard_count(&self) -> usize {
        self.rules.len()
    }

    /// Onboard an owned prefix at runtime: a fresh shard with its own
    /// legitimacy rules and expectation set, routed like
    /// any construction-time shard. Returns `false` (and changes
    /// nothing) when a shard for exactly this prefix already exists.
    pub fn add_shard(&mut self, owned: OwnedPrefix) -> bool {
        if self.routing.flat.get(owned.prefix).is_some() {
            return false;
        }
        let idx = self.rules.len();
        let shard = ShardRules {
            owned,
            expected: BTreeSet::new(),
        };
        self.routing
            .flat
            .insert(shard.owned.prefix, shard.route(idx));
        self.routing.epoch += 1;
        self.rules.push(shard);
        self.events.push(0);
        self.dirty.push(false);
        self.mark_dirty(idx);
        true
    }

    /// Offboard the shard owning exactly `owned`, returning its
    /// configuration and its open alerts (so the caller can close
    /// in-flight incidents). Those alerts stop absorbing witnesses:
    /// should the prefix be onboarded again, a witness opens a new
    /// incident. Events for the removed address space classify as "not
    /// our prefix" (benign) from now on.
    pub fn remove_shard(&mut self, owned: Prefix) -> Option<RemovedShard> {
        let idx = self.routing.flat.remove(owned)?.idx as usize;
        self.routing.epoch += 1;
        let rules = self.rules.swap_remove(idx);
        let events = self.events.swap_remove(idx);
        self.dirty.swap_remove(idx);
        // `swap_remove` moved the former last shard into `idx`; its
        // routing entry must follow it.
        if idx < self.rules.len() {
            self.reroute(idx);
            self.mark_dirty(idx);
        }
        Some(RemovedShard {
            owned: rules.owned,
            open_alerts: self.store.drain_open(owned),
            events,
        })
    }

    /// Events routed to the shard owning exactly `owned`, if any.
    pub fn shard_events(&self, owned: Prefix) -> Option<u64> {
        self.routing.shard_of(owned).map(|i| self.events[i])
    }

    fn mark_dirty(&mut self, idx: usize) {
        self.dirty[idx] = true;
        self.dirtied.push(idx);
    }

    /// Re-derive shard `idx`'s routing trie value from its rules.
    fn reroute(&mut self, idx: usize) {
        let shard = &self.rules[idx];
        *self
            .routing
            .flat
            .get_mut(shard.owned.prefix)
            .expect("every shard stays routed") = shard.route(idx);
    }

    /// Change one shard's rules, marking the shard dirty so in-flight
    /// batch preparations re-classify at commit time, and re-deriving
    /// its routing trie value.
    fn update_rules(&mut self, idx: usize, update: impl FnOnce(&mut ShardRules)) {
        self.mark_dirty(idx);
        update(&mut self.rules[idx]);
        self.reroute(idx);
    }

    /// Register a prefix we are about to announce ourselves (e.g. the
    /// mitigation /24s) so the detector does not flag it. The
    /// expectation is routed to the shard owning the covering prefix —
    /// the same shard the echoed announcements will be routed to. A
    /// prefix outside every owned prefix is never classified, so
    /// expecting it changes nothing.
    pub fn expect_announcement(&mut self, prefix: Prefix) {
        if let Some(idx) = self.routing.route(prefix) {
            self.update_rules(idx, |rules| {
                rules.expected.insert(prefix);
            });
        }
    }

    /// Mark a dormant owned prefix as activated: mitigation has begun
    /// announcing it, so it is no longer "owned but unannounced".
    /// Clears the shard's dormancy flag and registers the expectation,
    /// so subsequent events classify under the normal (non-squatting)
    /// rules instead of flagging our own announcement.
    pub fn activate_prefix(&mut self, owned: Prefix) {
        if let Some(idx) = self.routing.shard_of(owned) {
            self.update_rules(idx, |rules| {
                rules.owned.dormant = false;
                rules.expected.insert(owned);
            });
        }
    }

    /// Total events processed (throughput accounting).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The alert store (read access).
    pub fn alerts(&self) -> &AlertStore {
        &self.store
    }

    /// Mutable alert store (lifecycle transitions by the app).
    pub fn alerts_mut(&mut self) -> &mut AlertStore {
        &mut self.store
    }

    // ---- Two-phase processing ---------------------------------------

    /// The routing structure with its generation stamp.
    pub fn routing_epoch(&self) -> &RoutingEpoch {
        &self.routing
    }

    /// Stride-8 multibit nodes in the routing trie (capacity gauge).
    pub fn routing_nodes(&self) -> usize {
        self.routing.flat.node_count()
    }

    /// Approximate heap bytes held by the routing trie
    /// (capacity gauge).
    pub fn routing_bytes(&self) -> usize {
        self.routing.flat.approx_bytes()
    }

    /// The legitimacy rules of the shard owning exactly `owned`, if
    /// any — a keyed trie lookup, not a scan over the configuration.
    pub fn owned_rules(&self, owned: Prefix) -> Option<&OwnedPrefix> {
        self.routing
            .shard_of(owned)
            .map(|idx| &self.rules[idx].owned)
    }

    /// Every owned prefix's rules as currently in force, in prefix
    /// order — a function of the configured set alone, independent of
    /// the onboard/offboard history that produced it.
    pub fn owned_prefixes(&self) -> impl Iterator<Item = &OwnedPrefix> {
        self.routing
            .flat
            .iter()
            .map(|(_, r)| &self.rules[r.idx as usize].owned)
    }

    /// Classify one event against live state without committing it.
    ///
    /// An event routed to a plain shard (see `ShardRoute`) classifies
    /// from the trie entry alone; any other loads the shard's rules.
    pub fn prepare(&self, event: &FeedEvent) -> PreparedEvent {
        // Withdrawals never *raise* alerts (resolution is judged by the
        // monitoring service, which tracks per-VP state).
        let Reach::Announced { origin_neighbor } = event.reach else {
            return PreparedEvent::BENIGN;
        };
        // Which shard is responsible? The most-specific owned prefix
        // containing the observed one (exact and sub-prefix cases) — an
        // allocation-free walk over the routing structure.
        let Some((owned, route)) = self.routing.flat.longest_match(event.prefix) else {
            return PreparedEvent::BENIGN; // not our address space
        };
        let hijack = if route.plain {
            decide(
                false,
                event.prefix == owned,
                event.origin_as == Some(route.origin),
                || false,
                || false,
            )
        } else {
            self.rules[route.idx as usize].classify(event.prefix, event.origin_as, origin_neighbor)
        };
        PreparedEvent {
            shard: Some(route.idx),
            hijack,
        }
    }

    /// Start a new commit batch: forget which shards were dirtied by
    /// earlier batches. Call once per batch, *before* preparing its
    /// events.
    pub fn begin_batch(&mut self) {
        for idx in self.dirtied.drain(..) {
            // An offboard since may have shrunk the table past `idx`.
            if let Some(d) = self.dirty.get_mut(idx) {
                *d = false;
            }
        }
    }

    /// Commit one prepared event in batch order.
    ///
    /// Uses the precomputed classification unless the owning shard's
    /// rules changed since [`Detector::begin_batch`] (a mitigation
    /// registered an expectation, a squatting plan activated the
    /// prefix), in which case the event is re-classified against live
    /// state — so a batch commits exactly as if every event had been
    /// classified at its own turn.
    pub fn process_prepared(&mut self, event: &FeedEvent, prep: PreparedEvent) -> Detection {
        self.events_processed += 1;
        let Some(idx) = prep.shard else {
            return Detection::Benign;
        };
        let idx = idx as usize;
        self.events[idx] += 1;
        let hijack_type = if self.dirty[idx] {
            self.rules[idx].classify(event.prefix, event.origin_as, event.origin_neighbor())
        } else {
            prep.hijack
        };
        self.commit(event, idx, hijack_type)
    }

    /// Process one monitoring event: route it to the shard whose owned
    /// prefix covers it (longest-prefix match through the routing
    /// trie), classify against that shard's rules, and commit.
    pub fn process(&mut self, event: &FeedEvent) -> Detection {
        let prep = self.prepare(event);
        self.process_prepared(event, prep)
    }

    /// Commit tail: alert dedup against the shard's open alerts.
    fn commit(
        &mut self,
        event: &FeedEvent,
        idx: usize,
        hijack_type: Option<HijackType>,
    ) -> Detection {
        let Some(hijack_type) = hijack_type else {
            return Detection::Benign;
        };
        let owned_prefix = self.rules[idx].owned.prefix;
        let (id, new) = self.store.observe(hijack_type, owned_prefix, event);
        if new {
            Detection::NewAlert(id)
        } else {
            Detection::UpdatedAlert(id)
        }
    }

    /// Operator AS from the config.
    pub fn operator_as(&self) -> Asn {
        self.operator_as
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OwnedPrefix;
    use artemis_bgp::AsPath;
    use artemis_feeds::FeedKind;
    use artemis_simnet::SimTime;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn config() -> ArtemisConfig {
        ArtemisConfig::new(
            Asn(65001),
            vec![
                OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))
                    .with_neighbors([Asn(174), Asn(3356)]),
                OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(65001)).dormant(),
            ],
        )
    }

    fn event(prefix: &str, path: &[u32], t: u64) -> FeedEvent {
        FeedEvent::new(
            SimTime::from_secs(t),
            SimTime::from_secs(t.saturating_sub(8)),
            FeedKind::RisLive,
            Asn(path[0]),
            pfx(prefix),
            Some(&AsPath::from_sequence(path.iter().copied())),
            None,
        )
    }

    #[test]
    fn legitimate_announcement_is_benign() {
        let mut d = Detector::new(config());
        // VP 2914 sees the owned /23 via 174 from the legit origin.
        let ev = event("10.0.0.0/23", &[2914, 174, 65001], 50);
        assert_eq!(d.process(&ev), Detection::Benign);
        assert_eq!(d.alerts().all().len(), 0);
    }

    #[test]
    fn exact_origin_hijack_detected() {
        let mut d = Detector::new(config());
        let ev = event("10.0.0.0/23", &[2914, 174, 666], 45);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                let a = d.alerts().get(id).unwrap();
                assert_eq!(a.hijack_type, HijackType::ExactOrigin);
                assert_eq!(a.offending_origin, Some(Asn(666)));
                assert_eq!(a.detected_at, SimTime::from_secs(45));
            }
            other => panic!("expected new alert, got {other:?}"),
        }
    }

    #[test]
    fn subprefix_hijack_detected() {
        let mut d = Detector::new(config());
        let ev = event("10.0.0.0/24", &[2914, 174, 666], 45);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                let a = d.alerts().get(id).unwrap();
                assert_eq!(a.hijack_type, HijackType::SubPrefix);
                assert_eq!(a.owned_prefix, pfx("10.0.0.0/23"));
                assert_eq!(a.observed_prefix, pfx("10.0.0.0/24"));
            }
            other => panic!("expected new alert, got {other:?}"),
        }
    }

    #[test]
    fn subprefix_with_forged_origin_detected() {
        let mut d = Detector::new(config());
        // Attacker announces 10.0.0.0/24 with victim origin appended.
        let ev = event("10.0.0.0/24", &[2914, 666, 65001], 45);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                assert_eq!(
                    d.alerts().get(id).unwrap().hijack_type,
                    HijackType::SubPrefixForgedOrigin
                );
            }
            other => panic!("expected new alert, got {other:?}"),
        }
    }

    #[test]
    fn own_mitigation_announcements_are_not_flagged() {
        let mut d = Detector::new(config());
        d.expect_announcement(pfx("10.0.0.0/24"));
        d.expect_announcement(pfx("10.0.1.0/24"));
        let ev = event("10.0.0.0/24", &[2914, 174, 65001], 80);
        assert_eq!(d.process(&ev), Detection::Benign);
        // …but an attacker announcing our expected /24 IS flagged.
        let ev = event("10.0.0.0/24", &[2914, 174, 666], 81);
        assert!(matches!(d.process(&ev), Detection::NewAlert(_)));
    }

    #[test]
    fn type1_fake_neighbor_detected() {
        let mut d = Detector::new(config());
        // Legit origin 65001 but adjacent hop 9999 is not a known
        // neighbor (real upstreams: 174, 3356).
        let ev = event("10.0.0.0/23", &[2914, 9999, 65001], 45);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                assert_eq!(
                    d.alerts().get(id).unwrap().hijack_type,
                    HijackType::Type1FakeNeighbor
                );
            }
            other => panic!("expected new alert, got {other:?}"),
        }
        // Through a known neighbor: benign.
        let ev = event("10.0.0.0/23", &[2914, 3356, 65001], 46);
        assert_eq!(d.process(&ev), Detection::Benign);
    }

    #[test]
    fn squatting_on_dormant_prefix() {
        let mut d = Detector::new(config());
        // ANY announcement of the dormant prefix is squatting — even
        // with the "legit" origin (we are not announcing it).
        let ev = event("203.0.113.0/24", &[2914, 174, 31337], 45);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                assert_eq!(
                    d.alerts().get(id).unwrap().hijack_type,
                    HijackType::Squatting
                );
            }
            other => panic!("expected new alert, got {other:?}"),
        }
    }

    #[test]
    fn squatting_mitigation_echo_is_not_a_self_alert() {
        // Regression: after a Squatting mitigation starts announcing
        // the dormant prefix, the echo of our own announcement used to
        // raise/update a squatting alert against ourselves.
        let mut d = Detector::new(config());
        let ev = event("203.0.113.0/24", &[2914, 174, 31337], 45);
        assert!(matches!(d.process(&ev), Detection::NewAlert(_)));
        // Mitigation registers its announcement (prefix still dormant).
        d.expect_announcement(pfx("203.0.113.0/24"));
        // Our own announcement echoes back: benign.
        let echo = event("203.0.113.0/24", &[2914, 174, 65001], 60);
        assert_eq!(d.process(&echo), Detection::Benign);
        // The attacker's ongoing squat still updates the one alert.
        let again = event("203.0.113.0/24", &[1299, 174, 31337], 61);
        assert!(matches!(d.process(&again), Detection::UpdatedAlert(_)));
        assert_eq!(d.alerts().all().len(), 1);
    }

    #[test]
    fn expected_announcement_with_rogue_origin_is_still_squatting() {
        let mut d = Detector::new(config());
        d.expect_announcement(pfx("203.0.113.0/24"));
        // Expected prefix, but the origin is not ours: a hijack of the
        // mitigation announcement itself.
        let ev = event("203.0.113.0/24", &[2914, 174, 666], 50);
        assert!(matches!(d.process(&ev), Detection::NewAlert(_)));
    }

    #[test]
    fn activate_prefix_clears_dormancy() {
        let mut d = Detector::new(config());
        d.activate_prefix(pfx("203.0.113.0/24"));
        // Legitimate-origin announcements of the now-active prefix are
        // benign even from vantage points that never saw the squat…
        let ev = event("203.0.113.0/24", &[2914, 174, 65001], 70);
        assert_eq!(d.process(&ev), Detection::Benign);
        // …and a rogue origin classifies as an exact-origin hijack of
        // an announced prefix, not as squatting.
        let ev = event("203.0.113.0/24", &[2914, 174, 666], 71);
        match d.process(&ev) {
            Detection::NewAlert(id) => {
                assert_eq!(
                    d.alerts().get(id).unwrap().hijack_type,
                    HijackType::ExactOrigin
                );
            }
            other => panic!("expected new alert, got {other:?}"),
        }
    }

    #[test]
    fn unrelated_prefixes_ignored() {
        let mut d = Detector::new(config());
        let ev = event("8.8.8.0/24", &[2914, 15169], 45);
        assert_eq!(d.process(&ev), Detection::Benign);
    }

    #[test]
    fn withdrawals_are_benign() {
        let mut d = Detector::new(config());
        let mut ev = event("10.0.0.0/23", &[2914, 174, 666], 45);
        ev.reach = Reach::Withdrawn;
        ev.origin_as = None;
        assert_eq!(d.process(&ev), Detection::Benign);
    }

    #[test]
    fn multiple_vantage_points_one_alert() {
        let mut d = Detector::new(config());
        let first = d.process(&event("10.0.0.0/23", &[2914, 174, 666], 45));
        let Detection::NewAlert(id) = first else {
            panic!("expected new");
        };
        assert_eq!(
            d.process(&event("10.0.0.0/23", &[1299, 174, 666], 50)),
            Detection::UpdatedAlert(id)
        );
        let alert = d.alerts().get(id).unwrap();
        assert_eq!(alert.vantage_points.len(), 2);
        assert_eq!(alert.detected_at, SimTime::from_secs(45));
    }

    #[test]
    fn detection_is_min_over_sources() {
        let mut d = Detector::new(config());
        // BGPmon reports at t=60, Periscope at t=44, RIS at t=52. The
        // alert's detection time must be the earliest *processed*;
        // feed events arrive in emission order, so process in order.
        let mut e1 = event("10.0.0.0/23", &[2914, 174, 666], 44);
        e1.source = FeedKind::Periscope;
        let mut e2 = event("10.0.0.0/23", &[1299, 174, 666], 52);
        e2.source = FeedKind::RisLive;
        let mut e3 = event("10.0.0.0/23", &[3320, 174, 666], 60);
        e3.source = FeedKind::BgpMon;
        d.process(&e1);
        d.process(&e2);
        d.process(&e3);
        let alert = &d.alerts().all()[0];
        assert_eq!(alert.detected_at, SimTime::from_secs(44));
        assert_eq!(alert.detected_by, FeedKind::Periscope);
        assert_eq!(alert.vantage_points.len(), 3);
    }

    #[test]
    fn add_shard_onboards_a_prefix_at_runtime() {
        let mut d = Detector::new(config());
        // Before onboarding: not our space, benign.
        let ev = event("172.16.0.0/23", &[2914, 174, 666], 45);
        assert_eq!(d.process(&ev), Detection::Benign);

        assert!(d.add_shard(OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001))));
        assert_eq!(d.shard_count(), 3);
        // Duplicate onboarding is rejected.
        assert!(!d.add_shard(OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001))));

        // After onboarding: the same announcement is a hijack.
        let ev = event("172.16.0.0/23", &[2914, 174, 666], 50);
        assert!(matches!(d.process(&ev), Detection::NewAlert(_)));
        assert_eq!(d.shard_events(pfx("172.16.0.0/23")), Some(1));
    }

    #[test]
    fn remove_shard_offboards_and_keeps_other_shards_routed() {
        let mut d = Detector::new(config());
        // Raise an alert on the first shard, then offboard it.
        let ev = event("10.0.0.0/23", &[2914, 174, 666], 45);
        let Detection::NewAlert(id) = d.process(&ev) else {
            panic!("expected alert");
        };
        let removed = d.remove_shard(pfx("10.0.0.0/23")).expect("shard exists");
        assert_eq!(removed.owned.prefix, pfx("10.0.0.0/23"));
        assert_eq!(removed.open_alerts, vec![id]);
        assert_eq!(removed.events, 1);
        assert_eq!(d.shard_count(), 1);
        assert!(d.remove_shard(pfx("10.0.0.0/23")).is_none());

        // The offboarded space is no longer ours.
        let ev = event("10.0.0.0/23", &[2914, 174, 666], 50);
        assert_eq!(d.process(&ev), Detection::Benign);

        // The surviving shard (moved by swap_remove) still routes:
        // squatting on the dormant prefix is still detected.
        let ev = event("203.0.113.0/24", &[2914, 174, 31337], 55);
        assert!(matches!(d.process(&ev), Detection::NewAlert(_)));
        assert_eq!(d.shard_events(pfx("203.0.113.0/24")), Some(1));
    }

    #[test]
    fn anycast_second_origin_is_legitimate() {
        let mut cfg = config();
        cfg.owned[0].legitimate_origins.insert(Asn(65002));
        let mut d = Detector::new(cfg);
        let ev = event("10.0.0.0/23", &[2914, 174, 65002], 45);
        assert_eq!(d.process(&ev), Detection::Benign);
    }

    #[test]
    fn repeated_owned_prefixes_fold_into_one_shard() {
        let repeats = |copies: Vec<OwnedPrefix>| {
            let mut owned = vec![OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(65001))];
            owned.extend(copies);
            Detector::new(ArtemisConfig::new(Asn(65001), owned))
        };
        let mut d = repeats(vec![
            OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001)).with_neighbors([Asn(174)]),
            OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65002)).with_neighbors([Asn(3356)]),
        ]);
        assert_eq!(d.shard_count(), 2);
        let rules = d.owned_rules(pfx("10.0.0.0/23")).expect("routed");
        assert_eq!(rules.legitimate_origins.len(), 2);
        assert_eq!(rules.known_neighbors.len(), 2);
        // Either copy's origin, through either copy's neighbour: benign.
        for (t, path) in [[2914, 174, 65001], [2914, 3356, 65002]].iter().enumerate() {
            assert_eq!(
                d.process(&event("10.0.0.0/23", path, t as u64)),
                Detection::Benign
            );
        }
        assert!(matches!(
            d.process(&event("10.0.0.0/23", &[2914, 9999, 65001], 5)),
            Detection::NewAlert(_)
        ));
        // Offboarding the other prefix moves the folded shard; both
        // prefixes then offboard cleanly.
        assert!(d.remove_shard(pfx("192.0.2.0/24")).is_some());
        assert!(d.remove_shard(pfx("10.0.0.0/23")).is_some());
        assert_eq!(d.shard_count(), 0);

        // A repeat is dormant only when every copy is.
        let owned = OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(65001));
        let mut d = repeats(vec![owned.clone().dormant(), owned.clone()]);
        let ev = event("203.0.113.0/24", &[2914, 174, 65001], 1);
        assert_eq!(d.process(&ev), Detection::Benign);
        let mut d = repeats(vec![owned.clone().dormant(), owned.dormant()]);
        assert!(matches!(d.process(&ev), Detection::NewAlert(_)));
    }

    // ---- Two-phase path ---------------------------------------------

    #[test]
    fn prepared_path_matches_fused_process() {
        // A whole batch classified up front, then committed in order,
        // agrees with classifying each event at its own turn.
        let events = [
            event("10.0.0.0/23", &[2914, 174, 666], 45), // exact hijack
            event("10.0.0.0/23", &[1299, 174, 666], 46), // second witness
            event("10.0.0.0/24", &[2914, 666, 65001], 47), // forged origin
            event("8.8.8.0/24", &[2914, 15169], 48),     // unrelated
            event("203.0.113.0/24", &[2914, 174, 31337], 49), // squat
            event("10.0.0.0/23", &[2914, 174, 65001], 50), // legit
        ];
        let mut fused = Detector::new(config());
        let fused_out: Vec<Detection> = events.iter().map(|e| fused.process(e)).collect();

        let mut split = Detector::new(config());
        split.begin_batch();
        let prepared: Vec<PreparedEvent> = events.iter().map(|e| split.prepare(e)).collect();
        let split_out: Vec<Detection> = events
            .iter()
            .zip(prepared)
            .map(|(e, p)| split.process_prepared(e, p))
            .collect();

        assert_eq!(fused_out, split_out);
        assert_eq!(fused.alerts().all(), split.alerts().all());
        assert_eq!(fused.events_processed(), split.events_processed());
        assert_eq!(
            fused.shard_events(pfx("10.0.0.0/23")),
            split.shard_events(pfx("10.0.0.0/23"))
        );
    }

    #[test]
    fn dirty_shard_reclassifies_stale_preparations() {
        // Prepare a batch, then mutate the shard's rules mid-batch
        // (exactly what a mitigation's expect_announcement does): the
        // stale preparation must be ignored and the event re-classified
        // against live state.
        let mut d = Detector::new(config());
        d.begin_batch();
        let echo = event("10.0.0.0/24", &[2914, 174, 65001], 60);
        let prep = d.prepare(&echo);
        // At preparation time this is a forged-origin sub-prefix
        // hijack (the /24 is not yet expected).
        assert!(matches!(
            d.process_prepared(&echo, prep),
            Detection::NewAlert(_)
        ));

        // Same preparation, but the mitigation registers the /24
        // before the commit: dirty shard → re-classified → benign.
        let mut d = Detector::new(config());
        d.begin_batch();
        let prep = d.prepare(&echo);
        d.expect_announcement(pfx("10.0.0.0/24"));
        assert_eq!(d.process_prepared(&echo, prep), Detection::Benign);

        // A fresh batch resets the dirty mark.
        d.begin_batch();
        let prep = d.prepare(&echo);
        assert_eq!(d.process_prepared(&echo, prep), Detection::Benign);
    }

    #[test]
    fn begin_batch_clears_exactly_the_dirtied_shards_even_across_an_offboard() {
        let mut d = Detector::new(config());
        assert!(d.add_shard(OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001))));
        // Dirty the last shard, then offboard the first: swap_remove
        // moves the dirty shard down and leaves a stale index behind.
        d.expect_announcement(pfx("172.16.0.0/24"));
        d.remove_shard(pfx("10.0.0.0/23")).expect("shard exists");
        assert!(d.dirty.iter().any(|flag| *flag));
        d.begin_batch();
        assert!(d.dirtied.is_empty());
        assert!(d.dirty.iter().all(|flag| !*flag), "{:?}", d.dirty);
        // And a clean batch start touches nothing.
        d.begin_batch();
        assert!(d.dirty.iter().all(|flag| !*flag));
    }

    #[test]
    fn owned_prefixes_list_in_prefix_order_whatever_the_history() {
        let mut d = Detector::new(config());
        assert!(d.add_shard(OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001))));
        d.remove_shard(pfx("10.0.0.0/23")).expect("shard exists");
        assert!(d.add_shard(OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65002))));
        let listed: Vec<(Prefix, bool)> = d
            .owned_prefixes()
            .map(|o| (o.prefix, o.legitimate_origins.contains(&Asn(65002))))
            .collect();
        assert_eq!(
            listed,
            vec![
                (pfx("10.0.0.0/23"), true),
                (pfx("172.16.0.0/23"), false),
                (pfx("203.0.113.0/24"), false),
            ]
        );
    }

    #[test]
    fn incremental_routing_stays_consistent_across_onboard_offboard_churn() {
        let mut d = Detector::new(config());
        let probes = [
            event("10.0.0.0/23", &[2914, 174, 666], 45),
            event("10.0.0.0/24", &[2914, 174, 666], 45),
            event("172.16.0.0/24", &[2914, 174, 666], 45),
            event("203.0.113.0/24", &[2914, 174, 31337], 45),
            event("8.8.8.0/24", &[2914, 15169], 45),
            event("10.0.0.0/23", &[2914, 174, 65001], 45),
            event("10.0.1.0/24", &[2914, 174, 65001], 45),
            event("172.16.0.0/23", &[2914, 174, 65001], 45),
            event("172.16.1.0/24", &[2914, 174, 65001], 45),
        ];
        // Every probe's origin-adjacent hop is a known neighbour and no
        // announcement is expected, so neither rule that consults them
        // can fire.
        let check = |d: &Detector| {
            // The routing structure must mirror the shard table exactly…
            assert_eq!(d.routing.len(), d.rules.len());
            assert_eq!(d.events.len(), d.rules.len());
            for (i, r) in d.rules.iter().enumerate() {
                assert_eq!(d.routing.flat.get(r.owned.prefix), Some(&r.route(i)));
            }
            // …and classify identically to the rules applied to a linear
            // scan of the shard table.
            for ev in &probes {
                let got = d.prepare(ev);
                let owner = d
                    .rules
                    .iter()
                    .filter(|r| r.owned.prefix.contains(ev.prefix))
                    .max_by_key(|r| r.owned.prefix.len());
                let Some(owner) = owner else {
                    assert_eq!(got, PreparedEvent::BENIGN, "probe {}", ev.prefix);
                    continue;
                };
                let owned = &owner.owned;
                let legit = owned.legitimate_origins.contains(&ev.origin_as.unwrap());
                let reference = if owned.dormant {
                    Some(HijackType::Squatting)
                } else if ev.prefix == owned.prefix {
                    (!legit).then_some(HijackType::ExactOrigin)
                } else if legit {
                    Some(HijackType::SubPrefixForgedOrigin)
                } else {
                    Some(HijackType::SubPrefix)
                };
                assert_eq!(got.hijack, reference, "probe {}", ev.prefix);
                let idx = got.shard.expect("routed") as usize;
                assert_eq!(d.rules[idx].owned.prefix, owned.prefix);
            }
        };
        let e0 = d.routing_epoch().epoch();
        check(&d);
        // Onboarding patches the flat structure immediately — the new
        // shard routes with no stale window and the epoch advances.
        assert!(d.add_shard(OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001))));
        let e1 = d.routing_epoch().epoch();
        assert!(e1 > e0);
        check(&d);
        d.begin_batch();
        assert_eq!(
            d.routing_epoch().epoch(),
            e1,
            "batches do not mutate routing"
        );
        check(&d);
        assert!(d.routing_nodes() > 2);
        assert!(d.routing_bytes() > 0);
        // Offboard-then-readd churn (exercising swap_remove index
        // moves) keeps routing and shard table agreeing.
        d.remove_shard(pfx("10.0.0.0/23")).expect("shard exists");
        assert!(d.routing_epoch().epoch() > e1);
        check(&d);
        d.begin_batch();
        check(&d);
        assert!(d.add_shard(OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))));
        d.begin_batch();
        check(&d);
        assert!(d.add_shard(OwnedPrefix::new(pfx("198.51.100.0/24"), Asn(65001))));
        // Keyed owned-prefix lookup sees exactly the onboarded shards.
        assert!(d.owned_rules(pfx("10.0.0.0/23")).is_some());
        assert!(d.owned_rules(pfx("10.0.0.0/24")).is_none());
    }

    #[test]
    fn offboard_reonboard_cycles_patch_in_place_with_no_hidden_rebuild() {
        // 320 owned /24s, each in a /16 of its own: past the 256-entry
        // threshold, so the routing trie's /16 table is live, and every
        // cycle prunes a node and patches the table.
        let fleet: Vec<Prefix> = (0..320u32)
            .map(|i| Prefix::v4([10 + (i >> 8) as u8, i as u8, 0, 0].into(), 24).expect("valid"))
            .collect();
        let owned = fleet
            .iter()
            .map(|p| OwnedPrefix::new(*p, Asn(65001)))
            .collect();
        let mut d = Detector::new(ArtemisConfig::new(Asn(65001), owned));
        let epoch_before = d.routing_epoch().epoch();
        let nodes_before = d.routing_nodes();
        let cycles = 40;
        for c in 0..cycles {
            let prefix = fleet[(c * 7) % fleet.len()];
            d.remove_shard(prefix).expect("fleet prefix is onboarded");
            assert!(d.add_shard(OwnedPrefix::new(prefix, Asn(65001))));
        }
        // One epoch per patch, two patches per cycle — and nothing
        // leaked or was rebuilt: the node pool is back where it began.
        assert_eq!(d.routing_epoch().epoch() - epoch_before, 2 * cycles as u64);
        assert_eq!(d.routing_nodes(), nodes_before);
        assert_eq!(d.shard_count(), fleet.len());
        for p in &fleet {
            let hijack = event(&p.to_string(), &[2914, 174, 666], 45);
            assert!(matches!(d.process(&hijack), Detection::NewAlert(_)), "{p}");
        }
    }
}
