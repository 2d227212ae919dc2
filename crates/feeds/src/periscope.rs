//! Periscope-style Looking Glass querying (pull-based, rate-limited).
//!
//! Periscope [Giotsas et al., PAM 2016] unifies querying of public
//! looking glasses. LGs read *operational routers* directly — no
//! collector pipeline — so a poll that lands shortly after a routing
//! change can beat the streaming feeds; but polls are rate-limited, so
//! a poll that just missed the change pays a full period. That
//! trade-off (overhead vs detection speed, paper §2) is exactly what
//! this module models.

use crate::event::{FeedEvent, FeedKind};
use crate::source::{FeedSource, RibView};
use artemis_bgp::{Asn, Prefix};
use artemis_simnet::{LatencyModel, SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// One looking glass: a vantage AS we may query.
#[derive(Debug, Clone)]
pub struct LookingGlass {
    /// Identifier, e.g. `lg-ams-01`; shared by every event the LG yields.
    pub name: Arc<str>,
    /// The AS whose operational routers this LG exposes.
    pub vantage: Asn,
    /// Minimum interval between queries (rate limit).
    pub min_interval: SimDuration,
    /// Response latency model (HTTP + router CLI).
    pub response_latency: LatencyModel,
}

impl LookingGlass {
    /// An LG with a 60 s rate limit and 1–4 s response time — typical
    /// for public web looking glasses.
    pub fn typical(name: impl Into<Arc<str>>, vantage: Asn) -> Self {
        LookingGlass {
            name: name.into(),
            vantage,
            min_interval: SimDuration::from_secs(60),
            response_latency: LatencyModel::uniform_millis(1_000, 4_000),
        }
    }
}

struct LgState {
    lg: LookingGlass,
    next_query: SimTime,
}

/// The Periscope client: polls a set of LGs for a set of monitored
/// prefixes on a staggered schedule.
pub struct PeriscopeFeed {
    name: String,
    lgs: Vec<LgState>,
    monitored: Vec<Prefix>,
    queries_issued: u64,
    emitted: u64,
}

impl PeriscopeFeed {
    /// Build a client. Query start times are staggered across the
    /// first polling period so LGs do not fire in lock-step (this is
    /// also what spreads detection delay between 0 and `min_interval`).
    pub fn new(lgs: Vec<LookingGlass>, monitored: Vec<Prefix>, rng: &mut SimRng) -> Self {
        let states = lgs
            .into_iter()
            .map(|lg| {
                let phase_us = if lg.min_interval.is_zero() {
                    0
                } else {
                    rng.range_u64(0, lg.min_interval.as_micros())
                };
                LgState {
                    next_query: SimTime::ZERO + SimDuration::from_micros(phase_us),
                    lg,
                }
            })
            .collect();
        PeriscopeFeed {
            name: "periscope".into(),
            lgs: states,
            monitored,
            queries_issued: 0,
            emitted: 0,
        }
    }

    /// Add a prefix to the monitored set (e.g. the de-aggregated /24s
    /// once mitigation starts).
    pub fn monitor_prefix(&mut self, prefix: Prefix) {
        if !self.monitored.contains(&prefix) {
            self.monitored.push(prefix);
        }
    }

    /// Total queries issued (the "monitoring overhead" axis of E3).
    pub fn queries_issued(&self) -> u64 {
        self.queries_issued
    }

    /// Number of looking glasses.
    pub fn lg_count(&self) -> usize {
        self.lgs.len()
    }
}

impl FeedSource for PeriscopeFeed {
    fn kind(&self) -> FeedKind {
        FeedKind::Periscope
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_route_change_into(
        &mut self,
        _change: &artemis_bgpsim::RouteChange,
        _rng: &mut SimRng,
        _out: &mut Vec<FeedEvent>,
    ) {
        // purely pull-based
    }

    fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        self.lgs.iter().map(|s| s.next_query.max(now)).min()
    }

    fn poll(&mut self, at: SimTime, view: &dyn RibView, rng: &mut SimRng) -> Vec<FeedEvent> {
        let mut out = Vec::new();
        for state in &mut self.lgs {
            if state.next_query > at {
                continue;
            }
            state.next_query = at + state.lg.min_interval;
            self.queries_issued += 1;
            let latency = state.lg.response_latency.sample(rng);
            // An LG query returns the router's current best paths for
            // the queried prefix *and its more-specifics* ("show ip bgp
            // ... longer-prefixes") — without the more-specifics a /24
            // sub-prefix hijack of a monitored /23 would be invisible.
            let rib = view.loc_rib(state.lg.vantage);
            for target in &self.monitored {
                for (prefix, best) in &rib {
                    if !target.contains(*prefix) && !prefix.contains(*target) {
                        continue;
                    }
                    out.push(FeedEvent {
                        emitted_at: at + latency,
                        observed_at: at,
                        source: FeedKind::Periscope,
                        collector: state.lg.name.clone(),
                        vantage: state.lg.vantage,
                        prefix: *prefix,
                        as_path: Some(best.as_path.prepend(state.lg.vantage)),
                        origin_as: Some(best.origin_as),
                        raw: None,
                    });
                }
            }
        }
        self.emitted += out.len() as u64;
        out
    }

    fn events_emitted(&self) -> u64 {
        self.emitted
    }

    fn polls_executed(&self) -> u64 {
        self.queries_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::AsPath;
    use artemis_bgpsim::BestRoute;
    use std::collections::BTreeMap;
    use std::str::FromStr;

    struct FakeView {
        ribs: BTreeMap<Asn, Vec<(Prefix, BestRoute)>>,
    }

    impl RibView for FakeView {
        fn best_route(&self, asn: Asn, prefix: Prefix) -> Option<BestRoute> {
            self.ribs
                .get(&asn)?
                .iter()
                .find(|(p, _)| *p == prefix)
                .map(|(_, b)| b.clone())
        }
        fn loc_rib(&self, asn: Asn) -> Vec<(Prefix, BestRoute)> {
            self.ribs.get(&asn).cloned().unwrap_or_default()
        }
    }

    fn best(origin: u32) -> BestRoute {
        BestRoute {
            as_path: AsPath::from_sequence([3356u32, origin]),
            origin_as: Asn(origin),
            neighbor: Some(Asn(3356)),
            learned_from: Some(artemis_topology::RelKind::Provider),
            local_pref: 100,
        }
    }

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn view() -> FakeView {
        let mut ribs = BTreeMap::new();
        ribs.insert(
            Asn(174),
            vec![
                (pfx("10.0.0.0/23"), best(65001)),
                (pfx("10.0.0.0/24"), best(666)), // sub-prefix hijack!
                (pfx("192.0.2.0/24"), best(65009)),
            ],
        );
        FakeView { ribs }
    }

    fn lg(interval: u64) -> LookingGlass {
        LookingGlass {
            name: "lg-01".into(),
            vantage: Asn(174),
            min_interval: SimDuration::from_secs(interval),
            response_latency: LatencyModel::const_secs(2),
        }
    }

    #[test]
    fn poll_returns_monitored_and_more_specifics() {
        let mut rng = SimRng::new(1);
        let mut feed = PeriscopeFeed::new(vec![lg(60)], vec![pfx("10.0.0.0/23")], &mut rng);
        let at = feed.next_poll(SimTime::ZERO).unwrap();
        let evs = feed.poll(at, &view(), &mut rng);
        let prefixes: Vec<Prefix> = evs.iter().map(|e| e.prefix).collect();
        assert!(prefixes.contains(&pfx("10.0.0.0/23")));
        assert!(
            prefixes.contains(&pfx("10.0.0.0/24")),
            "sub-prefix hijack must be visible to LG queries"
        );
        assert!(!prefixes.contains(&pfx("192.0.2.0/24")));
        // Response latency reflected in emission time.
        assert!(evs
            .iter()
            .all(|e| e.emitted_at == at + SimDuration::from_secs(2)));
    }

    #[test]
    fn rate_limiting_enforced() {
        let mut rng = SimRng::new(2);
        let mut feed = PeriscopeFeed::new(vec![lg(60)], vec![pfx("10.0.0.0/23")], &mut rng);
        let first = feed.next_poll(SimTime::ZERO).unwrap();
        feed.poll(first, &view(), &mut rng);
        let second = feed.next_poll(first).unwrap();
        assert_eq!(second, first + SimDuration::from_secs(60));
        assert_eq!(feed.queries_issued(), 1);
    }

    #[test]
    fn phases_are_staggered() {
        let mut rng = SimRng::new(3);
        let lgs: Vec<LookingGlass> = (0..8)
            .map(|i| LookingGlass {
                name: format!("lg-{i}").into(),
                vantage: Asn(100 + i),
                min_interval: SimDuration::from_secs(60),
                response_latency: LatencyModel::const_secs(1),
            })
            .collect();
        let feed = PeriscopeFeed::new(lgs, vec![pfx("10.0.0.0/23")], &mut rng);
        let phases: std::collections::BTreeSet<SimTime> =
            feed.lgs.iter().map(|s| s.next_query).collect();
        assert!(phases.len() >= 6, "phases should be spread out");
    }

    #[test]
    fn monitor_prefix_extends_queries() {
        let mut rng = SimRng::new(4);
        let mut feed = PeriscopeFeed::new(vec![lg(60)], vec![pfx("10.0.0.0/23")], &mut rng);
        feed.monitor_prefix(pfx("192.0.2.0/24"));
        feed.monitor_prefix(pfx("192.0.2.0/24")); // idempotent
        let at = feed.next_poll(SimTime::ZERO).unwrap();
        let evs = feed.poll(at, &view(), &mut rng);
        assert!(evs.iter().any(|e| e.prefix == pfx("192.0.2.0/24")));
    }

    #[test]
    fn empty_lg_set_never_polls() {
        let mut rng = SimRng::new(5);
        let feed = PeriscopeFeed::new(vec![], vec![pfx("10.0.0.0/23")], &mut rng);
        assert_eq!(feed.next_poll(SimTime::ZERO), None);
        assert_eq!(feed.lg_count(), 0);
    }
}
