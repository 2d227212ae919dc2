//! Pre-ring feed filtering: decide whether an event is interesting
//! *before* it enters a live feed's backpressure ring.
//!
//! A [`FeedFilter`] is a serializable conjunction of predicate
//! dimensions (prefix, origin, vantage/peer, time window). Within a
//! dimension the listed values are alternatives (OR); across
//! dimensions all constraints must hold (AND); an empty dimension is a
//! wildcard. A [`crate::BmpLiveFeed`] evaluates its configured filter
//! (`LiveFeedConfig::filter`) on the socket reader thread, so rejected
//! updates never enter the ring. Rejections are counted as
//! `dropped_events` in [`crate::FeedLag`] — filtered load is shed
//! load, and operators should see it.

#![deny(missing_docs)]

use crate::event::FeedEvent;
use artemis_bgp::{Asn, Prefix};
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// A serializable event predicate, evaluated pre-ring.
///
/// The default value ([`FeedFilter::any`]) matches everything.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedFilter {
    /// Keep events whose prefix overlaps one of these (either
    /// direction: a sub-prefix hijack announces a *more specific* of a
    /// watched prefix, so covering and covered prefixes both match).
    /// Empty = any prefix.
    pub prefixes: Vec<Prefix>,
    /// Keep events whose origin AS is one of these. Withdrawals have
    /// no origin and pass this dimension. Empty = any origin.
    pub origins: Vec<Asn>,
    /// Keep events observed by one of these vantage/peer ASes.
    /// Empty = any vantage.
    pub vantages: Vec<Asn>,
    /// Keep events whose `observed_at` lies in `[start, end)`.
    /// `None` = any time.
    pub window: Option<(SimTime, SimTime)>,
}

impl FeedFilter {
    /// The match-everything filter.
    pub fn any() -> Self {
        FeedFilter::default()
    }

    /// Add a prefix alternative (overlap match, see [`FeedFilter::prefixes`]).
    pub fn prefix(mut self, p: Prefix) -> Self {
        self.prefixes.push(p);
        self
    }

    /// Add an origin-AS alternative.
    pub fn origin(mut self, asn: Asn) -> Self {
        self.origins.push(asn);
        self
    }

    /// Add a vantage-AS alternative.
    pub fn vantage(mut self, asn: Asn) -> Self {
        self.vantages.push(asn);
        self
    }

    /// Restrict to events observed within `[start, end)`.
    pub fn window(mut self, start: SimTime, end: SimTime) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Evaluate the predicate against one event.
    pub fn matches(&self, ev: &FeedEvent) -> bool {
        self.matches_parts(ev.prefix, ev.origin_as, ev.vantage, ev.observed_at)
    }

    /// The predicate on the four fields it reads: what the live reader
    /// calls on an event before it is a [`FeedEvent`].
    pub(crate) fn matches_parts(
        &self,
        prefix: Prefix,
        origin_as: Option<Asn>,
        vantage: Asn,
        observed_at: SimTime,
    ) -> bool {
        if !self.prefixes.is_empty() && !self.prefixes.iter().any(|p| p.overlaps(prefix)) {
            return false;
        }
        if !self.origins.is_empty() {
            // Withdrawals carry no origin: they pass, because a
            // withdrawal of a watched route is always interesting.
            if let Some(origin) = origin_as {
                if !self.origins.contains(&origin) {
                    return false;
                }
            }
        }
        if !self.vantages.is_empty() && !self.vantages.contains(&vantage) {
            return false;
        }
        if let Some((start, end)) = self.window {
            if observed_at < start || observed_at >= end {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FeedKind;
    use artemis_bgp::AsPath;
    use std::str::FromStr;

    fn event(prefix: &str, origin: Option<u32>, vantage: u32, observed_secs: u64) -> FeedEvent {
        FeedEvent::new(
            SimTime::from_secs(observed_secs + 1),
            SimTime::from_secs(observed_secs),
            FeedKind::BmpLive,
            Asn(vantage),
            Prefix::from_str(prefix).unwrap(),
            origin.map(|o| AsPath::from_sequence([vantage, o])).as_ref(),
            origin.map(Asn),
        )
    }

    #[test]
    fn default_matches_everything() {
        let f = FeedFilter::any();
        assert!(f.matches(&event("10.0.0.0/24", Some(666), 174, 5)));
        assert!(f.matches(&event("203.0.113.0/24", None, 1, 0)));
    }

    #[test]
    fn prefix_dimension_matches_overlap_both_directions() {
        let f = FeedFilter::any().prefix(Prefix::from_str("10.0.0.0/23").unwrap());
        // Exact, more-specific (the hijack case), and covering all match.
        assert!(f.matches(&event("10.0.0.0/23", Some(1), 174, 0)));
        assert!(f.matches(&event("10.0.0.0/24", Some(1), 174, 0)));
        assert!(f.matches(&event("10.0.0.0/8", Some(1), 174, 0)));
        // Disjoint does not.
        assert!(!f.matches(&event("10.0.2.0/24", Some(1), 174, 0)));
        assert!(!f.matches(&event("192.0.2.0/24", Some(1), 174, 0)));
    }

    #[test]
    fn dimensions_are_anded_alternatives_are_ored() {
        let f = FeedFilter::any()
            .prefix(Prefix::from_str("10.0.0.0/23").unwrap())
            .origin(Asn(65001))
            .origin(Asn(666))
            .vantage(Asn(174));
        assert!(f.matches(&event("10.0.0.0/24", Some(666), 174, 0)));
        assert!(f.matches(&event("10.0.0.0/24", Some(65001), 174, 0)));
        assert!(
            !f.matches(&event("10.0.0.0/24", Some(65001), 3356, 0)),
            "wrong vantage"
        );
        assert!(
            !f.matches(&event("10.0.0.0/24", Some(7), 174, 0)),
            "wrong origin"
        );
        assert!(
            !f.matches(&event("172.16.0.0/24", Some(666), 174, 0)),
            "wrong prefix"
        );
    }

    #[test]
    fn withdrawals_pass_the_origin_dimension() {
        let f = FeedFilter::any().origin(Asn(65001));
        assert!(f.matches(&event("10.0.0.0/24", None, 174, 0)));
    }

    #[test]
    fn window_is_half_open_on_observed_at() {
        let f = FeedFilter::any().window(SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!f.matches(&event("10.0.0.0/24", Some(1), 174, 9)));
        assert!(
            f.matches(&event("10.0.0.0/24", Some(1), 174, 10)),
            "start inclusive"
        );
        assert!(f.matches(&event("10.0.0.0/24", Some(1), 174, 19)));
        assert!(
            !f.matches(&event("10.0.0.0/24", Some(1), 174, 20)),
            "end exclusive"
        );
    }

    #[test]
    fn filters_round_trip_through_json() {
        let f = FeedFilter::any()
            .prefix(Prefix::from_str("10.0.0.0/23").unwrap())
            .origin(Asn(65001))
            .window(SimTime::from_secs(1), SimTime::from_secs(2));
        let json = serde_json::to_string(&f).unwrap();
        let back: FeedFilter = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
        let wild: FeedFilter =
            serde_json::from_str(&serde_json::to_string(&FeedFilter::any()).unwrap()).unwrap();
        assert_eq!(wild, FeedFilter::any());
    }
}
