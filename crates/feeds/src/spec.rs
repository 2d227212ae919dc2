//! Serializable feed descriptions for wire-level feed attachment.
//!
//! `ServiceCommand::AttachFeed` used to carry a `Box<dyn FeedSource>`,
//! which made the command type impossible to serialize — a daemon
//! cannot accept "a trait object" over HTTP. A [`FeedSpec`] is the
//! wire-ready replacement: a plain description of a runtime-attachable
//! feed that [`FeedSpec::build`] turns into the real [`FeedSource`] on
//! the receiving side. Both the in-process API and the HTTP API attach
//! feeds through the same spec, so the two paths construct identical
//! feeds by construction.
//!
//! Stream feeds (RIS-live / BGPmon style) and live BMP wire sessions
//! are attachable at runtime through a spec: archive, periscope, and
//! MRT-replay feeds need engine views or raw archive bytes that do not
//! travel over a control-plane API — drivers attach those at assembly
//! time via `Pipeline::attach_feed`.

use crate::filter::FeedFilter;
use crate::live::{BmpLiveFeed, LiveFeedConfig};
use crate::stream::StreamFeed;
use crate::vantage::group_into_collectors;
use crate::FeedSource;
use artemis_bgp::Asn;
use artemis_simnet::LatencyModel;
use serde::{Deserialize, Serialize};

/// A serializable description of a runtime-attachable feed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeedSpec {
    /// A RIS-live style streaming feed.
    RisLive {
        /// Collector-name prefix (`rrc` produces `rrc00`, `rrc01`, …).
        collector_prefix: String,
        /// Vantage-point ASes distributed round-robin over collectors.
        vantage_points: Vec<Asn>,
        /// Number of collector groups (min 1).
        collectors: usize,
        /// Constant export delay in seconds; `None` keeps the feed
        /// preset's default delay model.
        export_delay_secs: Option<u64>,
    },
    /// A BGPmon style streaming feed.
    BgpMon {
        /// Collector-name prefix.
        collector_prefix: String,
        /// Vantage-point ASes distributed round-robin over collectors.
        vantage_points: Vec<Asn>,
        /// Number of collector groups (min 1).
        collectors: usize,
        /// Constant export delay in seconds; `None` keeps the default.
        export_delay_secs: Option<u64>,
    },
    /// A live RFC 7854 BMP session off a real TCP socket.
    BmpLive {
        /// Feed instance name (also the reported collector name).
        name: String,
        /// Collector address (`host:port`) the feed dials; the reader
        /// thread retries until the collector accepts.
        addr: String,
        /// Backpressure ring capacity in events; `None` keeps the
        /// [`LiveFeedConfig`] default.
        ring_capacity: Option<usize>,
        /// Pre-ring filter evaluated on the reader thread; `None`
        /// keeps everything.
        filter: Option<FeedFilter>,
    },
}

impl FeedSpec {
    /// Shorthand for a single-collector RIS-live spec with the default
    /// delay model.
    pub fn ris_live(collector_prefix: impl Into<String>, vantage_points: Vec<Asn>) -> Self {
        FeedSpec::RisLive {
            collector_prefix: collector_prefix.into(),
            vantage_points,
            collectors: 1,
            export_delay_secs: None,
        }
    }

    /// Shorthand for a single-collector BGPmon spec with the default
    /// delay model.
    pub fn bgpmon(collector_prefix: impl Into<String>, vantage_points: Vec<Asn>) -> Self {
        FeedSpec::BgpMon {
            collector_prefix: collector_prefix.into(),
            vantage_points,
            collectors: 1,
            export_delay_secs: None,
        }
    }

    /// Construct the described feed. Deterministic: equal specs build
    /// feeds with identical behaviour, which is what makes the HTTP
    /// attach path lossless against the in-process one.
    pub fn build(&self) -> Box<dyn FeedSource> {
        match self {
            FeedSpec::RisLive {
                collector_prefix,
                vantage_points,
                collectors,
                export_delay_secs,
            } => {
                let mut feed = StreamFeed::ris_live(group_into_collectors(
                    collector_prefix,
                    vantage_points,
                    (*collectors).max(1),
                ));
                if let Some(s) = export_delay_secs {
                    feed = feed.with_export_delay(LatencyModel::const_secs(*s));
                }
                Box::new(feed)
            }
            FeedSpec::BgpMon {
                collector_prefix,
                vantage_points,
                collectors,
                export_delay_secs,
            } => {
                let mut feed = StreamFeed::bgpmon(group_into_collectors(
                    collector_prefix,
                    vantage_points,
                    (*collectors).max(1),
                ));
                if let Some(s) = export_delay_secs {
                    feed = feed.with_export_delay(LatencyModel::const_secs(*s));
                }
                Box::new(feed)
            }
            FeedSpec::BmpLive {
                name,
                addr,
                ring_capacity,
                filter,
            } => {
                let mut config = LiveFeedConfig {
                    filter: filter.clone(),
                    ..LiveFeedConfig::default()
                };
                if let Some(cap) = ring_capacity {
                    config.ring_capacity = *cap;
                }
                Box::new(BmpLiveFeed::connect(name.clone(), addr.clone(), config))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeedKind;

    #[test]
    fn specs_build_the_described_feed() {
        let spec = FeedSpec::ris_live("rrc", vec![Asn(174), Asn(3356)]);
        let feed = spec.build();
        assert_eq!(feed.kind(), FeedKind::RisLive);
        let spec = FeedSpec::BgpMon {
            collector_prefix: "bmp".into(),
            vantage_points: vec![Asn(174)],
            collectors: 2,
            export_delay_secs: Some(5),
        };
        assert_eq!(spec.build().kind(), FeedKind::BgpMon);
    }

    #[test]
    fn bmp_live_spec_builds_a_connecting_feed() {
        let spec = FeedSpec::BmpLive {
            name: "bmp0".into(),
            addr: "127.0.0.1:1".into(), // nothing listens: stays in retry
            ring_capacity: Some(64),
            filter: Some(FeedFilter::any().origin(Asn(65001))),
        };
        let feed = spec.build();
        assert_eq!(feed.kind(), FeedKind::BmpLive);
        assert_eq!(feed.name(), "bmp0");
        assert_eq!(feed.dropped_events(), 0);
        // Dropping the boxed feed terminates the connect-retry thread.
        drop(feed);

        let json = serde_json::to_string(&spec).unwrap();
        let back: FeedSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = FeedSpec::RisLive {
            collector_prefix: "rrc".into(),
            vantage_points: vec![Asn(174), Asn(3356)],
            collectors: 3,
            export_delay_secs: Some(7),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FeedSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn equal_specs_build_identical_feeds() {
        use artemis_simnet::SimRng;
        let spec = FeedSpec::ris_live("rrc", vec![Asn(174)]);
        let mut a = spec.build();
        let mut b = spec.build();
        let change = artemis_bgp::RouteChange {
            time: artemis_simnet::SimTime::from_secs(10),
            asn: Asn(174),
            prefix: "10.0.0.0/23".parse().unwrap(),
            old: None,
            new: Some(artemis_bgp::BestRoute {
                as_path: artemis_bgp::AsPath::from_sequence([3356u32, 65001]),
                origin_as: Asn(65001),
                neighbor: Some(Asn(3356)),
                learned_from: Some(artemis_bgp::RelKind::Provider),
                local_pref: 100,
            }),
        };
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        a.on_route_change_into(&change, &mut SimRng::new(5), &mut ea);
        b.on_route_change_into(&change, &mut SimRng::new(5), &mut eb);
        assert_eq!(ea, eb);
    }
}
