//! Shared types for the propagation engine.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_simnet::{FaultInjector, LatencyModel, SimDuration};

/// Defined in [`artemis_bgp::route`] so feeds need no simulator.
pub use artemis_bgp::{BestRoute, RouteChange};

/// Engine timing/fault configuration.
///
/// Defaults implement the calibration in DESIGN.md §4: tens of
/// milliseconds per hop, 30 s jittered MRAI per eBGP session, no faults.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-message router processing delay.
    pub processing_delay: LatencyModel,
    /// Per-link propagation delay.
    pub link_delay: LatencyModel,
    /// Base Min Route Advertisement Interval per eBGP session.
    pub mrai: SimDuration,
    /// MRAI jitter range as fractions of `mrai` (RFC 4271 suggests
    /// 0.75–1.0).
    pub mrai_jitter: (f64, f64),
    /// Fraction of sessions that apply MRAI to the *first* advertisement
    /// of a prefix as well (out-delay style batching routers). The rest
    /// only rate-limit subsequent changes.
    pub mrai_on_first: f64,
    /// Message-level fault injection on every session.
    pub faults: FaultInjector,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processing_delay: LatencyModel::Exponential {
                mean: SimDuration::from_millis(150),
            },
            link_delay: LatencyModel::uniform_millis(10, 60),
            mrai: SimDuration::from_secs(30),
            mrai_jitter: (0.75, 1.0),
            mrai_on_first: 0.25,
            faults: FaultInjector::none(),
        }
    }
}

impl SimConfig {
    /// A configuration with zero delays and no MRAI — propagation in
    /// zero virtual time, useful for pure reachability tests.
    pub fn instantaneous() -> Self {
        SimConfig {
            processing_delay: LatencyModel::zero(),
            link_delay: LatencyModel::zero(),
            mrai: SimDuration::ZERO,
            mrai_jitter: (1.0, 1.0),
            mrai_on_first: 0.0,
            faults: FaultInjector::none(),
        }
    }
}

/// One per-prefix message on a session (the engine's unit of delivery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Msg {
    Announce {
        prefix: Prefix,
        path: AsPath,
        origin_as: Asn,
    },
    Withdraw {
        prefix: Prefix,
    },
}

impl Msg {
    pub(crate) fn prefix(&self) -> Prefix {
        match self {
            Msg::Announce { prefix, .. } | Msg::Withdraw { prefix } => *prefix,
        }
    }
}

/// Events on the engine's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    /// Deliver a message from one speaker to another.
    Deliver { from: Asn, to: Asn, msg: Msg },
    /// A session's MRAI timer fired; flush pending advertisements.
    MraiExpire { from: Asn, to: Asn },
    /// Apply a local origination/withdrawal at its scheduled time.
    /// `forged_path` lets an attacker originate with a fabricated
    /// AS_PATH (Type-1 / forged-origin hijacks); `None` = honest
    /// origination.
    Originate {
        asn: Asn,
        prefix: Prefix,
        announce: bool,
        forged_path: Option<AsPath>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::RelKind;
    use artemis_simnet::SimTime;
    use std::str::FromStr;

    #[test]
    fn default_config_is_calibrated() {
        let c = SimConfig::default();
        assert_eq!(c.mrai, SimDuration::from_secs(30));
        assert!(c.mrai_jitter.0 <= c.mrai_jitter.1);
        assert!(c.faults.is_noop());
    }

    #[test]
    fn instantaneous_config_is_zero() {
        let c = SimConfig::instantaneous();
        let mut rng = artemis_simnet::SimRng::new(1);
        assert_eq!(c.processing_delay.sample(&mut rng), SimDuration::ZERO);
        assert_eq!(c.link_delay.sample(&mut rng), SimDuration::ZERO);
        assert!(c.mrai.is_zero());
    }

    #[test]
    fn msg_prefix_accessor() {
        let p = Prefix::from_str("10.0.0.0/24").unwrap();
        assert_eq!(Msg::Withdraw { prefix: p }.prefix(), p);
        let a = Msg::Announce {
            prefix: p,
            path: AsPath::from_sequence([1u32]),
            origin_as: Asn(1),
        };
        assert_eq!(a.prefix(), p);
    }

    #[test]
    fn route_change_origin_accessor() {
        let p = Prefix::from_str("10.0.0.0/24").unwrap();
        let rc = RouteChange {
            time: SimTime::ZERO,
            asn: Asn(1),
            prefix: p,
            old: None,
            new: Some(BestRoute {
                as_path: AsPath::from_sequence([2u32, 3]),
                origin_as: Asn(3),
                neighbor: Some(Asn(2)),
                learned_from: Some(RelKind::Provider),
                local_pref: 100,
            }),
        };
        assert_eq!(rc.new_origin(), Some(Asn(3)));
    }
}
