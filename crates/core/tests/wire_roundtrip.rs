//! Round-trip property tests locking the wire contract: every
//! [`ServiceCommand`], [`CommandOutcome`], and [`ServiceError`] the
//! in-process API can produce survives JSON serialization unchanged,
//! wrapped in the versioned envelopes the daemon speaks, and so does
//! every v2 inject event. A lossy wire layer would show up here as a
//! failed equality, not as a silent behavioural drift in the daemon.

use artemis_bgp::aspath::Segment;
use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_core::pipeline::OffboardReport;
use artemis_core::wire::{
    CommandEnvelope, CommandResult, InjectEnvelope, OutcomeEnvelope, QueryEnvelope, SCHEMA_VERSION,
};
use artemis_core::{
    AlertId, CommandOutcome, MitigationPlan, MitigationPolicy, OwnedPrefix, ServiceCommand,
    ServiceError, ServiceQuery,
};
use artemis_feeds::{FeedEvent, FeedHandle, FeedKind, FeedSpec, WireFeedEvent};
use artemis_simnet::SimTime;
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u8..=24u8, any::<u32>()).prop_map(|(len, bits)| {
        let masked = if len == 0 {
            0
        } else {
            bits & (u32::MAX << (32 - len))
        };
        let octets = masked.to_be_bytes();
        format!(
            "{}.{}.{}.{}/{}",
            octets[0], octets[1], octets[2], octets[3], len
        )
        .parse()
        .expect("masked prefix is valid")
    })
}

fn arb_asn() -> impl Strategy<Value = Asn> {
    (1u32..100_000).prop_map(Asn)
}

fn arb_handle() -> impl Strategy<Value = FeedHandle> {
    // FeedHandle's constructor is the hub; the wire representation is
    // its bare id, so an arbitrary handle deserializes from a number.
    any::<u64>().prop_map(|n| serde_json::from_str(&n.to_string()).expect("bare id"))
}

fn arb_policy() -> impl Strategy<Value = MitigationPolicy> {
    prop_oneof![
        Just(MitigationPolicy::Auto),
        Just(MitigationPolicy::ConfirmFirst),
        Just(MitigationPolicy::DetectOnly),
    ]
}

fn arb_owned() -> impl Strategy<Value = OwnedPrefix> {
    (
        arb_prefix(),
        arb_asn(),
        prop::collection::vec(arb_asn(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(prefix, origin, neighbors, dormant)| {
            let mut owned = OwnedPrefix::new(prefix, origin).with_neighbors(neighbors);
            if dormant {
                owned = owned.dormant();
            }
            owned
        })
}

fn arb_feed_spec() -> impl Strategy<Value = FeedSpec> {
    (
        "[a-z]{2,6}",
        prop::collection::vec(arb_asn(), 1..5),
        1usize..4,
        prop::option::of(0u64..120),
        any::<bool>(),
    )
        .prop_map(|(prefix, vps, collectors, delay, ris)| {
            if ris {
                FeedSpec::RisLive {
                    collector_prefix: prefix,
                    vantage_points: vps,
                    collectors,
                    export_delay_secs: delay,
                }
            } else {
                FeedSpec::BgpMon {
                    collector_prefix: prefix,
                    vantage_points: vps,
                    collectors,
                    export_delay_secs: delay,
                }
            }
        })
}

fn arb_command() -> impl Strategy<Value = ServiceCommand> {
    prop_oneof![
        (arb_owned(), prop::option::of(arb_policy()))
            .prop_map(|(owned, policy)| ServiceCommand::AddOwnedPrefix { owned, policy }),
        arb_prefix().prop_map(|prefix| ServiceCommand::RemoveOwnedPrefix { prefix }),
        arb_feed_spec().prop_map(|feed| ServiceCommand::AttachFeed { feed }),
        arb_handle().prop_map(|handle| ServiceCommand::DetachFeed { handle }),
        (arb_prefix(), arb_policy())
            .prop_map(|(prefix, policy)| ServiceCommand::SetMitigationPolicy { prefix, policy }),
        any::<u64>().prop_map(|n| ServiceCommand::ConfirmMitigation { alert: AlertId(n) }),
        Just(ServiceCommand::Pause),
        Just(ServiceCommand::Resume),
    ]
}

fn arb_plan() -> impl Strategy<Value = MitigationPlan> {
    (
        arb_prefix(),
        prop::collection::vec(arb_prefix(), 0..3),
        prop::collection::vec((arb_asn(), arb_prefix()), 0..3),
        any::<bool>(),
        "[ -~]{0,40}",
    )
        .prop_map(
            |(target, announce, helper_announce, infeasible, rationale)| MitigationPlan {
                target,
                announce,
                helper_announce,
                infeasible,
                rationale,
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = CommandOutcome> {
    prop_oneof![
        arb_prefix().prop_map(|prefix| CommandOutcome::PrefixAdded { prefix }),
        (
            arb_owned(),
            prop::collection::vec(any::<u64>(), 0..4),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(owned, alerts, withdrawn, shard)| {
                CommandOutcome::PrefixRemoved(OffboardReport {
                    owned,
                    closed_alerts: alerts.into_iter().map(AlertId).collect(),
                    withdrawn_plans: withdrawn as usize,
                    shard_events: shard,
                })
            }),
        arb_handle().prop_map(|handle| CommandOutcome::FeedAttached { handle }),
        (arb_handle(), any::<u32>()).prop_map(|(handle, n)| CommandOutcome::FeedDetached {
            handle,
            dropped_events: n as usize,
        }),
        (arb_prefix(), arb_policy())
            .prop_map(|(prefix, policy)| CommandOutcome::PolicySet { prefix, policy }),
        (any::<u64>(), arb_plan()).prop_map(|(n, plan)| CommandOutcome::MitigationConfirmed {
            alert: AlertId(n),
            plan,
        }),
        Just(CommandOutcome::Paused),
        prop::collection::vec(any::<u64>(), 0..4).prop_map(|alerts| CommandOutcome::Resumed {
            executed_alerts: alerts.into_iter().map(AlertId).collect(),
        }),
    ]
}

fn arb_error() -> impl Strategy<Value = ServiceError> {
    prop_oneof![
        arb_prefix().prop_map(ServiceError::UnknownPrefix),
        arb_prefix().prop_map(ServiceError::DuplicatePrefix),
        arb_handle().prop_map(ServiceError::UnknownFeed),
        any::<u64>().prop_map(|n| ServiceError::NothingPending(AlertId(n))),
        Just(ServiceError::AlreadyPaused),
        Just(ServiceError::NotPaused),
    ]
}

/// A v2 wire event: any collector name, a path of sequences and sets
/// (or a withdrawal), a stated origin or none.
fn arb_wire_event() -> impl Strategy<Value = WireFeedEvent> {
    let segment =
        (any::<bool>(), prop::collection::vec(arb_asn(), 1..4)).prop_map(|(set, asns)| {
            if set {
                Segment::Set(asns)
            } else {
                Segment::Sequence(asns)
            }
        });
    (
        (0u64..1_000_000, 0u64..1_000_000, arb_asn(), arb_prefix()),
        "[a-z0-9]{0,8}",
        prop::option::of(prop::collection::vec(segment, 0..4)),
        prop::option::of(arb_asn()),
        prop::option::of("[a-z]{0,8}"),
    )
        .prop_map(
            |((t, delay, vantage, prefix), collector, segments, origin_as, raw)| WireFeedEvent {
                emitted_at: SimTime::from_micros(t + delay),
                observed_at: SimTime::from_micros(t),
                source: FeedKind::RisLive,
                collector,
                vantage,
                prefix,
                as_path: segments.map(AsPath::from_segments),
                origin_as,
                raw,
            },
        )
}

proptest! {
    /// Every command survives the command envelope byte-exactly.
    #[test]
    fn commands_round_trip(cmd in arb_command(), at in prop::option::of(0u64..1_000_000)) {
        let mut env = CommandEnvelope::new(cmd);
        if let Some(t) = at {
            env = env.at(SimTime::from_secs(t));
        }
        let json = serde_json::to_string(&env).expect("serialize");
        let back: CommandEnvelope = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back.schema_version, SCHEMA_VERSION);
        prop_assert_eq!(back, env);
    }

    /// Every outcome and every typed rejection survive the outcome
    /// envelope byte-exactly.
    #[test]
    fn outcomes_round_trip(
        result in prop_oneof![arb_outcome().prop_map(Ok), arb_error().prop_map(Err)],
        at in 0u64..1_000_000,
    ) {
        let env = OutcomeEnvelope::new(SimTime::from_secs(at), result.clone());
        let json = serde_json::to_string(&env).expect("serialize");
        let back: OutcomeEnvelope = serde_json::from_str(&json).expect("deserialize");
        match (back.result, result) {
            (CommandResult::Outcome(b), Ok(o)) => prop_assert_eq!(b, o),
            (CommandResult::Rejected(b), Err(e)) => prop_assert_eq!(b, e),
            (got, want) => prop_assert!(false, "variant mismatch: {got:?} vs {want:?}"),
        }
    }

    /// Queries round-trip through their envelope.
    #[test]
    fn queries_round_trip(
        query in prop_oneof![
            Just(ServiceQuery::Status),
            Just(ServiceQuery::OwnedPrefixes),
            Just(ServiceQuery::Incidents),
            Just(ServiceQuery::Feeds),
        ],
    ) {
        let env = QueryEnvelope::new(query);
        let json = serde_json::to_string(&env).expect("serialize");
        let back: QueryEnvelope = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, env);
    }

    /// Inject events survive their envelope unchanged, collector and
    /// full path included, and convert to the same feed events after
    /// the trip as before it.
    #[test]
    fn inject_events_round_trip(events in prop::collection::vec(arb_wire_event(), 0..4)) {
        let env = InjectEnvelope::new(events);
        let json = serde_json::to_string(&env).expect("serialize");
        let back: InjectEnvelope = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back.schema_version, SCHEMA_VERSION);
        prop_assert_eq!(&back, &env);
        let converted = |env: InjectEnvelope| -> Vec<FeedEvent> {
            env.events.into_iter().map(FeedEvent::from).collect()
        };
        prop_assert_eq!(converted(back), converted(env));
    }
}
