//! The streaming JSON codec held to its model, the `Value` tree.
//!
//! `serde_json::to_string` writes straight from a type's `Serialize`
//! calls and `from_str` hands tokens from the input straight to its
//! `Deserialize`; `to_value` / `from_value` go through a [`Value`]
//! instead. Over generated wire envelopes, with strings drawn from
//! every escape class, control and non-BMP characters included:
//!
//! * the text written equals the tree's rendering;
//! * the text reads back as the value written;
//! * reading a type straight from text agrees with reading the text as
//!   a `Value` and the type from that, on the written text and on
//!   edited copies of it (unknown fields, duplicate keys, bytes
//!   replaced, text cut short): same value, or an error on both paths;
//! * arbitrary bytes never panic the parser.
//!
//! A counting allocator pins what the streaming paths allocate for an
//! 8-event `EventsEnvelope`: writing it, only the output `String`'s
//! growth; reading it, only the `Vec`s and `String`s the value owns.

use artemis_bgp::aspath::Segment;
use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_controller::IntentKind;
use artemis_core::pipeline::OffboardReport;
use artemis_core::wire::{
    CommandEnvelope, CommandResult, EventsEnvelope, InjectEnvelope, OutcomeEnvelope, SCHEMA_VERSION,
};
use artemis_core::{
    AlertId, CommandOutcome, EventCursor, HijackType, IncidentEvent, MitigationPlan,
    MitigationPolicy, OwnedPrefix, ServiceCommand, ServiceError,
};
use artemis_feeds::{FeedHandle, FeedKind, FeedSpec, WireFeedEvent};
use artemis_simnet::SimTime;
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// One character from each class a JSON string treats differently:
/// the two-character escapes, the other control characters (written
/// `\u00XX`), plain ASCII, DEL, multi-byte BMP characters, and
/// characters outside the BMP (four UTF-8 bytes; a surrogate pair when
/// escaped).
fn arb_char() -> impl Strategy<Value = char> {
    let pick = |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).expect("scalar value"));
    prop_oneof![
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('/'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\u{8}'),
            Just('\u{c}'),
        ],
        pick(0, 0x20),
        pick(0x20, 0x7f),
        prop_oneof![
            Just('\u{7f}'),
            Just('é'),
            Just('€'),
            Just('\u{2028}'),
            Just('\u{fffd}')
        ],
        pick(0x10000, 0x110000),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..10).prop_map(|cs| cs.into_iter().collect())
}

/// An IPv4 prefix, or an IPv6 one under 2001:db8::/32 (`new` clears
/// the host bits).
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u8..=32u8, any::<u32>(), any::<bool>()).prop_map(|(len, bits, v6)| {
        let addr = if v6 {
            let [a, b, c, d] = bits.to_be_bytes();
            IpAddr::V6(Ipv6Addr::new(
                0x2001,
                0xdb8,
                u16::from_be_bytes([a, b]),
                u16::from_be_bytes([c, d]),
                0,
                0,
                0,
                0,
            ))
        } else {
            IpAddr::V4(Ipv4Addr::from(bits))
        };
        let len = if v6 { 32 + len } else { len };
        Prefix::new(addr, len).expect("valid length")
    })
}

fn arb_asn() -> impl Strategy<Value = Asn> {
    any::<u32>().prop_map(Asn)
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime::from_micros)
}

/// Wire forms that only a hub or a log hands out are built from their
/// bare number, as a client would.
fn arb_handle() -> impl Strategy<Value = FeedHandle> {
    any::<u64>().prop_map(|n| serde_json::from_str(&n.to_string()).expect("bare id"))
}

fn arb_cursor() -> impl Strategy<Value = EventCursor> {
    any::<u64>().prop_map(|n| serde_json::from_str(&n.to_string()).expect("bare sequence"))
}

fn arb_alert() -> impl Strategy<Value = AlertId> {
    any::<u64>().prop_map(AlertId)
}

fn arb_alerts() -> impl Strategy<Value = Vec<AlertId>> {
    prop::collection::vec(arb_alert(), 0..4)
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
            let owned = OwnedPrefix::new(prefix, origin).with_neighbors(neighbors);
            if dormant {
                owned.dormant()
            } else {
                owned
            }
        })
}

fn arb_feed_spec() -> impl Strategy<Value = FeedSpec> {
    (
        arb_text(),
        prop::collection::vec(arb_asn(), 1..4),
        1usize..4,
        prop::option::of(any::<u64>()),
        any::<bool>(),
    )
        .prop_map(
            |(collector_prefix, vantage_points, collectors, delay, ris)| {
                if ris {
                    FeedSpec::RisLive {
                        collector_prefix,
                        vantage_points,
                        collectors,
                        export_delay_secs: delay,
                    }
                } else {
                    FeedSpec::BgpMon {
                        collector_prefix,
                        vantage_points,
                        collectors,
                        export_delay_secs: delay,
                    }
                }
            },
        )
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
        arb_text(),
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
        (arb_owned(), arb_alerts(), any::<u32>(), any::<u64>()).prop_map(
            |(owned, closed_alerts, withdrawn, shard_events)| {
                CommandOutcome::PrefixRemoved(OffboardReport {
                    owned,
                    closed_alerts,
                    withdrawn_plans: withdrawn as usize,
                    shard_events,
                })
            }
        ),
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
        arb_alerts().prop_map(|executed_alerts| CommandOutcome::Resumed { executed_alerts }),
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

fn arb_hijack_type() -> impl Strategy<Value = HijackType> {
    prop_oneof![
        Just(HijackType::ExactOrigin),
        Just(HijackType::SubPrefix),
        Just(HijackType::SubPrefixForgedOrigin),
        Just(HijackType::Type1FakeNeighbor),
        Just(HijackType::Squatting),
    ]
}

fn arb_incident_event() -> impl Strategy<Value = IncidentEvent> {
    prop_oneof![
        (
            arb_alert(),
            arb_prefix(),
            arb_prefix(),
            arb_hijack_type(),
            arb_time()
        )
            .prop_map(|(alert, owned_prefix, observed_prefix, hijack_type, at)| {
                IncidentEvent::AlertRaised {
                    alert,
                    owned_prefix,
                    observed_prefix,
                    hijack_type,
                    at,
                }
            }),
        (arb_alert(), arb_plan(), arb_time())
            .prop_map(|(alert, plan, at)| IncidentEvent::MitigationPending { alert, plan, at }),
        (arb_alert(), arb_plan(), arb_time())
            .prop_map(|(alert, plan, at)| IncidentEvent::MitigationTriggered { alert, plan, at }),
        (arb_alert(), arb_time()).prop_map(|(alert, at)| IncidentEvent::Resolved { alert, at }),
        (any::<bool>(), arb_prefix(), arb_time()).prop_map(|(announce, prefix, at)| {
            IncidentEvent::ControllerApplied {
                kind: if announce {
                    IntentKind::Announce
                } else {
                    IntentKind::Withdraw
                },
                prefix,
                at,
            }
        }),
        (arb_prefix(), arb_time())
            .prop_map(|(prefix, at)| IncidentEvent::PrefixOnboarded { prefix, at }),
        (arb_prefix(), arb_alerts(), arb_time()).prop_map(|(prefix, closed_alerts, at)| {
            IncidentEvent::PrefixOffboarded {
                prefix,
                closed_alerts,
                at,
            }
        }),
        (arb_handle(), arb_time())
            .prop_map(|(handle, at)| IncidentEvent::FeedAttached { handle, at }),
        (arb_handle(), any::<u32>(), arb_time()).prop_map(|(handle, n, at)| {
            IncidentEvent::FeedDetached {
                handle,
                dropped_events: n as usize,
                at,
            }
        }),
        (arb_prefix(), arb_policy(), arb_time())
            .prop_map(|(prefix, policy, at)| IncidentEvent::PolicyChanged { prefix, policy, at }),
        arb_time().prop_map(|at| IncidentEvent::MitigationPaused { at }),
        (arb_alerts(), arb_time()).prop_map(|(executed_alerts, at)| {
            IncidentEvent::MitigationResumed {
                executed_alerts,
                at,
            }
        }),
    ]
}

fn arb_command_envelope() -> impl Strategy<Value = CommandEnvelope> {
    (any::<u32>(), prop::option::of(arb_time()), arb_command()).prop_map(
        |(schema_version, at, command)| CommandEnvelope {
            schema_version,
            at,
            command,
        },
    )
}

fn arb_outcome_envelope() -> impl Strategy<Value = OutcomeEnvelope> {
    let result = prop_oneof![
        arb_outcome().prop_map(CommandResult::Outcome),
        arb_error().prop_map(CommandResult::Rejected),
    ];
    (any::<u32>(), arb_time(), result).prop_map(|(schema_version, at, result)| OutcomeEnvelope {
        schema_version,
        at,
        result,
    })
}

/// A v2 wire event: a path of sequences and sets (or a withdrawal), a
/// stated origin or none, and free text in the collector and `raw`.
fn arb_wire_event() -> impl Strategy<Value = WireFeedEvent> {
    let segment =
        (any::<bool>(), prop::collection::vec(arb_asn(), 1..4)).prop_map(|(set, asns)| {
            if set {
                Segment::Set(asns)
            } else {
                Segment::Sequence(asns)
            }
        });
    let source = prop_oneof![
        Just(FeedKind::RisLive),
        Just(FeedKind::BgpMon),
        Just(FeedKind::MrtReplay),
    ];
    (
        (arb_time(), arb_time(), arb_asn(), arb_prefix(), source),
        arb_text(),
        prop::option::of(prop::collection::vec(segment, 0..4)),
        prop::option::of(arb_asn()),
        prop::option::of(arb_text()),
    )
        .prop_map(
            |(
                (emitted_at, observed_at, vantage, prefix, source),
                collector,
                path,
                origin_as,
                raw,
            )| {
                WireFeedEvent {
                    emitted_at,
                    observed_at,
                    source,
                    collector,
                    vantage,
                    prefix,
                    as_path: path.map(AsPath::from_segments),
                    origin_as,
                    raw,
                }
            },
        )
}

fn arb_inject_envelope() -> impl Strategy<Value = InjectEnvelope> {
    (any::<u32>(), prop::collection::vec(arb_wire_event(), 0..4)).prop_map(
        |(schema_version, events)| InjectEnvelope {
            schema_version,
            events,
        },
    )
}

fn arb_events_envelope() -> impl Strategy<Value = EventsEnvelope> {
    (
        any::<u32>(),
        prop::collection::vec(arb_incident_event(), 0..5),
        arb_cursor(),
        any::<u64>(),
    )
        .prop_map(|(schema_version, events, next, missed)| EventsEnvelope {
            schema_version,
            events,
            next,
            missed,
        })
}

/// An edit to apply to a document's text: a character replaced by a
/// JSON-significant one, or the text cut short, at a position given as
/// a fraction of its length.
fn arb_edit() -> impl Strategy<Value = (u32, char, bool)> {
    let significant = prop_oneof![
        Just('{'),
        Just('}'),
        Just('['),
        Just(']'),
        Just('"'),
        Just(','),
        Just(':'),
        Just('0'),
        Just('-'),
        Just('n'),
        Just(' '),
        Just('\\'),
    ];
    (any::<u32>(), significant, any::<bool>())
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Read `text` as a `T` straight, and through a `Value`: both must fail
/// or both give the same value.
fn agrees<T>(text: &str) -> Result<(), TestCaseError>
where
    T: DeserializeOwned + PartialEq + Debug,
{
    let direct = serde_json::from_str::<T>(text);
    let via_tree = serde_json::from_str::<Value>(text).and_then(serde_json::from_value::<T>);
    match (direct, via_tree) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "on {:?}", text),
        (Err(_), Err(_)) => {}
        (a, b) => prop_assert!(false, "paths disagree on {text:?}: {a:?} vs {b:?}"),
    }
    Ok(())
}

/// Every property for one generated value.
fn check<T>(x: &T, (at, c, cut): (u32, char, bool)) -> Result<(), TestCaseError>
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    let text = serde_json::to_string(x).expect("serialize");
    let tree = serde_json::to_value(x).expect("to_value");
    prop_assert_eq!(&text, &tree.to_string());
    let back: T = serde_json::from_str(&text).expect("reads back");
    prop_assert_eq!(&back, x);
    agrees::<T>(&text)?;

    // An unknown field (holding nested values) is skipped, and of two
    // equal keys the first wins, on both paths.
    if let Some(body) = text.strip_prefix('{') {
        let unknown = format!("{{\"zz_unknown\":{{\"a\":[1,\"\\u00e9\",{{}}]}},{body}");
        agrees::<T>(&unknown)?;
        let key_end = body.find("\":").map(|i| i + 2);
        if let Some(end) = key_end {
            let duplicated = format!("{{{}null,{body}", &body[..end]);
            agrees::<T>(&duplicated)?;
        }
    }

    let mut chars: Vec<char> = text.chars().collect();
    let i = at as usize % chars.len().max(1);
    if cut {
        chars.truncate(i);
    } else if let Some(slot) = chars.get_mut(i) {
        *slot = c;
    }
    agrees::<T>(&chars.into_iter().collect::<String>())
}

proptest! {
    #[test]
    fn incident_events_stream_as_the_tree_reads(x in arb_incident_event(), edit in arb_edit()) {
        check(&x, edit)?;
    }

    #[test]
    fn command_envelopes_stream_as_the_tree_reads(x in arb_command_envelope(), edit in arb_edit()) {
        check(&x, edit)?;
    }

    #[test]
    fn outcome_envelopes_stream_as_the_tree_reads(x in arb_outcome_envelope(), edit in arb_edit()) {
        check(&x, edit)?;
    }

    #[test]
    fn inject_envelopes_stream_as_the_tree_reads(x in arb_inject_envelope(), edit in arb_edit()) {
        check(&x, edit)?;
    }

    #[test]
    fn events_envelopes_stream_as_the_tree_reads(x in arb_events_envelope(), edit in arb_edit()) {
        check(&x, edit)?;
    }

    /// Whatever the bytes, every reader returns: no panic, no abort.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(
            prop_oneof![
                any::<u8>(),
                prop_oneof![
                    Just(b'{'), Just(b'}'), Just(b'['), Just(b']'), Just(b'"'),
                    Just(b'\\'), Just(b':'), Just(b','), Just(b'u'), Just(b'1'),
                ],
            ],
            0..96,
        ),
    ) {
        let _ = serde_json::from_slice::<Value>(&bytes);
        let _ = serde_json::from_slice::<IncidentEvent>(&bytes);
        let _ = serde_json::from_slice::<CommandEnvelope>(&bytes);
        let _ = serde_json::from_slice::<OutcomeEnvelope>(&bytes);
        let _ = serde_json::from_slice::<InjectEnvelope>(&bytes);
        let _ = serde_json::from_slice::<EventsEnvelope>(&bytes);
    }
}

#[test]
fn escapes_are_written_as_before() {
    let text = "\"\\/\n\r\t\u{8}\u{c}\u{1}\u{1f}\u{7f}é😀";
    assert_eq!(
        serde_json::to_string(text).unwrap(),
        concat!(r#""\"\\/\n\r\t\u0008\u000c\u0001\u001f"#, "\u{7f}é😀\"")
    );
    let back: String =
        serde_json::from_str(r#""\"\\\/\n\r\t\b\f\u0001\u001f\u007f\u00e9\ud83d\ude00""#).unwrap();
    assert_eq!(back, text);
}

// ---------------------------------------------------------------------
// Allocations
// ---------------------------------------------------------------------

thread_local! {
    // `const` initialisers: touching these inside the allocator cannot
    // itself allocate.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations of the thread that armed it.
struct CountingAlloc;

fn count() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), out)
}

/// Allocations a `Vec` of `n` makes growing by one push at a time from
/// empty: its first block of 4, then one per doubling.
fn vec_growth(n: usize) -> u64 {
    let (mut cap, mut allocs) = (0usize, 0u64);
    while cap < n {
        cap = (cap * 2).max(4);
        allocs += 1;
    }
    allocs
}

/// Allocations a `String` of `len` bytes makes growing from `start`
/// bytes of capacity by doubling.
fn string_growth(start: usize, len: usize) -> u64 {
    let (mut cap, mut allocs) = (start, 1u64);
    while cap < len {
        cap *= 2;
        allocs += 1;
    }
    allocs
}

/// What reading `plan` back must allocate: its vectors and its text.
fn plan_owns(plan: &MitigationPlan) -> u64 {
    vec_growth(plan.announce.len())
        + vec_growth(plan.helper_announce.len())
        + u64::from(!plan.rationale.is_empty())
}

/// What reading `env` back must allocate at most: the heap blocks the
/// value owns, with the growth of each vector.
fn envelope_owns(env: &EventsEnvelope) -> u64 {
    let events: u64 = env
        .events
        .iter()
        .map(|event| match event {
            IncidentEvent::MitigationPending { plan, .. }
            | IncidentEvent::MitigationTriggered { plan, .. } => plan_owns(plan),
            IncidentEvent::PrefixOffboarded { closed_alerts, .. } => {
                vec_growth(closed_alerts.len())
            }
            IncidentEvent::MitigationResumed {
                executed_alerts, ..
            } => vec_growth(executed_alerts.len()),
            _ => 0,
        })
        .sum();
    vec_growth(env.events.len()) + events
}

/// One hijack's records and the operator's, about 1 KiB of JSON.
fn eight_event_envelope() -> EventsEnvelope {
    let p = |s: &str| -> Prefix { s.parse().unwrap() };
    let plan = MitigationPlan {
        target: p("10.0.0.0/23"),
        announce: vec![p("10.0.0.0/24"), p("10.0.1.0/24")],
        helper_announce: Vec::new(),
        infeasible: false,
        rationale: "de-aggregate 10.0.0.0/23 into 2 more-specific(s)".into(),
    };
    let at = SimTime::from_secs;
    let events = vec![
        IncidentEvent::AlertRaised {
            alert: AlertId(7),
            owned_prefix: p("10.0.0.0/23"),
            observed_prefix: p("10.0.0.0/23"),
            hijack_type: HijackType::ExactOrigin,
            at: at(45),
        },
        IncidentEvent::MitigationPending {
            alert: AlertId(7),
            plan: plan.clone(),
            at: at(45),
        },
        IncidentEvent::MitigationTriggered {
            alert: AlertId(7),
            plan,
            at: at(60),
        },
        IncidentEvent::ControllerApplied {
            kind: IntentKind::Announce,
            prefix: p("10.0.0.0/24"),
            at: at(75),
        },
        IncidentEvent::ControllerApplied {
            kind: IntentKind::Announce,
            prefix: p("10.0.1.0/24"),
            at: at(75),
        },
        IncidentEvent::Resolved {
            alert: AlertId(7),
            at: at(90),
        },
        IncidentEvent::PolicyChanged {
            prefix: p("2001:db8::/32"),
            policy: MitigationPolicy::ConfirmFirst,
            at: at(95),
        },
        IncidentEvent::PrefixOffboarded {
            prefix: p("172.16.0.0/23"),
            closed_alerts: vec![AlertId(3), AlertId(5)],
            at: at(99),
        },
    ];
    EventsEnvelope {
        schema_version: SCHEMA_VERSION,
        events,
        next: serde_json::from_str("8").unwrap(),
        missed: 0,
    }
}

#[test]
fn writing_an_envelope_allocates_only_its_output() {
    let env = eight_event_envelope();
    let (allocs, text) = allocs_of(|| serde_json::to_string(&env).unwrap());
    assert!(text.len() > 900, "about 1 KiB: {}", text.len());
    let growth = string_growth(128, text.len());
    assert!(
        allocs <= growth,
        "{allocs} allocations for {} bytes; the output's growth is {growth}",
        text.len()
    );
}

#[test]
fn reading_an_envelope_allocates_only_what_it_owns() {
    let env = eight_event_envelope();
    let text = serde_json::to_string(&env).unwrap();
    let (allocs, back) = allocs_of(|| serde_json::from_str::<EventsEnvelope>(&text).unwrap());
    assert_eq!(back, env);
    let owned = envelope_owns(&env);
    assert!(
        allocs <= owned,
        "{allocs} allocations; the value owns {owned} blocks with their growth"
    );
    // Bytes go the same way, with no copy of the body first.
    let (allocs, _) =
        allocs_of(|| serde_json::from_slice::<EventsEnvelope>(text.as_bytes()).unwrap());
    assert!(allocs <= owned, "{allocs} allocations from bytes");
}
