//! Versioned wire envelopes for the control-plane API.
//!
//! The daemon's HTTP/JSON API carries exactly the in-process types —
//! [`ServiceCommand`], [`CommandOutcome`], [`ServiceError`],
//! [`ServiceQuery`], [`IncidentEvent`] — wrapped in the envelopes
//! defined here. Every envelope leads with a `schema_version` field so
//! both sides can reject a contract mismatch instead of
//! misinterpreting payloads; round-trip property tests lock the wire
//! representation against the in-process API (lossless by
//! construction).

use crate::event_log::{EventCursor, IncidentEvent, PollBatch};
use crate::service::{CommandOutcome, ServiceCommand, ServiceError, ServiceQuery};
use artemis_feeds::FeedEvent;
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// Version of the wire contract. Bump on any breaking change to the
/// envelopes or the types they carry.
pub const SCHEMA_VERSION: u32 = 2;

/// A [`ServiceCommand`] as submitted over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandEnvelope {
    /// Wire-contract version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Service-clock instant to apply the command at. `None` lets the
    /// daemon stamp its own clock; setting it explicitly makes
    /// HTTP-driven histories reproducible (the byte-identity tests
    /// rely on this).
    pub at: Option<SimTime>,
    /// The command itself — the exact in-process type.
    pub command: ServiceCommand,
}

impl CommandEnvelope {
    /// Wrap a command at the current schema version, with no explicit
    /// timestamp.
    pub fn new(command: ServiceCommand) -> Self {
        CommandEnvelope {
            schema_version: SCHEMA_VERSION,
            at: None,
            command,
        }
    }

    /// Pin the command to an explicit service-clock instant.
    pub fn at(mut self, at: SimTime) -> Self {
        self.at = Some(at);
        self
    }
}

/// What applying a wire command produced — success or typed rejection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandResult {
    /// The command applied; this is what it did.
    Outcome(CommandOutcome),
    /// The command was rejected; nothing changed.
    Rejected(ServiceError),
}

/// The daemon's reply to a [`CommandEnvelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeEnvelope {
    /// Wire-contract version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The instant the command was applied at.
    pub at: SimTime,
    /// Success or typed rejection.
    pub result: CommandResult,
}

impl OutcomeEnvelope {
    /// Wrap an application result at the current schema version.
    pub fn new(at: SimTime, result: Result<CommandOutcome, ServiceError>) -> Self {
        OutcomeEnvelope {
            schema_version: SCHEMA_VERSION,
            at,
            result: match result {
                Ok(outcome) => CommandResult::Outcome(outcome),
                Err(err) => CommandResult::Rejected(err),
            },
        }
    }
}

/// A [`ServiceQuery`] as submitted over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryEnvelope {
    /// Wire-contract version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Snapshot instant; `None` lets the daemon stamp its own clock.
    pub at: Option<SimTime>,
    /// The query itself — the exact in-process type.
    pub query: ServiceQuery,
}

impl QueryEnvelope {
    /// Wrap a query at the current schema version.
    pub fn new(query: ServiceQuery) -> Self {
        QueryEnvelope {
            schema_version: SCHEMA_VERSION,
            at: None,
            query,
        }
    }
}

/// One long-poll batch from the event log, as sent over the wire.
/// Mirrors [`PollBatch`] plus the schema version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventsEnvelope {
    /// Wire-contract version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Everything recorded since the consumer's cursor, oldest first.
    pub events: Vec<IncidentEvent>,
    /// Cursor to resume from.
    pub next: EventCursor,
    /// Events that aged out of the ring before this poll — surfaced,
    /// never silently skipped.
    pub missed: u64,
}

impl From<PollBatch> for EventsEnvelope {
    fn from(batch: PollBatch) -> Self {
        EventsEnvelope {
            schema_version: SCHEMA_VERSION,
            events: batch.events,
            next: batch.next,
            missed: batch.missed,
        }
    }
}

/// A batch of monitoring events injected over the wire (deployments
/// that bring their own transport feed the detector through this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectEnvelope {
    /// Wire-contract version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The events to deliver, in order.
    pub events: Vec<FeedEvent>,
}

impl InjectEnvelope {
    /// Wrap events at the current schema version.
    pub fn new(events: Vec<FeedEvent>) -> Self {
        InjectEnvelope {
            schema_version: SCHEMA_VERSION,
            events,
        }
    }
}

/// What an [`InjectEnvelope`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectOutcome {
    /// Wire-contract version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Events delivered to the detector.
    pub delivered: u64,
    /// New alerts raised while delivering them.
    pub alerts_raised: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertId;
    use crate::config::OwnedPrefix;
    use crate::mitigation::MitigationPolicy;
    use artemis_bgp::{Asn, Prefix};
    use artemis_feeds::FeedSpec;
    use std::str::FromStr;

    #[test]
    fn command_envelope_round_trips() {
        let env = CommandEnvelope::new(ServiceCommand::AddOwnedPrefix {
            owned: OwnedPrefix::new(Prefix::from_str("10.0.0.0/23").unwrap(), Asn(65001)),
            policy: Some(MitigationPolicy::ConfirmFirst),
        })
        .at(SimTime::from_secs(7));
        let json = serde_json::to_string(&env).unwrap();
        let back: CommandEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn attach_feed_command_is_wire_representable() {
        let env = CommandEnvelope::new(ServiceCommand::AttachFeed {
            feed: FeedSpec::ris_live("rrc", vec![Asn(174), Asn(3356)]),
        });
        let json = serde_json::to_string(&env).unwrap();
        let back: CommandEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn outcome_envelope_carries_typed_rejections() {
        let env = OutcomeEnvelope::new(
            SimTime::from_secs(1),
            Err(ServiceError::NothingPending(AlertId(4))),
        );
        let json = serde_json::to_string(&env).unwrap();
        let back: OutcomeEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.result,
            CommandResult::Rejected(ServiceError::NothingPending(AlertId(4)))
        );
    }

    #[test]
    fn events_envelope_mirrors_poll_batch() {
        let batch = PollBatch {
            events: vec![IncidentEvent::MitigationPaused {
                at: SimTime::from_secs(3),
            }],
            next: EventCursor::START,
            missed: 2,
        };
        let env: EventsEnvelope = batch.into();
        assert_eq!(env.missed, 2);
        let json = serde_json::to_string(&env).unwrap();
        let back: EventsEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }
}
