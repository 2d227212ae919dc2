//! The operator control plane: [`ArtemisService`].
//!
//! ARTEMIS is pitched as a *service* an operator runs continuously
//! against their own prefixes; the follow-up work and the operator
//! survey both name self-operation, a configurable auto-mitigation
//! policy, and live visibility as the adoption blockers. This module
//! is that layer: it wraps a [`Pipeline`] together with the
//! operator's [`Controller`] and exposes three typed surfaces:
//!
//! * **Commands** — [`ServiceCommand`] applied via
//!   [`ArtemisService::apply`]: runtime prefix onboarding/offboarding,
//!   feed attach/detach by stable [`FeedHandle`], per-prefix
//!   [`MitigationPolicy`] swaps, confirm-first approvals, and
//!   pause/resume of mitigation without stopping detection.
//! * **Queries** — [`ServiceQuery`] answered with owned,
//!   `serde`-serializable snapshots ([`ServiceStatus`] and friends)
//!   rather than borrows into pipeline internals.
//! * **Events** — the owned [`IncidentEvent`](crate::IncidentEvent) stream via
//!   [`ArtemisService::poll_events`]; every consumer holds its own
//!   [`EventCursor`] and replays the identical history.

#![deny(missing_docs)]

use crate::alert::{Alert, AlertId, AlertState};
use crate::config::OwnedPrefix;
use crate::event_log::{EventCursor, EventLog, PollBatch};
use crate::mitigation::{MitigationPlan, MitigationPolicy};
use crate::pipeline::{OffboardReport, Pipeline};
use crate::HijackType;
use artemis_bgp::{Asn, Prefix};
use artemis_controller::{Controller, ControllerAction};
use artemis_feeds::{FeedEvent, FeedHandle, FeedKind, FeedSpec};
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A typed operator command, applied with [`ArtemisService::apply`].
///
/// Every variant is a plain serializable value — including feed
/// attachment, which carries a [`FeedSpec`] description rather than a
/// trait object — so the exact same command type travels over the
/// daemon's wire API and through the in-process API. Feeds that
/// cannot be described by a spec (archive/replay feeds needing engine
/// views or raw bytes) attach at assembly time via
/// [`Pipeline::attach_feed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceCommand {
    /// Onboard an owned prefix at runtime, optionally with a
    /// per-prefix mitigation policy override.
    AddOwnedPrefix {
        /// The prefix and its legitimacy rules.
        owned: OwnedPrefix,
        /// Policy override; `None` follows the service default.
        policy: Option<MitigationPolicy>,
    },
    /// Offboard an owned prefix: in-flight incidents on its shard are
    /// closed, monitors freeze, executed mitigation plans are
    /// withdrawn so no intent keeps originating offboarded space.
    RemoveOwnedPrefix {
        /// The prefix to offboard (must match a configured prefix
        /// exactly).
        prefix: Prefix,
    },
    /// Attach a monitoring feed described by a serializable
    /// [`FeedSpec`]; the outcome carries its stable [`FeedHandle`].
    AttachFeed {
        /// Description of the feed to attach.
        feed: FeedSpec,
    },
    /// Detach a feed by handle; its queued undelivered events are
    /// dropped deterministically (see `FeedHub::remove`).
    DetachFeed {
        /// The handle returned when the feed was attached.
        handle: FeedHandle,
    },
    /// Swap the mitigation policy of one owned prefix.
    SetMitigationPolicy {
        /// The owned prefix concerned.
        prefix: Prefix,
        /// The policy to enforce from now on.
        policy: MitigationPolicy,
    },
    /// Execute the held plan of a confirm-first (or paused-era) alert.
    ConfirmMitigation {
        /// The alert whose pending plan should execute.
        alert: AlertId,
    },
    /// Pause mitigation service-wide; detection and monitoring keep
    /// running and new plans accumulate as pending.
    Pause,
    /// Resume mitigation; pending plans under an `Auto` policy
    /// execute immediately.
    Resume,
}

/// What a successfully applied [`ServiceCommand`] did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandOutcome {
    /// The prefix was onboarded.
    PrefixAdded {
        /// The onboarded prefix.
        prefix: Prefix,
    },
    /// The prefix was offboarded; the report details the wind-down.
    PrefixRemoved(OffboardReport),
    /// The feed was attached under this stable handle.
    FeedAttached {
        /// Handle for later queries/detach.
        handle: FeedHandle,
    },
    /// The feed was detached.
    FeedDetached {
        /// The detached feed's handle.
        handle: FeedHandle,
        /// Queued undelivered events dropped with it.
        dropped_events: usize,
    },
    /// The policy override is in force.
    PolicySet {
        /// The owned prefix concerned.
        prefix: Prefix,
        /// The policy now in force.
        policy: MitigationPolicy,
    },
    /// The held plan executed.
    MitigationConfirmed {
        /// The confirmed alert.
        alert: AlertId,
        /// The plan that executed.
        plan: MitigationPlan,
    },
    /// Mitigation is now paused.
    Paused,
    /// Mitigation resumed.
    Resumed {
        /// Alerts whose held plans executed on resume.
        executed_alerts: Vec<AlertId>,
    },
}

/// Why a [`ServiceCommand`] was rejected. Rejected commands change
/// nothing and record nothing in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The prefix is not currently configured.
    UnknownPrefix(Prefix),
    /// A shard for exactly this prefix already exists.
    DuplicatePrefix(Prefix),
    /// No feed is attached under this handle.
    UnknownFeed(FeedHandle),
    /// The alert has no held plan (never pending, already confirmed,
    /// or executed on resume).
    NothingPending(AlertId),
    /// `Pause` while already paused.
    AlreadyPaused,
    /// `Resume` while not paused.
    NotPaused,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownPrefix(p) => write!(f, "prefix {p} is not configured"),
            ServiceError::DuplicatePrefix(p) => write!(f, "prefix {p} is already configured"),
            ServiceError::UnknownFeed(h) => write!(f, "no feed attached under {h}"),
            ServiceError::NothingPending(a) => {
                write!(f, "alert {} has no pending mitigation plan", a.0)
            }
            ServiceError::AlreadyPaused => write!(f, "mitigation is already paused"),
            ServiceError::NotPaused => write!(f, "mitigation is not paused"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A typed read-only question, answered with [`ArtemisService::query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceQuery {
    /// The full snapshot.
    Status,
    /// Only the owned-prefix table.
    OwnedPrefixes,
    /// Only the incident table.
    Incidents,
    /// Only feed health.
    Feeds,
}

/// The answer to a [`ServiceQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceReply {
    /// Answer to [`ServiceQuery::Status`].
    Status(ServiceStatus),
    /// Answer to [`ServiceQuery::OwnedPrefixes`].
    OwnedPrefixes(Vec<PrefixStatus>),
    /// Answer to [`ServiceQuery::Incidents`].
    Incidents(Vec<IncidentStatus>),
    /// Answer to [`ServiceQuery::Feeds`].
    Feeds(Vec<FeedStatus>),
}

/// Owned snapshot of the whole service — serializable, no borrows
/// into pipeline internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Snapshot instant (the `now` passed to the query).
    pub at: SimTime,
    /// True while mitigation is paused.
    pub mitigation_paused: bool,
    /// Feed events delivered to the detector so far.
    pub events_delivered: u64,
    /// Total incident events recorded (retained or evicted).
    pub events_recorded: u64,
    /// The owned-prefix table with per-shard state.
    pub owned: Vec<PrefixStatus>,
    /// Every incident (open and resolved), in alert-raise order.
    pub incidents: Vec<IncidentStatus>,
    /// Per-feed health.
    pub feeds: Vec<FeedStatus>,
}

/// The counts of a [`ServiceStatus`] without its owned-prefix and
/// incident tables: what a metrics scrape prints, at a cost that does
/// not grow with the fleet (see [`ArtemisService::summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// True while mitigation is paused.
    pub mitigation_paused: bool,
    /// Feed events delivered to the detector so far.
    pub events_delivered: u64,
    /// Total incident events recorded (retained or evicted).
    pub events_recorded: u64,
    /// Owned prefixes currently onboarded.
    pub owned_prefixes: usize,
    /// Incidents (open and resolved) per [`MitigationPhase`], in the
    /// order of [`MitigationPhase::ALL`]; read through
    /// [`ServiceSummary::incidents_in`].
    pub incidents_by_phase: [usize; MitigationPhase::ALL.len()],
    /// Per-feed health.
    pub feeds: Vec<FeedStatus>,
}

impl ServiceSummary {
    /// How many incidents sit in `phase`.
    pub fn incidents_in(&self, phase: MitigationPhase) -> usize {
        self.incidents_by_phase[phase as usize]
    }
}

/// One row of the owned-prefix table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixStatus {
    /// The owned prefix.
    pub prefix: Prefix,
    /// ASNs allowed to originate it.
    pub legitimate_origins: Vec<Asn>,
    /// True for owned-but-unannounced (squatting detection) prefixes.
    pub dormant: bool,
    /// The mitigation policy in force.
    pub policy: MitigationPolicy,
    /// Feed events routed to this prefix's shard.
    pub shard_events: u64,
    /// Unresolved alerts on this prefix.
    pub open_alerts: usize,
}

/// Where an incident sits in its mitigation lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationPhase {
    /// No plan computed (detect-only, or nothing happened yet).
    None,
    /// A plan is computed and held for confirmation.
    PendingConfirmation,
    /// The plan executed; waiting for vantage points to recover.
    Executing,
    /// The incident is over.
    Resolved,
}

impl MitigationPhase {
    /// Every phase, in lifecycle (and discriminant) order.
    pub const ALL: [MitigationPhase; 4] = [
        MitigationPhase::None,
        MitigationPhase::PendingConfirmation,
        MitigationPhase::Executing,
        MitigationPhase::Resolved,
    ];
}

/// The phase of `alert`, given the alerts whose plan awaits confirmation.
fn phase_of(alert: &Alert, pending: &BTreeSet<AlertId>) -> MitigationPhase {
    if alert.state == AlertState::Resolved {
        MitigationPhase::Resolved
    } else if pending.contains(&alert.id) {
        MitigationPhase::PendingConfirmation
    } else if alert.state == AlertState::Mitigating {
        MitigationPhase::Executing
    } else {
        MitigationPhase::None
    }
}

/// One row of the incident table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentStatus {
    /// The alert's identifier.
    pub alert: AlertId,
    /// The configured prefix under attack.
    pub owned_prefix: Prefix,
    /// The offending announcement's prefix.
    pub observed_prefix: Prefix,
    /// Classification.
    pub hijack_type: HijackType,
    /// Offending origin AS, when defined.
    pub offending_origin: Option<Asn>,
    /// Alert lifecycle state.
    pub state: AlertState,
    /// Detection instant.
    pub detected_at: SimTime,
    /// Witnessing vantage points so far.
    pub vantage_points: usize,
    /// Mitigation lifecycle phase.
    pub phase: MitigationPhase,
    /// The attached monitor's aggregate view, when one exists.
    pub monitor: Option<MonitorSummary>,
}

/// Aggregate vantage-point counts from an incident's monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorSummary {
    /// Vantage points on a legitimate origin.
    pub legitimate: usize,
    /// Vantage points on the offending origin.
    pub hijacked: usize,
    /// Vantage points with no data yet.
    pub unknown: usize,
}

/// One row of the feed-health table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedStatus {
    /// The feed's stable handle.
    pub handle: FeedHandle,
    /// Feed family.
    pub kind: FeedKind,
    /// Instance name.
    pub name: String,
    /// Events emitted over the feed's lifetime.
    pub events_emitted: u64,
    /// Pull queries issued (0 for push feeds).
    pub polls_executed: u64,
    /// Events queued in the hub (emitted, not yet drained) from this
    /// feed — the daemon-visible lag depth.
    pub queued_events: usize,
    /// Emission instant of the newest event this feed queued, if any —
    /// the daemon-visible "last seen" instant. Both fields read the
    /// hub's [`artemis_feeds::FeedLag`] bookkeeping, the same source
    /// `/metrics` scrapes, so query and metrics always agree.
    pub last_event_at: Option<SimTime>,
    /// Events the feed discarded before they reached the hub:
    /// backpressure sheds plus a live feed's pre-ring filter
    /// rejections. Monotone.
    pub dropped_events: u64,
    /// The backpressure subset of `dropped_events`: events shed from a
    /// bounded ring because the detector fell behind. Monotone.
    pub shed_events: u64,
}

/// The runtime-reconfigurable ARTEMIS service: a [`Pipeline`] plus
/// the operator's [`Controller`] behind typed commands, queries, and
/// an owned event stream.
pub struct ArtemisService {
    pipeline: Pipeline,
    controller: Controller,
}

impl ArtemisService {
    /// Assemble the service around a pipeline and the operator's
    /// controller.
    pub fn new(pipeline: Pipeline, controller: Controller) -> Self {
        ArtemisService {
            pipeline,
            controller,
        }
    }

    /// Read access to the wrapped pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the wrapped pipeline (setup-time escape
    /// hatch; prefer commands at runtime).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Read access to the operator's controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the operator's controller (drivers apply due
    /// actions to their routing layer).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    // ---- Commands ---------------------------------------------------

    /// Apply one typed command at `now`. Successful commands record
    /// their effect in the event stream; rejected ones change nothing.
    pub fn apply(
        &mut self,
        cmd: ServiceCommand,
        now: SimTime,
    ) -> Result<CommandOutcome, ServiceError> {
        match cmd {
            ServiceCommand::AddOwnedPrefix { owned, policy } => {
                let prefix = owned.prefix;
                if self.pipeline.add_owned_prefix(owned, policy, now) {
                    Ok(CommandOutcome::PrefixAdded { prefix })
                } else {
                    Err(ServiceError::DuplicatePrefix(prefix))
                }
            }
            ServiceCommand::RemoveOwnedPrefix { prefix } => self
                .pipeline
                .remove_owned_prefix(prefix, now, &mut self.controller)
                .map(CommandOutcome::PrefixRemoved)
                .ok_or(ServiceError::UnknownPrefix(prefix)),
            ServiceCommand::AttachFeed { feed } => {
                let handle = self.pipeline.attach_feed(feed.build(), now);
                Ok(CommandOutcome::FeedAttached { handle })
            }
            ServiceCommand::DetachFeed { handle } => self
                .pipeline
                .detach_feed(handle, now)
                .map(|dropped_events| CommandOutcome::FeedDetached {
                    handle,
                    dropped_events,
                })
                .ok_or(ServiceError::UnknownFeed(handle)),
            ServiceCommand::SetMitigationPolicy { prefix, policy } => {
                if self.pipeline.set_mitigation_policy(prefix, policy, now) {
                    Ok(CommandOutcome::PolicySet { prefix, policy })
                } else {
                    Err(ServiceError::UnknownPrefix(prefix))
                }
            }
            ServiceCommand::ConfirmMitigation { alert } => self
                .pipeline
                .confirm_mitigation(alert, now, &mut self.controller)
                .map(|plan| CommandOutcome::MitigationConfirmed { alert, plan })
                .ok_or(ServiceError::NothingPending(alert)),
            ServiceCommand::Pause => {
                if self.pipeline.mitigation_paused() {
                    Err(ServiceError::AlreadyPaused)
                } else {
                    self.pipeline.pause_mitigation(now);
                    Ok(CommandOutcome::Paused)
                }
            }
            ServiceCommand::Resume => {
                if !self.pipeline.mitigation_paused() {
                    Err(ServiceError::NotPaused)
                } else {
                    let executed_alerts =
                        self.pipeline.resume_mitigation(now, &mut self.controller);
                    Ok(CommandOutcome::Resumed { executed_alerts })
                }
            }
        }
    }

    /// Drive the live side of the service one tick: run every ready
    /// pull feed (live BMP rings report readiness exactly when they
    /// hold events), then deliver everything due by `now` through
    /// detection, monitoring and policy-gated mitigation. Returns the
    /// number of events delivered. This is the daemon's pump loop
    /// body; idle ticks cost one readiness check per feed.
    pub fn pump_feeds(&mut self, now: SimTime) -> u64 {
        self.pipeline.poll_feeds(now);
        self.pipeline.deliver_due(now, &mut self.controller)
    }

    // ---- Queries ----------------------------------------------------

    /// Answer one typed query as an owned snapshot taken at `now`.
    pub fn query(&self, q: ServiceQuery, now: SimTime) -> ServiceReply {
        match q {
            ServiceQuery::Status => ServiceReply::Status(self.status(now)),
            ServiceQuery::OwnedPrefixes => ServiceReply::OwnedPrefixes(self.prefix_table()),
            ServiceQuery::Incidents => ServiceReply::Incidents(self.incident_table(now)),
            ServiceQuery::Feeds => ServiceReply::Feeds(self.feed_table()),
        }
    }

    /// The full snapshot at `now` (owned, serializable).
    pub fn status(&self, now: SimTime) -> ServiceStatus {
        ServiceStatus {
            at: now,
            mitigation_paused: self.pipeline.mitigation_paused(),
            events_delivered: self.pipeline.events_delivered(),
            events_recorded: self.pipeline.event_log().total_pushed(),
            owned: self.prefix_table(),
            incidents: self.incident_table(now),
            feeds: self.feed_table(),
        }
    }

    /// The same instant's counts without the tables: the owned-prefix
    /// count is the detector's shard count and an incident costs one
    /// phase lookup — no per-prefix row, no monitor snapshot.
    pub fn summary(&self) -> ServiceSummary {
        let pending = self.pending_alerts();
        let mut incidents_by_phase = [0; MitigationPhase::ALL.len()];
        for alert in self.pipeline.detector().alerts().all() {
            incidents_by_phase[phase_of(alert, &pending) as usize] += 1;
        }
        ServiceSummary {
            mitigation_paused: self.pipeline.mitigation_paused(),
            events_delivered: self.pipeline.events_delivered(),
            events_recorded: self.pipeline.event_log().total_pushed(),
            owned_prefixes: self.pipeline.detector().shard_count(),
            incidents_by_phase,
            feeds: self.feed_table(),
        }
    }

    /// Alerts whose mitigation plan is held for confirmation.
    fn pending_alerts(&self) -> BTreeSet<AlertId> {
        self.pipeline
            .pending_mitigations()
            .map(|(id, _)| id)
            .collect()
    }

    /// The owned-prefix table, read from the detector's shard rules in
    /// prefix order (see [`crate::Detector::owned_prefixes`]): the same
    /// configured set always lists the same way, whatever sequence of
    /// onboards and offboards produced it.
    fn prefix_table(&self) -> Vec<PrefixStatus> {
        let detector = self.pipeline.detector();
        // One pass over the alert store, not one per owned prefix.
        let mut open_alerts: BTreeMap<Prefix, usize> = BTreeMap::new();
        for alert in detector.alerts().active() {
            *open_alerts.entry(alert.owned_prefix).or_default() += 1;
        }
        detector
            .owned_prefixes()
            .map(|o| PrefixStatus {
                prefix: o.prefix,
                legitimate_origins: o.legitimate_origins.iter().copied().collect(),
                dormant: o.dormant,
                policy: self.pipeline.mitigation_policy(o.prefix),
                shard_events: detector.shard_events(o.prefix).unwrap_or(0),
                open_alerts: open_alerts.get(&o.prefix).copied().unwrap_or(0),
            })
            .collect()
    }

    fn incident_table(&self, now: SimTime) -> Vec<IncidentStatus> {
        let pending = self.pending_alerts();
        self.pipeline
            .detector()
            .alerts()
            .all()
            .iter()
            .map(|a| {
                let phase = phase_of(a, &pending);
                // Active incidents snapshot their live monitor; over
                // incidents read the counts frozen at retirement
                // (identical, since a frozen monitor never changes).
                let monitor = self
                    .pipeline
                    .monitor_for(a.id)
                    .map(|m| {
                        let snap = m.snapshot(now);
                        MonitorSummary {
                            legitimate: snap.legitimate,
                            hijacked: snap.hijacked,
                            unknown: snap.unknown,
                        }
                    })
                    .or_else(|| {
                        self.pipeline.retired_monitor(a.id).map(|r| {
                            let last = r.final_point();
                            MonitorSummary {
                                legitimate: last.legitimate,
                                hijacked: last.hijacked,
                                unknown: last.unknown,
                            }
                        })
                    });
                IncidentStatus {
                    alert: a.id,
                    owned_prefix: a.owned_prefix,
                    observed_prefix: a.observed_prefix,
                    hijack_type: a.hijack_type,
                    offending_origin: a.offending_origin,
                    state: a.state,
                    detected_at: a.detected_at,
                    vantage_points: a.vantage_points.len(),
                    phase,
                    monitor,
                }
            })
            .collect()
    }

    fn feed_table(&self) -> Vec<FeedStatus> {
        let hub = self.pipeline.hub();
        hub.handles()
            .map(|(handle, feed)| {
                let lag = hub.feed_lag(handle).unwrap_or_default();
                FeedStatus {
                    handle,
                    kind: feed.kind(),
                    name: feed.name().to_string(),
                    events_emitted: feed.events_emitted(),
                    polls_executed: feed.polls_executed(),
                    queued_events: lag.queued_events,
                    last_event_at: lag.last_event_at,
                    dropped_events: lag.dropped_events,
                    shed_events: lag.shed_events,
                }
            })
            .collect()
    }

    // ---- Events -----------------------------------------------------

    /// Everything recorded since `cursor`. Multiple consumers with
    /// independent cursors replay the identical history.
    pub fn poll_events(&self, cursor: EventCursor) -> PollBatch {
        self.pipeline.poll_events(cursor)
    }

    /// Read access to the underlying event log.
    pub fn event_log(&self) -> &EventLog {
        self.pipeline.event_log()
    }

    /// Wall-clock per-stage batch latency (observability only; see
    /// [`crate::metrics::StageMetrics`]).
    pub fn stage_metrics(&self) -> &crate::metrics::StageMetrics {
        self.pipeline.stage_metrics()
    }

    // ---- Driving ----------------------------------------------------

    /// Feed one monitoring event through the pipeline using the
    /// service's own controller (deployments that bring their own
    /// transport). Returns the alert it raised, if any.
    pub fn deliver(&mut self, event: &FeedEvent) -> Option<AlertId> {
        self.pipeline.deliver(event, &mut self.controller)
    }

    /// Take every controller intent due by `upto`, record each as a
    /// [`ControllerApplied`](crate::IncidentEvent::ControllerApplied)
    /// event at `upto`, and return them for the caller to apply to its
    /// routing layer (router configs, a BGP speaker, a simulated
    /// Internet). The controller forgets an intent once it is taken,
    /// so every one is logged before the caller sees any.
    pub fn take_due_intents(&mut self, upto: SimTime) -> Vec<ControllerAction> {
        let due = self.controller.due_actions(upto);
        for action in &due {
            self.pipeline.log_controller_applied(action, upto);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArtemisConfig;
    use crate::event_log::IncidentEvent;
    use artemis_bgp::AsPath;
    use artemis_simnet::{LatencyModel, SimRng};
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn service() -> ArtemisService {
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
        );
        let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
        let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
        ArtemisService::new(pipeline, controller)
    }

    fn event(vp: u32, prefix: &str, path: &[u32], t: u64) -> FeedEvent {
        FeedEvent::new(
            SimTime::from_secs(t),
            SimTime::from_secs(t.saturating_sub(5)),
            FeedKind::RisLive,
            Asn(vp),
            pfx(prefix),
            Some(&AsPath::from_sequence(path.iter().copied())),
            None,
        )
    }

    #[test]
    fn commands_round_trip_through_typed_outcomes() {
        let mut svc = service();
        let t = SimTime::from_secs(1);

        // Onboard + duplicate rejection.
        let out = svc
            .apply(
                ServiceCommand::AddOwnedPrefix {
                    owned: OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
                    policy: Some(MitigationPolicy::ConfirmFirst),
                },
                t,
            )
            .unwrap();
        assert_eq!(
            out,
            CommandOutcome::PrefixAdded {
                prefix: pfx("172.16.0.0/23")
            }
        );
        assert_eq!(
            svc.apply(
                ServiceCommand::AddOwnedPrefix {
                    owned: OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
                    policy: None,
                },
                t,
            ),
            Err(ServiceError::DuplicatePrefix(pfx("172.16.0.0/23")))
        );

        // Feed lifecycle by handle.
        let out = svc
            .apply(
                ServiceCommand::AttachFeed {
                    feed: FeedSpec::ris_live("rrc", vec![Asn(174)]),
                },
                t,
            )
            .unwrap();
        let CommandOutcome::FeedAttached { handle } = out else {
            panic!("expected FeedAttached, got {out:?}");
        };
        assert_eq!(
            svc.apply(ServiceCommand::DetachFeed { handle }, t).unwrap(),
            CommandOutcome::FeedDetached {
                handle,
                dropped_events: 0
            }
        );
        assert_eq!(
            svc.apply(ServiceCommand::DetachFeed { handle }, t),
            Err(ServiceError::UnknownFeed(handle))
        );

        // Policy swap + unknown prefix rejection.
        assert_eq!(
            svc.apply(
                ServiceCommand::SetMitigationPolicy {
                    prefix: pfx("10.0.0.0/23"),
                    policy: MitigationPolicy::DetectOnly,
                },
                t,
            )
            .unwrap(),
            CommandOutcome::PolicySet {
                prefix: pfx("10.0.0.0/23"),
                policy: MitigationPolicy::DetectOnly
            }
        );
        assert_eq!(
            svc.apply(
                ServiceCommand::SetMitigationPolicy {
                    prefix: pfx("8.8.8.0/24"),
                    policy: MitigationPolicy::Auto,
                },
                t,
            ),
            Err(ServiceError::UnknownPrefix(pfx("8.8.8.0/24")))
        );

        // Pause/resume with precise no-op errors.
        assert_eq!(
            svc.apply(ServiceCommand::Resume, t),
            Err(ServiceError::NotPaused)
        );
        assert_eq!(
            svc.apply(ServiceCommand::Pause, t).unwrap(),
            CommandOutcome::Paused
        );
        assert_eq!(
            svc.apply(ServiceCommand::Pause, t),
            Err(ServiceError::AlreadyPaused)
        );
        assert!(matches!(
            svc.apply(ServiceCommand::Resume, t).unwrap(),
            CommandOutcome::Resumed { .. }
        ));

        // Offboard + unknown prefix rejection.
        assert!(matches!(
            svc.apply(
                ServiceCommand::RemoveOwnedPrefix {
                    prefix: pfx("172.16.0.0/23")
                },
                t,
            )
            .unwrap(),
            CommandOutcome::PrefixRemoved(_)
        ));
        assert_eq!(
            svc.apply(
                ServiceCommand::RemoveOwnedPrefix {
                    prefix: pfx("172.16.0.0/23")
                },
                t,
            ),
            Err(ServiceError::UnknownPrefix(pfx("172.16.0.0/23")))
        );
    }

    /// A service over `owned`, assembled the way `artemisd` assembles
    /// one from its `--owned` flags.
    fn service_owning(owned: &[(&str, u32)]) -> ArtemisService {
        let owned = owned
            .iter()
            .map(|(p, origin)| OwnedPrefix::new(pfx(p), Asn(*origin)))
            .collect();
        let config = ArtemisConfig::new(Asn(65001), owned);
        let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
        let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
        ArtemisService::new(pipeline, controller)
    }

    #[test]
    fn a_prefix_owned_twice_accepts_both_origins() {
        // Regression: the second copy used to replace the first in the
        // routing trie, so the first copy's origin raised ExactOrigin.
        let mut svc = service_owning(&[("10.0.0.0/23", 65001), ("10.0.0.0/23", 65002)]);
        assert_eq!(svc.pipeline().detector().shard_count(), 1);
        for (t, origin) in [(10, 65001), (11, 65002)] {
            let ev = event(174, "10.0.0.0/23", &[174, origin], t);
            assert_eq!(svc.deliver(&ev), None, "origin {origin}");
        }
        let rogue = event(174, "10.0.0.0/23", &[174, 666], 12);
        assert!(svc.deliver(&rogue).is_some());
    }

    #[test]
    fn offboarding_beside_a_prefix_owned_twice_does_not_panic() {
        // Regression: the orphaned second shard was moved by the first
        // offboard onto a trie entry that did not name it, and the
        // second offboard panicked under the service lock.
        let mut svc = service_owning(&[
            ("192.0.2.0/24", 65001),
            ("10.0.0.0/23", 65001),
            ("10.0.0.0/23", 65001),
        ]);
        let t = SimTime::from_secs(1);
        for prefix in ["192.0.2.0/24", "10.0.0.0/23"] {
            let out = svc.apply(
                ServiceCommand::RemoveOwnedPrefix {
                    prefix: pfx(prefix),
                },
                t,
            );
            assert!(
                matches!(out, Ok(CommandOutcome::PrefixRemoved(_))),
                "{prefix}: {out:?}"
            );
        }
        assert_eq!(svc.pipeline().detector().shard_count(), 0);
    }

    #[test]
    fn status_snapshot_is_owned_and_serializable() {
        let mut svc = service();
        svc.apply(
            ServiceCommand::SetMitigationPolicy {
                prefix: pfx("10.0.0.0/23"),
                policy: MitigationPolicy::ConfirmFirst,
            },
            SimTime::from_secs(1),
        )
        .unwrap();
        svc.deliver(&event(174, "10.0.0.0/23", &[174, 666], 45));

        let status = svc.status(SimTime::from_secs(50));
        assert_eq!(status.owned.len(), 1);
        assert_eq!(status.owned[0].policy, MitigationPolicy::ConfirmFirst);
        assert_eq!(status.owned[0].open_alerts, 1);
        assert_eq!(status.incidents.len(), 1);
        assert_eq!(
            status.incidents[0].phase,
            MitigationPhase::PendingConfirmation
        );
        let monitor = status.incidents[0].monitor.expect("monitor per alert");
        assert_eq!(monitor.hijacked, 1);

        // Owned + serializable: the whole snapshot round-trips to JSON.
        let json = serde_json::to_string(&status).unwrap();
        assert!(json.contains("10.0.0.0/23"));

        // Sub-queries agree with the full snapshot.
        let ServiceReply::Incidents(incidents) =
            svc.query(ServiceQuery::Incidents, SimTime::from_secs(50))
        else {
            panic!("wrong reply variant");
        };
        assert_eq!(incidents, status.incidents);

        // The table-free summary counts what the snapshot lists.
        let summary = svc.summary();
        assert_eq!(summary.owned_prefixes, status.owned.len());
        assert_eq!(summary.events_delivered, status.events_delivered);
        assert_eq!(summary.events_recorded, status.events_recorded);
        assert_eq!(summary.mitigation_paused, status.mitigation_paused);
        assert_eq!(summary.feeds, status.feeds);
        for phase in MitigationPhase::ALL {
            let listed = status.incidents.iter().filter(|i| i.phase == phase);
            assert_eq!(summary.incidents_in(phase), listed.count(), "{phase:?}");
        }
    }

    #[test]
    fn prefix_table_counts_open_alerts_like_a_per_prefix_scan_and_lists_in_prefix_order() {
        // 10k owned /24s, onboarded in scrambled order; 200 hijacks on
        // every 50th of them, half of which heal again. The one-pass
        // open-alert count must equal the old definition (scan the
        // whole store once per owned prefix), and the table must come
        // out in prefix order whatever order the fleet was built in.
        const N: u32 = 10_000;
        let nth = |i: u32| {
            let p = Prefix::v4(std::net::Ipv4Addr::from((10 << 24) | (i << 8)), 24);
            p.expect("valid /24")
        };
        let owned = (0..N)
            .map(|i| OwnedPrefix::new(nth(i * 7919 % N), Asn(65001)))
            .collect();
        let pipeline = Pipeline::bare(
            ArtemisConfig::new(Asn(65001), owned),
            [Asn(174)].into_iter().collect(),
        );
        let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
        let mut svc = ArtemisService::new(pipeline, controller);
        for k in 0..200u32 {
            let victim = nth(k * 50).to_string();
            // Two offenders on every fourth victim: counts above one.
            svc.deliver(&event(174, &victim, &[174, 666], 10 + u64::from(k)));
            if k % 4 == 0 {
                svc.deliver(&event(174, &victim, &[174, 667], 300 + u64::from(k)));
            }
            if k % 2 == 1 {
                svc.deliver(&event(174, &victim, &[174, 65001], 600 + u64::from(k)));
            }
        }
        let alerts = svc.pipeline().detector().alerts().all();
        assert_eq!(alerts.len(), 250);

        let table = svc.prefix_table();
        assert_eq!(table.len(), N as usize);
        assert!(table.windows(2).all(|w| w[0].prefix < w[1].prefix));
        for row in &table {
            let scanned = alerts
                .iter()
                .filter(|a| a.owned_prefix == row.prefix && a.state != AlertState::Resolved)
                .count();
            assert_eq!(row.open_alerts, scanned, "{}", row.prefix);
        }
        assert_eq!(table.iter().map(|r| r.open_alerts).sum::<usize>(), 150);
    }

    #[test]
    fn confirm_command_executes_the_held_plan() {
        let mut svc = service();
        svc.apply(
            ServiceCommand::SetMitigationPolicy {
                prefix: pfx("10.0.0.0/23"),
                policy: MitigationPolicy::ConfirmFirst,
            },
            SimTime::from_secs(1),
        )
        .unwrap();
        let id = svc
            .deliver(&event(174, "10.0.0.0/23", &[174, 666], 45))
            .expect("must alert");
        assert_eq!(svc.controller().intents().count(), 0);
        let out = svc
            .apply(
                ServiceCommand::ConfirmMitigation { alert: id },
                SimTime::from_secs(60),
            )
            .unwrap();
        assert!(matches!(out, CommandOutcome::MitigationConfirmed { alert, .. } if alert == id));
        assert_eq!(svc.controller().intents().count(), 2);
        assert_eq!(
            svc.apply(
                ServiceCommand::ConfirmMitigation { alert: id },
                SimTime::from_secs(61),
            ),
            Err(ServiceError::NothingPending(id))
        );
    }

    #[test]
    fn rejected_commands_record_no_events() {
        let mut svc = service();
        let before = svc.event_log().total_pushed();
        let _ = svc.apply(ServiceCommand::Resume, SimTime::ZERO);
        let _ = svc.apply(
            ServiceCommand::RemoveOwnedPrefix {
                prefix: pfx("8.8.8.0/24"),
            },
            SimTime::ZERO,
        );
        assert_eq!(svc.event_log().total_pushed(), before);
    }

    #[test]
    fn event_stream_records_command_lifecycle() {
        let mut svc = service();
        let t = SimTime::from_secs(1);
        svc.apply(
            ServiceCommand::AddOwnedPrefix {
                owned: OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
                policy: None,
            },
            t,
        )
        .unwrap();
        svc.apply(ServiceCommand::Pause, t).unwrap();
        svc.apply(ServiceCommand::Resume, t).unwrap();
        svc.apply(
            ServiceCommand::RemoveOwnedPrefix {
                prefix: pfx("172.16.0.0/23"),
            },
            t,
        )
        .unwrap();
        let batch = svc.poll_events(EventCursor::START);
        let kinds: Vec<&'static str> = batch
            .events
            .iter()
            .map(|e| match e {
                IncidentEvent::PrefixOnboarded { .. } => "onboard",
                IncidentEvent::MitigationPaused { .. } => "pause",
                IncidentEvent::MitigationResumed { .. } => "resume",
                IncidentEvent::PrefixOffboarded { .. } => "offboard",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["onboard", "pause", "resume", "offboard"]);
    }
}
