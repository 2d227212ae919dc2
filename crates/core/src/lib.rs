//! # artemis-core — the ARTEMIS system
//!
//! The paper's contribution (Chaviaras, Gigis, Sermpezis,
//! Dimitropoulos — SIGCOMM 2016): self-operated, real-time detection
//! and *automatic* mitigation of BGP prefix hijacking, built from three
//! services (paper Fig. 1):
//!
//! 1. **Detection** ([`Detector`]): consumes the live monitoring feeds
//!    ([`artemis_feeds`]) and raises an [`Alert`] the moment any
//!    vantage point reports the operator's prefix (or a more-specific
//!    of it) with an illegitimate origin — plus path-anomaly and
//!    squatting checks as documented extensions.
//! 2. **Mitigation** ([`Mitigator`]): computes the de-aggregation
//!    response (a hijacked /23 becomes two /24s, never longer than /24
//!    — paper §2) and pushes it through the SDN controller
//!    ([`artemis_controller`]) without human intervention.
//! 3. **Monitoring** ([`MonitorService`]): watches the same feeds to
//!    report, per vantage point, whether traffic goes to the legitimate
//!    or the hijacking origin — declaring the incident resolved when
//!    every vantage point has switched back.
//!
//! [`Pipeline`] wires the three together around the feed hub and owns
//! the batched, multi-prefix event loop — the detector shards its
//! state per owned prefix, so concurrent incidents on different
//! prefixes run independent alert/monitor/mitigation lifecycles.
//! [`ArtemisService`] is the operator control plane on top: typed
//! [`ServiceCommand`]s (runtime prefix onboarding/offboarding, feed
//! attach/detach by handle, per-prefix [`MitigationPolicy`] swaps,
//! pause/resume, confirm-first approvals), typed queries answered
//! with owned serializable snapshots ([`service::ServiceStatus`]),
//! and a replayable [`event_log::IncidentEvent`] stream with
//! independent cursors.
//!
//! This crate is the product an operator runs, and it knows no
//! simulator: routing changes arrive as feed events, and mitigation
//! leaves as controller intents that the caller applies to its routing
//! layer ([`ArtemisService::take_due_intents`]). The paper's PEERING
//! experiments, the baselines and the run loop over a simulated
//! Internet live in `artemis_bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod classify;
pub mod config;
pub mod detector;
pub mod event_log;
pub mod metrics;
pub mod mitigation;
pub mod monitor;
pub mod pipeline;
pub mod service;
pub mod wire;

pub use alert::{Alert, AlertId, AlertState};
pub use classify::HijackType;
pub use config::{ArtemisConfig, DeaggregationPolicy, OwnedPrefix};
pub use detector::Detector;
pub use event_log::{EventCursor, EventLog, IncidentEvent, PollBatch};
pub use metrics::{StageMetrics, StageStat};
pub use mitigation::{MitigationPlan, MitigationPolicy, Mitigator};
pub use monitor::{MonitorIndex, MonitorService};
pub use pipeline::{OffboardReport, Pipeline};
pub use service::{
    ArtemisService, CommandOutcome, ServiceCommand, ServiceError, ServiceQuery, ServiceReply,
    ServiceStatus, ServiceSummary,
};
pub use wire::{
    CommandEnvelope, CommandResult, EventsEnvelope, InjectEnvelope, InjectOutcome, OutcomeEnvelope,
    QueryEnvelope, SCHEMA_VERSION,
};
