//! # artemisd — the network-facing ARTEMIS operator daemon
//!
//! The paper positions ARTEMIS as a service an operator *runs*: a
//! self-operated process watching the control plane for hijacks of the
//! operator's own prefixes and mitigating them automatically. The core
//! crates provide that system as a library ([`ArtemisService`]); this
//! crate provides the process. [`Daemon`] wraps a fully assembled
//! service behind a minimal HTTP/1.1 server (vendored
//! [`minihttp`], plain `std::net` — no async runtime) and exposes:
//!
//! * the full typed command/query API under versioned JSON envelopes
//!   (`POST /v1/command`, `POST /v1/query`, plus GET conveniences);
//! * the replayable incident stream as a cursor-based long-poll
//!   (`GET /v1/events?cursor=N&wait_ms=M`), with ring overruns
//!   surfaced as a `missed` count;
//! * Prometheus text metrics (`GET /metrics`): per-stage wall-clock
//!   batch latency, per-feed lag, incidents by
//!   mitigation phase;
//! * an append-only [`AuditLog`] of every operator command with its
//!   outcome, optionally persisted as JSON lines;
//! * webhook alert sinks ([`WebhookSink`]) paged about raised,
//!   pending, triggered and resolved incidents, each by a thread of
//!   its own that reads the incident log by cursor like a long-poll
//!   and retries a refused page a bounded number of times.
//!
//! [`CtlClient`] is the matching typed client; the `artemisd` and
//! `artemisctl` binaries are thin flag parsers over [`Daemon`] and
//! [`CtlClient`] respectively.
//!
//! [`ArtemisService`]: artemis_core::ArtemisService

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alerts;
pub mod audit;
pub mod client;
pub mod daemon;
pub mod metrics;

pub use alerts::{DispatchStats, WebhookSink, MAX_SINKS};
pub use audit::{AuditLog, AuditRecord};
pub use client::CtlClient;
pub use daemon::{AlertPayload, Daemon, DaemonConfig, DaemonHandle, SinkRequest};
