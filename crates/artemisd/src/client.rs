//! Typed client for the daemon's control-plane API.
//!
//! [`CtlClient`] wraps [`minihttp::Client`] and speaks the same
//! versioned envelopes as the daemon, so callers deal in
//! [`ServiceCommand`]/[`ServiceReply`] values and never see JSON. The
//! `artemisctl` binary is a thin argument parser over this type; the
//! wire end-to-end tests drive the daemon through it.

use crate::audit::AuditRecord;
use crate::daemon::SinkRequest;
use artemis_core::service::ServiceStatus;
use artemis_core::wire::{
    CommandEnvelope, EventsEnvelope, InjectEnvelope, InjectOutcome, OutcomeEnvelope, QueryEnvelope,
};
use artemis_core::{EventCursor, ServiceCommand, ServiceQuery, ServiceReply};
use artemis_feeds::WireFeedEvent;
use artemis_simnet::SimTime;
use minihttp::{Client, ClientResponse};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::time::Duration;

/// A typed HTTP client for one daemon instance.
pub struct CtlClient {
    http: Client,
}

fn expect_success(resp: ClientResponse) -> Result<ClientResponse, String> {
    if resp.is_success() {
        Ok(resp)
    } else {
        Err(format!("HTTP {}: {}", resp.status, resp.body_utf8()))
    }
}

impl CtlClient {
    /// A client for the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> CtlClient {
        CtlClient {
            http: Client::new(addr).with_timeout(Duration::from_secs(35)),
        }
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        self.http.addr()
    }

    fn get_json<T: DeserializeOwned>(&self, path: &str) -> Result<T, String> {
        let resp = self.http.get(path).map_err(|e| e.to_string())?;
        let resp = expect_success(resp)?;
        serde_json::from_slice(&resp.body).map_err(|e| format!("bad response body: {e}"))
    }

    fn post_json<B: Serialize, T: DeserializeOwned>(
        &self,
        path: &str,
        body: &B,
    ) -> Result<T, String> {
        let body = serde_json::to_string(body).map_err(|e| e.to_string())?;
        let resp = self
            .http
            .post(path, "application/json", &body)
            .map_err(|e| e.to_string())?;
        let resp = expect_success(resp)?;
        serde_json::from_slice(&resp.body).map_err(|e| format!("bad response body: {e}"))
    }

    /// Liveness probe (`GET /healthz`).
    pub fn healthz(&self) -> Result<(), String> {
        let resp = self.http.get("/healthz").map_err(|e| e.to_string())?;
        expect_success(resp).map(|_| ())
    }

    /// Send a pre-built command envelope (`POST /v1/command`).
    pub fn command(&self, envelope: &CommandEnvelope) -> Result<OutcomeEnvelope, String> {
        self.post_json("/v1/command", envelope)
    }

    /// Apply one command, optionally at an explicit service-clock
    /// instant (absent: the daemon stamps its own clock).
    pub fn apply(
        &self,
        command: ServiceCommand,
        at: Option<SimTime>,
    ) -> Result<OutcomeEnvelope, String> {
        let mut envelope = CommandEnvelope::new(command);
        if let Some(at) = at {
            envelope = envelope.at(at);
        }
        self.command(&envelope)
    }

    /// Answer one typed query (`POST /v1/query`).
    pub fn query(&self, query: ServiceQuery) -> Result<ServiceReply, String> {
        self.post_json("/v1/query", &QueryEnvelope::new(query))
    }

    /// The full service snapshot (`GET /v1/status`).
    pub fn status(&self) -> Result<ServiceStatus, String> {
        match self.get_json::<ServiceReply>("/v1/status")? {
            ServiceReply::Status(status) => Ok(status),
            other => Err(format!("expected a status reply, got {other:?}")),
        }
    }

    /// Long-poll the incident stream (`GET /v1/events`). Waits up to
    /// `wait_ms` (server-capped at 30 s) for events past `cursor`.
    pub fn events(&self, cursor: EventCursor, wait_ms: u64) -> Result<EventsEnvelope, String> {
        self.get_json(&format!(
            "/v1/events?cursor={}&wait_ms={wait_ms}",
            cursor.sequence()
        ))
    }

    /// Deliver feed events through the daemon (`POST /v1/inject`), as
    /// v2 wire events: a [`WireFeedEvent`] with its collector and full
    /// path, or an [`artemis_feeds::FeedEvent`] rendered with the
    /// shortest path that reads the same.
    pub fn inject<E: Into<WireFeedEvent>>(
        &self,
        events: impl IntoIterator<Item = E>,
    ) -> Result<InjectOutcome, String> {
        let events = events.into_iter().map(Into::into).collect();
        self.post_json("/v1/inject", &InjectEnvelope::new(events))
    }

    /// The audit trail from sequence number `from` (`GET /v1/audit`).
    pub fn audit(&self, from: u64) -> Result<Vec<AuditRecord>, String> {
        self.get_json(&format!("/v1/audit?from={from}"))
    }

    /// Registered alert-sink names (`GET /v1/sinks`).
    pub fn sinks(&self) -> Result<Vec<String>, String> {
        self.get_json("/v1/sinks")
    }

    /// Register a webhook alert sink (`POST /v1/sinks`); returns the
    /// updated sink list.
    pub fn add_webhook(&self, url: &str) -> Result<Vec<String>, String> {
        self.post_json(
            "/v1/sinks",
            &SinkRequest {
                url: url.to_string(),
            },
        )
    }

    /// One Prometheus scrape (`GET /metrics`), as raw exposition text.
    pub fn metrics_text(&self) -> Result<String, String> {
        let resp = self.http.get("/metrics").map_err(|e| e.to_string())?;
        expect_success(resp).map(|r| r.body_utf8())
    }

    /// Stop the daemon (`POST /v1/shutdown`).
    pub fn shutdown(&self) -> Result<(), String> {
        let resp = self
            .http
            .post("/v1/shutdown", "application/json", "{}")
            .map_err(|e| e.to_string())?;
        expect_success(resp).map(|_| ())
    }
}
