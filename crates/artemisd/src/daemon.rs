//! The network-facing daemon: an [`ArtemisService`] behind HTTP/JSON.
//!
//! [`Daemon::start`] takes ownership of a fully assembled service,
//! binds a TCP listener, and serves the control-plane API until the
//! shutdown switch fires (via [`DaemonHandle::shutdown`] or the
//! `POST /v1/shutdown` endpoint). Every route maps 1:1 onto the typed
//! in-process API — commands to [`ArtemisService::apply`], queries to
//! [`ArtemisService::query`], the event stream to
//! [`ArtemisService::poll_events`] — wrapped in the versioned
//! envelopes of [`artemis_core::wire`], so wire and in-process
//! consumers observe byte-identical histories.
//!
//! | Method | Path            | Meaning                                   |
//! |--------|-----------------|-------------------------------------------|
//! | GET    | `/healthz`      | liveness probe                            |
//! | POST   | `/v1/command`   | apply a [`CommandEnvelope`]               |
//! | POST   | `/v1/query`     | answer a [`QueryEnvelope`]                |
//! | GET    | `/v1/status`    | full [`ServiceReply::Status`] snapshot    |
//! | GET    | `/v1/prefixes`  | owned-prefix table                        |
//! | GET    | `/v1/incidents` | incident table                            |
//! | GET    | `/v1/feeds`     | feed-health table                         |
//! | GET    | `/v1/events`    | long-poll the incident stream by cursor   |
//! | POST   | `/v1/inject`    | deliver feed events (loopback/testing)    |
//! | GET    | `/v1/audit`     | the audit trail from a sequence number    |
//! | GET    | `/v1/sinks`     | registered alert sinks                    |
//! | POST   | `/v1/sinks`     | register a webhook alert sink             |
//! | GET    | `/metrics`      | Prometheus text exposition                |
//! | POST   | `/v1/shutdown`  | stop the daemon                           |
//!
//! The service clock is derived from the daemon's wall clock: `now` is
//! microseconds since daemon start as a [`SimTime`]. Command and
//! inject envelopes may carry an explicit `at` instead, which makes
//! replayed histories deterministic — the wire end-to-end tests drive
//! the daemon and an in-process twin with the same explicit
//! timestamps and require byte-identical event logs.
//!
//! Nothing between a BMP socket and a parked `/v1/events` consumer
//! sleeps on a timer. A live feed's ring signals a latch when it turns
//! non-empty and the feed pump parks on that latch; after a delivery
//! that grew the incident log the pump bumps a generation counter and
//! notifies the condvar the long-polls park on. Operator commands bump
//! the counter **without** notifying: waking the consumer while the
//! operator's reply is still being written costs the operator more
//! than it gains the consumer, so a parked poll looks at the counter
//! again at least every `LONGPOLL_PARK_CAP` (10 ms) instead. The pump's
//! [`FEED_PUMP_IDLE_TICK`] is the safety net for a lost wake and for
//! simulated feeds, which have no thread to knock with.
//!
//! [`ServiceReply::Status`]: artemis_core::ServiceReply::Status

use crate::alerts::{AlertDispatcher, WebhookSink};
use crate::audit::{AuditLog, AuditRecord};
use artemis_core::wire::{
    CommandEnvelope, CommandResult, EventsEnvelope, InjectEnvelope, InjectOutcome, OutcomeEnvelope,
    QueryEnvelope, SCHEMA_VERSION,
};
use artemis_core::{ArtemisService, EventCursor, IncidentEvent, ServiceQuery};
use artemis_feeds::WakeLatch;
use artemis_simnet::SimTime;
use minihttp::{Request, Response, Server, ShutdownSwitch};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the feed pump parks when no live ring wakes it. Not a
/// setting: live feeds are drained when their ring knocks, and this
/// only bounds how late a lost wake, a shutdown through a cloned
/// [`ShutdownSwitch`] or an event queued by a simulated feed is seen.
pub const FEED_PUMP_IDLE_TICK: Duration = Duration::from_millis(250);

/// Longest single park of a `/v1/events` long-poll before it looks at
/// the log generation (and the shutdown switch) again: the bound on
/// how late a consumer learns of an event an operator command
/// recorded, since commands do not wake it. Unit tests raise it so
/// that a notification lost on the delivery path shows as seconds
/// instead of hiding behind this bound.
const LONGPOLL_PARK_CAP: Duration = Duration::from_millis(if cfg!(test) { 3_000 } else { 10 });

/// Payload posted to alert sinks: one alert-worthy incident event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertPayload {
    /// Wire schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The event that fired the alert.
    pub event: IncidentEvent,
}

/// Body of `POST /v1/sinks`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkRequest {
    /// Webhook endpoint, `http://host:port/path`.
    pub url: String,
}

/// Daemon tuning knobs. [`DaemonConfig::default`] suits tests and the
/// loopback example; the binary maps its flags onto these fields.
pub struct DaemonConfig {
    /// Append audit records to this JSONL file as well as memory.
    pub audit_path: Option<PathBuf>,
    /// Webhook sinks registered before the daemon starts serving.
    pub webhooks: Vec<String>,
    /// Alert dispatcher queue capacity.
    pub alert_queue: usize,
    /// Delivery attempts per alert payload.
    pub alert_attempts: u32,
    /// Minimum interval between alert deliveries.
    pub alert_min_interval: Duration,
    /// How often the background thread retries queued alerts.
    pub pump_interval: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            audit_path: None,
            webhooks: Vec::new(),
            alert_queue: 256,
            alert_attempts: 3,
            alert_min_interval: Duration::from_millis(50),
            pump_interval: Duration::from_millis(200),
        }
    }
}

struct Inner {
    service: ArtemisService,
    audit: AuditLog,
    dispatcher: AlertDispatcher,
    alert_cursor: EventCursor,
}

struct Shared {
    inner: Mutex<Inner>,
    started: Instant,
    switch: ShutdownSwitch,
    /// Bumped whenever the incident log grew; long-polls park on
    /// `log_grew` until it moves.
    log_generation: Mutex<u64>,
    log_grew: Condvar,
    /// Knocked by live feeds' rings; the feed pump parks on it.
    feed_wake: WakeLatch,
    state_lock_poisoned: AtomicU64,
    feed_pump_wakeups: AtomicU64,
}

/// Whether a log append wakes parked long-polls now or lets them find
/// it at their next look (see the module docs).
#[derive(Clone, Copy, PartialEq)]
enum Publish {
    Wake,
    Quiet,
}

impl Shared {
    /// The service clock: microseconds since daemon start.
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.started.elapsed().as_micros() as u64)
    }

    fn wall_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The state lock, the one way every thread takes it. A thread
    /// that panicked while holding it must not take the pump, the
    /// retry loop and every later request down with it: the guard is
    /// recovered, the poison cleared and the takeover counted
    /// (`artemis_state_lock_poisoned_total`). Whatever the dead request
    /// left half-applied stays as it is; refusing all further service
    /// would trade one doubtful command for every later incident.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            self.state_lock_poisoned.fetch_add(1, Ordering::Relaxed);
            self.inner.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Run `f` under the state lock and, if it grew the incident log,
    /// publish that to the long-polls once the lock is released.
    fn mutate<R>(&self, publish: Publish, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = self.lock();
        let before = inner.service.event_log().total_pushed();
        let out = f(&mut inner);
        let grew = inner.service.event_log().total_pushed() > before;
        drop(inner);
        if grew {
            *self.log_generation() += 1;
            if publish == Publish::Wake {
                self.log_grew.notify_all();
            }
        }
        out
    }

    fn log_generation(&self) -> MutexGuard<'_, u64> {
        // Nothing can panic while holding a counter.
        self.log_generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Park a long-poll until the log generation moves past `seen`,
    /// shutdown is requested, or `deadline` passes.
    fn wait_for_log(&self, seen: u64, deadline: Instant) {
        let mut generation = self.log_generation();
        while *generation == seen && !self.switch.is_triggered() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            generation = self
                .log_grew
                .wait_timeout(generation, left.min(LONGPOLL_PARK_CAP))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Request shutdown and release every parked thread: the feed pump
    /// and the long-polls, which return their current batch at once.
    fn shutdown(&self) {
        self.switch.trigger();
        self.feed_wake.wake();
        // Through the mutex, so the flag cannot change between a
        // long-poll's check and its park.
        drop(self.log_generation());
        self.log_grew.notify_all();
    }
}

/// Tail the incident stream for alert-worthy events, queue them as
/// payloads, and pump the dispatcher. Called with the state lock held.
fn pump_alerts(inner: &mut Inner) {
    let batch = inner.service.poll_events(inner.alert_cursor);
    inner.alert_cursor = batch.next;
    for event in batch.events {
        let alert_worthy = matches!(
            event,
            IncidentEvent::AlertRaised { .. }
                | IncidentEvent::MitigationPending { .. }
                | IncidentEvent::MitigationTriggered { .. }
                | IncidentEvent::Resolved { .. }
        );
        if !alert_worthy {
            continue;
        }
        let payload = AlertPayload {
            schema_version: SCHEMA_VERSION,
            event,
        };
        if let Ok(json) = serde_json::to_string(&payload) {
            inner.dispatcher.enqueue(json);
        }
    }
    inner.dispatcher.pump();
}

fn json_body<T: for<'de> Deserialize<'de>>(req: &Request) -> Result<T, Response> {
    let text = req.body_utf8().map_err(Response::bad_request)?;
    serde_json::from_str(text).map_err(|e| Response::bad_request(format!("invalid body: {e}")))
}

fn reply_json<T: Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(body),
        Err(e) => Response::status(500, format!("serialization failed: {e}")),
    }
}

fn check_schema(version: u32) -> Result<(), Response> {
    if version == SCHEMA_VERSION {
        Ok(())
    } else {
        Err(Response::bad_request(format!(
            "unsupported schema_version {version}, this daemon speaks {SCHEMA_VERSION}"
        )))
    }
}

fn handle_command(shared: &Shared, req: &Request) -> Response {
    let env: CommandEnvelope = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_schema(env.schema_version) {
        return resp;
    }
    let at = env.at.unwrap_or_else(|| shared.now());
    let wall_ms = shared.wall_ms();
    let result = shared.mutate(Publish::Quiet, |inner| {
        let result = match inner.service.apply(env.command.clone(), at) {
            Ok(outcome) => CommandResult::Outcome(outcome),
            Err(error) => CommandResult::Rejected(error),
        };
        inner.audit.record(wall_ms, at, env.command, result.clone());
        pump_alerts(inner);
        result
    });
    let envelope = OutcomeEnvelope {
        schema_version: SCHEMA_VERSION,
        at,
        result,
    };
    reply_json(&envelope)
}

fn handle_query(shared: &Shared, req: &Request) -> Response {
    let env: QueryEnvelope = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_schema(env.schema_version) {
        return resp;
    }
    let at = env.at.unwrap_or_else(|| shared.now());
    let reply = shared.lock().service.query(env.query, at);
    reply_json(&reply)
}

fn handle_named_query(shared: &Shared, query: ServiceQuery) -> Response {
    let at = shared.now();
    let reply = shared.lock().service.query(query, at);
    reply_json(&reply)
}

fn handle_events(shared: &Shared, req: &Request) -> Response {
    let cursor = match req.query_param("cursor") {
        None => EventCursor::START,
        Some(raw) => match serde_json::from_str::<EventCursor>(raw) {
            Ok(c) => c,
            Err(_) => return Response::bad_request("cursor must be a sequence number"),
        },
    };
    let wait = req
        .query_param("wait_ms")
        .and_then(|w| w.parse::<u64>().ok())
        .unwrap_or(0)
        .min(30_000);
    let deadline = Instant::now() + Duration::from_millis(wait);
    loop {
        // Generation first, poll second: an append this poll misses
        // bumps the generation after it was read here, so the park
        // below returns at once — no wake falls between the two.
        let seen = *shared.log_generation();
        let batch = shared.lock().service.poll_events(cursor);
        // Return as soon as there is anything to report (events, or an
        // overrun the consumer must learn about), the wait expires or
        // the daemon is stopping; no lock is held while parked.
        if !batch.events.is_empty()
            || batch.missed > 0
            || Instant::now() >= deadline
            || shared.switch.is_triggered()
        {
            return reply_json(&EventsEnvelope::from(batch));
        }
        shared.wait_for_log(seen, deadline);
    }
}

fn handle_inject(shared: &Shared, req: &Request) -> Response {
    let env: InjectEnvelope = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_schema(env.schema_version) {
        return resp;
    }
    // A delivery, like the feed pump's: it wakes the long-polls.
    let (delivered, alerts_raised) = shared.mutate(Publish::Wake, |inner| {
        let mut delivered = 0u64;
        let mut alerts_raised = 0u64;
        for event in &env.events {
            delivered += 1;
            alerts_raised += u64::from(inner.service.deliver(event).is_some());
        }
        pump_alerts(inner);
        (delivered, alerts_raised)
    });
    reply_json(&InjectOutcome {
        schema_version: SCHEMA_VERSION,
        delivered,
        alerts_raised,
    })
}

fn handle_audit(shared: &Shared, req: &Request) -> Response {
    let from = req
        .query_param("from")
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    let records: Vec<AuditRecord> = shared.lock().audit.records_from(from).to_vec();
    reply_json(&records)
}

fn handle_metrics(shared: &Shared) -> Response {
    let inner = shared.lock();
    let pipeline = inner.service.pipeline();
    let structure = crate::metrics::StructureGauges {
        routing_nodes: pipeline.detector().routing_nodes(),
        routing_bytes: pipeline.detector().routing_bytes(),
        routing_epoch: pipeline.detector().routing_epoch().epoch(),
        retired_incidents: pipeline.retired_count(),
        timeline_coalesced_points: pipeline.timeline_coalesced_points(),
    };
    let wire: Vec<(String, artemis_feeds::WireHealth)> = pipeline
        .hub()
        .handles()
        .filter_map(|(_, feed)| feed.wire_health().map(|h| (feed.name().to_string(), h)))
        .collect();
    let daemon = crate::metrics::DaemonGauges {
        alert_queue_depth: inner.dispatcher.queued(),
        audit_records: inner.audit.len(),
        state_lock_poisoned: shared.state_lock_poisoned.load(Ordering::Relaxed),
        feed_pump_wakeups: shared.feed_pump_wakeups.load(Ordering::Relaxed),
    };
    let text = crate::metrics::render(
        &inner.service.summary(),
        inner.service.stage_metrics(),
        &structure,
        &wire,
        &inner.dispatcher.stats(),
        &daemon,
    );
    Response::text(text)
}

fn handle_sinks(shared: &Shared, req: &Request) -> Response {
    if req.method == "POST" {
        let body: SinkRequest = match json_body(req) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let sink = match WebhookSink::from_url(&body.url) {
            Ok(s) => s,
            Err(e) => return Response::bad_request(e),
        };
        let mut inner = shared.lock();
        inner.dispatcher.add_sink(Box::new(sink));
        reply_json(&inner.dispatcher.sink_names())
    } else {
        reply_json(&shared.lock().dispatcher.sink_names())
    }
}

fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text("ok\n"),
        ("POST", "/v1/command") => handle_command(shared, req),
        ("POST", "/v1/query") => handle_query(shared, req),
        ("GET", "/v1/status") => handle_named_query(shared, ServiceQuery::Status),
        ("GET", "/v1/prefixes") => handle_named_query(shared, ServiceQuery::OwnedPrefixes),
        ("GET", "/v1/incidents") => handle_named_query(shared, ServiceQuery::Incidents),
        ("GET", "/v1/feeds") => handle_named_query(shared, ServiceQuery::Feeds),
        ("GET", "/v1/events") => handle_events(shared, req),
        ("POST", "/v1/inject") => handle_inject(shared, req),
        ("GET", "/v1/audit") => handle_audit(shared, req),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/v1/sinks") | ("POST", "/v1/sinks") => handle_sinks(shared, req),
        ("POST", "/v1/shutdown") => {
            shared.shutdown();
            Response::json("{\"shutting_down\":true}").closing()
        }
        _ => Response::not_found(),
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`DaemonHandle::shutdown`] (or hit `POST /v1/shutdown` and
/// then [`DaemonHandle::wait`]).
pub struct DaemonHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    server: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
    feed_pump: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A clone of the shutdown switch, e.g. for signal handlers.
    /// Triggering it stops the daemon too, but wakes nobody: parked
    /// threads notice at their next look ([`FEED_PUMP_IDLE_TICK`] at
    /// the latest).
    pub fn switch(&self) -> ShutdownSwitch {
        self.shared.switch.clone()
    }

    /// Trigger shutdown, release every parked long-poll and join the
    /// server and pump threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown();
        self.join_threads();
    }

    /// Block until the daemon stops some other way (`POST
    /// /v1/shutdown` or a triggered switch), then join its threads.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        if let Some(feed_pump) = self.feed_pump.take() {
            let _ = feed_pump.join();
        }
    }
}

/// The operator daemon: binds, serves, pumps alerts in the background.
pub struct Daemon;

impl Daemon {
    /// Start serving `service` on `addr` (use `127.0.0.1:0` for an
    /// ephemeral port). Returns once the listener is bound; the
    /// daemon runs on background threads until shut down.
    pub fn start(
        addr: &str,
        mut service: ArtemisService,
        config: DaemonConfig,
    ) -> std::io::Result<DaemonHandle> {
        let mut dispatcher = AlertDispatcher::new(
            config.alert_queue,
            config.alert_attempts,
            config.alert_min_interval,
        );
        for url in &config.webhooks {
            let sink = WebhookSink::from_url(url)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            dispatcher.add_sink(Box::new(sink));
        }
        let audit = match &config.audit_path {
            Some(path) => AuditLog::with_file(path)?,
            None => AuditLog::in_memory(),
        };
        // Alerts raised before the daemon started (setup-time history)
        // are not paged: the alert cursor begins at the current tail.
        let alert_cursor = service.event_log().live_cursor();

        let server = Server::bind(addr)?;
        let bound = server.local_addr()?;
        let switch = server.shutdown_switch()?;

        // Every live feed — attached already or later through
        // `ServiceCommand::AttachFeed` — knocks on the pump's latch
        // when its ring turns non-empty.
        let feed_wake = WakeLatch::new();
        service
            .pipeline_mut()
            .hub_mut()
            .set_waker(feed_wake.clone());

        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                service,
                audit,
                dispatcher,
                alert_cursor,
            }),
            started: Instant::now(),
            switch,
            log_generation: Mutex::new(0),
            log_grew: Condvar::new(),
            feed_wake,
            state_lock_poisoned: AtomicU64::new(0),
            feed_pump_wakeups: AtomicU64::new(0),
        });

        let server_shared = Arc::clone(&shared);
        let server_thread = std::thread::spawn(move || {
            let _ = server.serve(move |req| route(&server_shared, req));
        });

        // Background retry loop: queued alert payloads whose sinks were
        // down (or rate-limited) are retried even when no request
        // arrives to pump them.
        let pump_shared = Arc::clone(&shared);
        let pump_interval = config.pump_interval;
        let pump_thread = std::thread::spawn(move || {
            while !pump_shared.switch.is_triggered() {
                std::thread::sleep(pump_interval);
                pump_alerts(&mut pump_shared.lock());
            }
        });

        // Feed pump: parked until a live ring knocks (or the idle tick
        // passes), then drains the feeds through detection, pages any
        // alerts the delivered events raised without waiting for the
        // slower alert retry tick, and wakes the long-polls if the
        // incident log grew.
        let feed_shared = Arc::clone(&shared);
        let feed_thread = std::thread::spawn(move || {
            while !feed_shared.switch.is_triggered() {
                feed_shared.feed_wake.wait(FEED_PUMP_IDLE_TICK);
                feed_shared
                    .feed_pump_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                let now = feed_shared.now();
                feed_shared.mutate(Publish::Wake, |inner| {
                    if inner.service.pump_feeds(now) > 0 {
                        pump_alerts(inner);
                    }
                });
            }
        });

        Ok(DaemonHandle {
            addr: bound,
            shared,
            server: Some(server_thread),
            pump: Some(pump_thread),
            feed_pump: Some(feed_thread),
        })
    }
}

#[cfg(test)]
mod tests;
