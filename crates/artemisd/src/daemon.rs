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
//! non-empty and the feed pump parks on that latch. Whatever grew the
//! incident log bumps a generation counter and notifies the condvar
//! that long-polls and pagers park on: the feed pump once it releases
//! the state lock, a request (a command, an inject) once its reply is
//! written, since waking the readers while the reply is being written
//! costs the requester more than it gains them. A parked thread leaves
//! its park only on that notify, a stop or its own deadline: nothing
//! re-checks on a timer, so an idle daemon sleeps.
//! Every stop goes through the daemon's own shutdown, which notifies
//! too. The pump's [`FEED_PUMP_IDLE_TICK`] is the safety net for a
//! lost ring wake and for simulated feeds, which have no thread to
//! knock with. `artemis_log_park_wakeups_total` counts the parks left.
//!
//! One mutex guards the service and the audit log; under it run only
//! the service's own work (a pump's detection, a command, a query, an
//! inject) and the copies a reply needs. No handler and not the feed
//! pump pages alerts. Each registered webhook sink has a pager thread
//! of its own (at most [`MAX_SINKS`]) that reads the incident log by
//! cursor exactly as a long-poll does: it takes the new entries under
//! the lock, releases it, builds and delivers the alert-worthy ones,
//! and parks on the same generation counter. So a page leaves as soon
//! as its entry is published, whoever appended it. A dead sink delays
//! only its own pages, never another sink's, detection, a long-poll or
//! a command; with no sink registered no pager runs. The log is the
//! only buffer: entries evicted before a pager read them are counted as
//! overflow. Nor does a dead sink hold up a stop: once the server has
//! returned, the webhooks' clients are closed, which ends a delivery in
//! flight at once instead of after the sink's 5 s timeout.
//!
//! JSON never goes through a tree. A request body is parsed straight
//! into its envelope type by the vendored `serde_json`'s streaming
//! parser, which refuses arrays and objects nested deeper than
//! [`serde_json::MAX_DEPTH`] (128): such a body is a 400 `invalid
//! body`, not a handler recursing until its stack overflows and aborts
//! the process. A reply is written straight into its body `String`.
//!
//! [`ServiceReply::Status`]: artemis_core::ServiceReply::Status

use crate::alerts::{DispatchStats, Pager, PagerState, WebhookSink, MAX_SINKS};
use crate::audit::{AuditLog, AuditRecord};
use artemis_core::wire::{
    CommandEnvelope, CommandResult, EventsEnvelope, InjectEnvelope, InjectOutcome, OutcomeEnvelope,
    QueryEnvelope, SCHEMA_VERSION,
};
use artemis_core::{ArtemisService, EventCursor, IncidentEvent, ServiceQuery};
use artemis_feeds::{FeedEvent, WakeLatch};
use artemis_simnet::SimTime;
use minihttp::{Request, Response, Server, ShutdownSwitch};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the feed pump parks when no live ring wakes it. Not a
/// setting: live feeds are drained when their ring knocks, and this
/// only bounds how late a lost ring wake or an event queued by a
/// simulated feed is seen. A stop wakes the pump at once.
pub const FEED_PUMP_IDLE_TICK: Duration = Duration::from_millis(250);

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

/// Daemon settings. [`DaemonConfig::default`] suits tests and the
/// loopback example; the binary maps its flags onto these fields.
#[derive(Default)]
pub struct DaemonConfig {
    /// Append audit records to this JSONL file as well as memory.
    pub audit_path: Option<PathBuf>,
    /// Webhook sinks registered before the daemon starts serving.
    pub webhooks: Vec<String>,
}

struct Inner {
    service: ArtemisService,
    audit: AuditLog,
}

/// A registered webhook and the thread paging it.
struct SinkSlot {
    name: String,
    /// A clone of the sink's client, closed at shutdown to end a
    /// delivery the pager is blocked in.
    client: minihttp::Client,
    state: Arc<Mutex<PagerState>>,
    pager: JoinHandle<()>,
}

struct Shared {
    inner: Mutex<Inner>,
    started: Instant,
    switch: ShutdownSwitch,
    /// Bumped whenever the incident log grew; long-polls and pagers
    /// park on `log_grew` until it moves.
    log_generation: Mutex<u64>,
    log_grew: Condvar,
    /// Knocked by live feeds' rings; the feed pump parks on it.
    feed_wake: WakeLatch,
    /// Registered webhooks, in registration order.
    sinks: Mutex<Vec<SinkSlot>>,
    state_lock_poisoned: AtomicU64,
    feed_pump_wakeups: AtomicU64,
    feed_pump_panics: AtomicU64,
    /// Returns from a park on `log_grew`, by any thread.
    log_park_wakeups: AtomicU64,
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

    /// Run `f` under the state lock. Also returns whether `f` grew the
    /// incident log, which the caller must then [`Shared::publish`].
    fn mutate<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> (R, bool) {
        let mut inner = self.lock();
        let before = inner.service.event_log().total_pushed();
        let out = f(&mut inner);
        let grew = inner.service.event_log().total_pushed() > before;
        (out, grew)
    }

    /// Wake every long-poll and pager parked on the log: it grew.
    fn publish(&self) {
        *self.log_generation() += 1;
        self.log_grew.notify_all();
    }

    fn sinks(&self) -> MutexGuard<'_, Vec<SinkSlot>> {
        // Nothing panics while holding the sink list.
        self.sinks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn log_generation(&self) -> MutexGuard<'_, u64> {
        // Nothing can panic while holding a counter.
        self.log_generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Park a long-poll or a pager until the log generation moves past
    /// `seen`, shutdown is requested, or `deadline` passes.
    fn wait_for_log(&self, seen: u64, deadline: Instant) {
        let mut generation = self.log_generation();
        while *generation == seen && !self.switch.is_triggered() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            generation = self
                .log_grew
                .wait_timeout(generation, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            self.log_park_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Wait `wait` unless shutdown is requested first; false once it is.
    fn pause(&self, wait: Duration) -> bool {
        let deadline = Instant::now() + wait;
        while !self.switch.is_triggered() && Instant::now() < deadline {
            let seen = *self.log_generation();
            self.wait_for_log(seen, deadline);
        }
        !self.switch.is_triggered()
    }

    /// Request shutdown and release every parked thread: the feed pump,
    /// the pagers and the long-polls, which return their current batch
    /// at once.
    fn shutdown(&self) {
        self.switch.trigger();
        self.feed_wake.wake();
        // Through the mutex, so the flag cannot change between a
        // long-poll's check and its park.
        drop(self.log_generation());
        self.log_grew.notify_all();
    }
}

/// Whether an incident event pages the sinks.
fn alert_worthy(event: &IncidentEvent) -> bool {
    matches!(
        event,
        IncidentEvent::AlertRaised { .. }
            | IncidentEvent::MitigationPending { .. }
            | IncidentEvent::MitigationTriggered { .. }
            | IncidentEvent::Resolved { .. }
    )
}

/// A sink's pager thread (see the module docs): reads the log by
/// cursor like a long-poll and pages the alert-worthy entries with the
/// state lock released.
fn page_sink(shared: &Shared, mut pager: Pager) {
    while !shared.switch.is_triggered() {
        let seen = *shared.log_generation();
        let from = pager.cursor();
        let batch = shared.lock().service.poll_events(from);
        pager.read(batch.next, batch.missed);
        for event in batch.events.into_iter().filter(alert_worthy) {
            let payload = AlertPayload {
                schema_version: SCHEMA_VERSION,
                event,
            };
            let Ok(json) = serde_json::to_string(&payload) else {
                continue;
            };
            if !pager.page(&json, |wait| shared.pause(wait)) {
                return;
            }
        }
        // No deadline of its own: a new entry or a stop ends the park.
        shared.wait_for_log(seen, Instant::now() + Duration::from_secs(3600));
    }
}

/// Register `sink` in `sinks` and start its pager at the log's tail:
/// nothing raised before a sink exists is paged to it.
fn add_sink(shared: &Arc<Shared>, sinks: &mut Vec<SinkSlot>, sink: WebhookSink) {
    let (name, client) = (sink.name().to_string(), sink.client().clone());
    let tail = shared.lock().service.event_log().live_cursor();
    let pager = Pager::new(sink, tail);
    let state = pager.state();
    let pager_shared = Arc::clone(shared);
    let pager = std::thread::spawn(move || page_sink(&pager_shared, pager));
    sinks.push(SinkSlot {
        name,
        client,
        state,
        pager,
    });
}

/// `response`, and once it is written, if the request grew the log,
/// [`Shared::publish`] that (see the module docs).
fn publish_after(shared: &Arc<Shared>, grew: bool, response: Response) -> Response {
    if !grew {
        return response;
    }
    let shared = Arc::clone(shared);
    response.then(move || shared.publish())
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

fn handle_command(shared: &Arc<Shared>, req: &Request) -> Response {
    let env: CommandEnvelope = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_schema(env.schema_version) {
        return resp;
    }
    let at = env.at.unwrap_or_else(|| shared.now());
    let wall_ms = shared.wall_ms();
    let (result, grew) = shared.mutate(|inner| {
        let result = match inner.service.apply(env.command.clone(), at) {
            Ok(outcome) => CommandResult::Outcome(outcome),
            Err(error) => CommandResult::Rejected(error),
        };
        inner.audit.record(wall_ms, at, env.command, result.clone());
        result
    });
    let envelope = OutcomeEnvelope {
        schema_version: SCHEMA_VERSION,
        at,
        result,
    };
    publish_after(shared, grew, reply_json(&envelope))
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

fn handle_inject(shared: &Arc<Shared>, req: &Request) -> Response {
    let env: InjectEnvelope = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(resp) = check_schema(env.schema_version) {
        return resp;
    }
    let ((delivered, alerts_raised), grew) = shared.mutate(|inner| {
        let mut delivered = 0u64;
        let mut alerts_raised = 0u64;
        for event in env.events {
            delivered += 1;
            let event = FeedEvent::from(event);
            alerts_raised += u64::from(inner.service.deliver(&event).is_some());
        }
        (delivered, alerts_raised)
    });
    let outcome = InjectOutcome {
        schema_version: SCHEMA_VERSION,
        delivered,
        alerts_raised,
    };
    publish_after(shared, grew, reply_json(&outcome))
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
    let mut dispatch = DispatchStats::default();
    let mut read = Vec::new();
    for slot in shared.sinks().iter() {
        let state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        dispatch += state.stats;
        read.push(state.next.sequence());
    }
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
    let pushed = inner.service.event_log().total_pushed();
    let daemon = crate::metrics::DaemonGauges {
        alert_queue_depth: read.iter().map(|next| pushed.saturating_sub(*next)).sum(),
        audit_records: inner.audit.len(),
        audit_write_errors: inner.audit.write_errors(),
        state_lock_poisoned: shared.state_lock_poisoned.load(Ordering::Relaxed),
        feed_pump_wakeups: shared.feed_pump_wakeups.load(Ordering::Relaxed),
        feed_pump_panics: shared.feed_pump_panics.load(Ordering::Relaxed),
        log_park_wakeups: shared.log_park_wakeups.load(Ordering::Relaxed),
    };
    let text = crate::metrics::render(
        &inner.service.summary(),
        inner.service.stage_metrics(),
        &structure,
        &wire,
        &dispatch,
        &daemon,
    );
    Response::text(text)
}

fn handle_sinks(shared: &Arc<Shared>, req: &Request) -> Response {
    let mut sinks = shared.sinks();
    if req.method == "POST" {
        let body: SinkRequest = match json_body(req) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let sink = match WebhookSink::from_url(&body.url) {
            Ok(s) => s,
            Err(e) => return Response::bad_request(e),
        };
        if sinks.len() >= MAX_SINKS {
            return Response::bad_request(format!("at most {MAX_SINKS} sinks"));
        }
        add_sink(shared, &mut sinks, sink);
    }
    reply_json(&sinks.iter().map(|s| &s.name).collect::<Vec<_>>())
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
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
    feed_pump: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Trigger shutdown, release every parked long-poll and join the
    /// server and pump threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown();
        self.join_threads();
    }

    /// Block until the daemon is stopped over the wire (`POST
    /// /v1/shutdown`), then join its threads.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        // The server returns once the switch has fired, and no sink is
        // added after it. A webhook that never
        // answers would now hold its pager for the rest of its 5 s
        // timeout: end that delivery (and fail any later one at once)
        // instead of waiting it out.
        let sinks = std::mem::take(&mut *self.shared.sinks());
        for slot in &sinks {
            slot.client.close();
        }
        for slot in sinks {
            let _ = slot.pager.join();
        }
        if let Some(feed_pump) = self.feed_pump.take() {
            let _ = feed_pump.join();
        }
    }
}

/// The operator daemon: binds, serves, pages alerts in the background.
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
        let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        if config.webhooks.len() > MAX_SINKS {
            return Err(invalid(format!("at most {MAX_SINKS} webhooks")));
        }
        let webhooks = config
            .webhooks
            .iter()
            .map(|url| WebhookSink::from_url(url))
            .collect::<Result<Vec<_>, _>>()
            .map_err(invalid)?;
        let audit = match &config.audit_path {
            Some(path) => AuditLog::with_file(path)?,
            None => AuditLog::in_memory(),
        };

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
            inner: Mutex::new(Inner { service, audit }),
            started: Instant::now(),
            switch,
            log_generation: Mutex::new(0),
            log_grew: Condvar::new(),
            feed_wake,
            sinks: Mutex::default(),
            state_lock_poisoned: AtomicU64::new(0),
            feed_pump_wakeups: AtomicU64::new(0),
            feed_pump_panics: AtomicU64::new(0),
            log_park_wakeups: AtomicU64::new(0),
        });

        // Alerts raised before the daemon started (setup-time history)
        // are not paged: each pager begins at the current tail.
        let mut sinks = shared.sinks();
        for sink in webhooks {
            add_sink(&shared, &mut sinks, sink);
        }
        drop(sinks);

        let server_shared = Arc::clone(&shared);
        let server_thread = std::thread::spawn(move || {
            let _ = server.serve(move |req| route(&server_shared, req));
        });

        // Feed pump: parked until a live ring knocks (or the idle tick
        // passes), then drains the feeds through detection and wakes
        // the long-polls and the pagers if the incident log grew. An iteration that panics (a feed or a stage
        // hitting a bug) is counted (`artemis_feed_pump_panics_total`)
        // and the pump goes on: a dead pump would stop detection with
        // no signal. Like a poisoned lock, whatever the panic left
        // half-done stays as it is.
        let feed_shared = Arc::clone(&shared);
        let feed_thread = std::thread::spawn(move || {
            while !feed_shared.switch.is_triggered() {
                feed_shared.feed_wake.wait(FEED_PUMP_IDLE_TICK);
                feed_shared
                    .feed_pump_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                let now = feed_shared.now();
                let pumped = catch_unwind(AssertUnwindSafe(|| {
                    feed_shared.mutate(|inner| inner.service.pump_feeds(now))
                }));
                match pumped {
                    Ok((_, true)) => feed_shared.publish(),
                    Ok((_, false)) => {}
                    Err(_) => {
                        feed_shared.feed_pump_panics.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });

        Ok(DaemonHandle {
            addr: bound,
            shared,
            server: Some(server_thread),
            feed_pump: Some(feed_thread),
        })
    }
}

#[cfg(test)]
mod tests;
