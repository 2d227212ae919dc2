//! Webhook alert sinks and the pager that feeds each one.
//!
//! A confirmed hijack is only useful if it pages someone. The daemon
//! gives every registered [`WebhookSink`] a thread of its own that
//! reads the incident log by cursor, exactly as a `/v1/events`
//! long-poll does, and hands each alert-worthy event to a `Pager`
//! (see the daemon module docs). The log is the only buffer: a sink
//! that falls further behind than the log retains misses the evicted
//! entries, and its pager counts them as overflow, so a dead webhook
//! cannot OOM the daemon. A pager offers each payload up to
//! [`ALERT_ATTEMPTS`] times, [`ALERT_RETRY_TICK`] apart, and keeps
//! [`ALERT_MIN_INTERVAL`] between its own deliveries so an incident
//! storm does not DoS the receiver. A sink that never answers delays
//! only its own pages.

use artemis_core::EventCursor;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Most webhook sinks one daemon pages; each owns a thread.
pub const MAX_SINKS: usize = 16;

/// Delivery attempts per payload before it is dropped as failed.
pub const ALERT_ATTEMPTS: u32 = 3;

/// Time from one attempt at a refused payload to the next.
pub const ALERT_RETRY_TICK: Duration = Duration::from_millis(200);

/// Least time between two delivery attempts to one sink.
pub const ALERT_MIN_INTERVAL: Duration = Duration::from_millis(50);

/// How long one delivery waits for the webhook to connect and answer.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(5);

/// A sink POSTing payloads to an HTTP endpoint (`http://host:port/path`).
pub struct WebhookSink {
    name: String,
    client: minihttp::Client,
    path: String,
}

impl WebhookSink {
    /// Build a sink from an `http://host:port/path` URL. The port is
    /// required, and every character must be printable ASCII with no
    /// space: the host and path are written verbatim into each
    /// request's head, where a CR or LF would start a header of the
    /// URL's choosing.
    pub fn from_url(url: &str) -> Result<WebhookSink, String> {
        if let Some(c) = url.chars().find(|c| !c.is_ascii_graphic()) {
            return Err(format!("webhook URL must not contain {c:?}: {url:?}"));
        }
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| format!("webhook URL must start with http://: {url}"))?;
        let (addr, path) = match rest.split_once('/') {
            Some((a, p)) => (a, format!("/{p}")),
            None => (rest, "/".to_string()),
        };
        let has_port = addr.rsplit_once(':').is_some_and(|(host, port)| {
            !host.is_empty() && port.parse::<u16>().is_ok_and(|p| p != 0)
        });
        if !has_port {
            return Err(format!("webhook URL needs http://host:port: {url}"));
        }
        Ok(WebhookSink {
            name: url.to_string(),
            client: minihttp::Client::new(addr).with_timeout(DELIVERY_TIMEOUT),
            path,
        })
    }

    /// The URL the sink was registered with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The HTTP client deliveries go through. A clone shares its
    /// connections, so [`minihttp::Client::close`] on one ends a
    /// delivery in flight from another thread.
    pub fn client(&self) -> &minihttp::Client {
        &self.client
    }

    fn deliver(&self, payload: &str) -> Result<(), String> {
        match self.client.post(&self.path, "application/json", payload) {
            Ok(resp) if resp.is_success() => Ok(()),
            Ok(resp) => Err(format!("webhook returned {}", resp.status)),
            Err(e) => Err(format!("webhook unreachable: {e}")),
        }
    }
}

/// Paging counters; `/metrics` sums them over sinks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Alert payloads built for delivery.
    pub enqueued: u64,
    /// Payloads a sink accepted.
    pub delivered: u64,
    /// Incident-log entries evicted before the sink read them.
    pub dropped_overflow: u64,
    /// Payloads dropped after [`ALERT_ATTEMPTS`] refused attempts.
    pub dropped_failed: u64,
}

impl std::ops::AddAssign for DispatchStats {
    fn add_assign(&mut self, other: DispatchStats) {
        self.enqueued += other.enqueued;
        self.delivered += other.delivered;
        self.dropped_overflow += other.dropped_overflow;
        self.dropped_failed += other.dropped_failed;
    }
}

/// What a [`Pager`] has done so far, shared with whoever reports it.
#[derive(Debug, Default)]
pub(crate) struct PagerState {
    /// The pager's counters.
    pub(crate) stats: DispatchStats,
    /// The first incident-log entry the pager has not read.
    pub(crate) next: EventCursor,
}

/// Pages one [`WebhookSink`]: offers each payload up to
/// [`ALERT_ATTEMPTS`] times and keeps its counters and log position in
/// a [`PagerState`] that others may read.
pub(crate) struct Pager {
    sink: WebhookSink,
    state: Arc<Mutex<PagerState>>,
    last_attempt: Option<Instant>,
}

impl Pager {
    /// A pager for `sink` whose first read of the log starts at `from`.
    pub(crate) fn new(sink: WebhookSink, from: EventCursor) -> Pager {
        let state = PagerState {
            stats: DispatchStats::default(),
            next: from,
        };
        Pager {
            sink,
            state: Arc::new(Mutex::new(state)),
            last_attempt: None,
        }
    }

    /// The pager's counters and log position, as it updates them.
    pub(crate) fn state(&self) -> Arc<Mutex<PagerState>> {
        Arc::clone(&self.state)
    }

    fn lock(&self) -> MutexGuard<'_, PagerState> {
        // Nothing panics while holding a pager's state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where the pager's next read of the log starts.
    pub(crate) fn cursor(&self) -> EventCursor {
        self.lock().next
    }

    /// Record a read of the log that ends before `next`, after
    /// `missed` entries were evicted unread.
    pub(crate) fn read(&self, next: EventCursor, missed: u64) {
        let mut state = self.lock();
        state.next = next;
        state.stats.dropped_overflow += missed;
    }

    /// Deliver `payload`: at most [`ALERT_ATTEMPTS`] attempts, each at
    /// least [`ALERT_MIN_INTERVAL`] after the pager's previous attempt
    /// and [`ALERT_RETRY_TICK`] after a refused one. `pause(wait)`
    /// waits that long. When it returns false (the owner is stopping),
    /// `page` gives the payload up, counted neither delivered nor
    /// dropped, and returns false.
    pub(crate) fn page(&mut self, payload: &str, mut pause: impl FnMut(Duration) -> bool) -> bool {
        self.lock().stats.enqueued += 1;
        for attempt in 0..ALERT_ATTEMPTS {
            let gap = if attempt == 0 {
                ALERT_MIN_INTERVAL
            } else {
                ALERT_RETRY_TICK
            };
            let wait = self
                .last_attempt
                .map_or(Duration::ZERO, |last| gap.saturating_sub(last.elapsed()));
            if !wait.is_zero() && !pause(wait) {
                return false;
            }
            self.last_attempt = Some(Instant::now());
            if self.sink.deliver(payload).is_ok() {
                self.lock().stats.delivered += 1;
                return true;
            }
        }
        self.lock().stats.dropped_failed += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A webhook receiver on loopback that refuses its first `refuse`
    /// requests with a 500 and records the bodies it accepts.
    struct Receiver {
        url: String,
        requests: Arc<Mutex<u32>>,
        accepted: Arc<Mutex<Vec<String>>>,
        switch: minihttp::ShutdownSwitch,
        thread: std::thread::JoinHandle<()>,
    }

    impl Receiver {
        fn start(refuse: u32) -> Receiver {
            let server = minihttp::Server::bind("127.0.0.1:0").unwrap();
            let url = format!("http://{}/hook", server.local_addr().unwrap());
            let switch = server.shutdown_switch().unwrap();
            let requests: Arc<Mutex<u32>> = Arc::default();
            let accepted: Arc<Mutex<Vec<String>>> = Arc::default();
            let (seen, store) = (Arc::clone(&requests), Arc::clone(&accepted));
            let thread = std::thread::spawn(move || {
                let _ = server.serve(move |req| {
                    let mut seen = seen.lock().unwrap();
                    *seen += 1;
                    if *seen <= refuse {
                        return minihttp::Response::status(500, "refused");
                    }
                    let body = req.body_utf8().unwrap().to_string();
                    store.lock().unwrap().push(body);
                    minihttp::Response::json("{}")
                });
            });
            Receiver {
                url,
                requests,
                accepted,
                switch,
                thread,
            }
        }

        fn pager(&self) -> Pager {
            Pager::new(
                WebhookSink::from_url(&self.url).unwrap(),
                EventCursor::START,
            )
        }

        /// Stop the receiver; returns (requests seen, bodies accepted).
        fn stop(self) -> (u32, Vec<String>) {
            self.switch.trigger();
            self.thread.join().unwrap();
            let requests = *self.requests.lock().unwrap();
            (requests, self.accepted.lock().unwrap().clone())
        }
    }

    fn sleep(wait: Duration) -> bool {
        std::thread::sleep(wait);
        true
    }

    #[test]
    fn delivers_in_order_with_retries() {
        let receiver = Receiver::start(2);
        let mut pager = receiver.pager();
        let started = Instant::now();
        assert!(pager.page("a", sleep));
        assert!(
            started.elapsed() >= 2 * ALERT_RETRY_TICK,
            "two refusals, each followed by a retry tick"
        );
        assert!(pager.page("b", sleep));
        assert_eq!(receiver.stop(), (4, vec!["a".into(), "b".into()]));
        let stats = pager.state().lock().unwrap().stats;
        assert_eq!((stats.enqueued, stats.delivered), (2, 2));
    }

    #[test]
    fn exhausted_attempts_drop_the_payload_and_count_it() {
        let receiver = Receiver::start(ALERT_ATTEMPTS);
        let mut pager = receiver.pager();
        assert!(pager.page("doomed", sleep));
        assert!(pager.page("fine", sleep));
        assert_eq!(receiver.stop(), (ALERT_ATTEMPTS + 1, vec!["fine".into()]));
        let stats = pager.state().lock().unwrap().stats;
        assert_eq!((stats.delivered, stats.dropped_failed), (1, 1));
    }

    #[test]
    fn rate_limit_defers_delivery() {
        let receiver = Receiver::start(0);
        let mut pager = receiver.pager();
        let mut pauses = Vec::new();
        let started = Instant::now();
        pager.page("a", |wait| {
            pauses.push(wait);
            sleep(wait)
        });
        assert!(pauses.is_empty(), "the first delivery is immediate");
        pager.page("b", sleep);
        assert!(started.elapsed() >= ALERT_MIN_INTERVAL, "the second waits");
        assert_eq!(receiver.stop().1, ["a", "b"]);
    }

    #[test]
    fn a_stopping_owner_ends_the_retries() {
        let receiver = Receiver::start(u32::MAX);
        let mut pager = receiver.pager();
        assert!(!pager.page("a", |_| false), "given up at the first pause");
        assert_eq!(receiver.stop().0, 1);
        let stats = pager.state().lock().unwrap().stats;
        assert_eq!((stats.delivered, stats.dropped_failed), (0, 0));
    }

    /// The incident log drops its oldest entries when full; a pager
    /// that reads after them counts them as overflow.
    #[test]
    fn overflow_drops_oldest() {
        use artemis_core::{AlertId, EventLog, IncidentEvent};
        use artemis_simnet::SimTime;
        let mut log = EventLog::with_capacity(2);
        let pager = Pager::new(
            WebhookSink::from_url("http://127.0.0.1:9/hook").unwrap(),
            log.live_cursor(),
        );
        for secs in 1..=3 {
            log.push(IncidentEvent::Resolved {
                alert: AlertId(0),
                at: SimTime::from_secs(secs),
            });
        }
        let batch = log.poll(pager.cursor());
        pager.read(batch.next, batch.missed);
        let kept: Vec<_> = batch.events.iter().map(IncidentEvent::at).collect();
        assert_eq!(kept, [SimTime::from_secs(2), SimTime::from_secs(3)]);
        assert_eq!(pager.cursor(), log.live_cursor());
        assert_eq!(pager.state().lock().unwrap().stats.dropped_overflow, 1);
    }

    #[test]
    fn webhook_url_parsing() {
        assert!(WebhookSink::from_url("http://127.0.0.1:9999/hook").is_ok());
        assert!(WebhookSink::from_url("http://127.0.0.1:9999").is_ok());
        assert!(WebhookSink::from_url("http://[::1]:9999/hook").is_ok());
        assert!(WebhookSink::from_url("https://x/y").is_err());
        assert!(WebhookSink::from_url("http:///y").is_err());
        assert!(WebhookSink::from_url("http://:9999/y").is_err());
    }

    #[test]
    fn a_webhook_url_needs_a_port_and_no_raw_whitespace() {
        for url in [
            "http://127.0.0.1/hook",
            "http://127.0.0.1",
            "http://127.0.0.1:/hook",
            "http://127.0.0.1:0/hook",
            "http://127.0.0.1:99999/hook",
            "http://127.0.0.1:9999/a b",
            "http://127.0.0.1:9999/hook\r\nx-injected: 1",
            "http://127.0.0.1:9999/hook\n",
            "http://127.0.0.1:9999/\thook",
        ] {
            assert!(WebhookSink::from_url(url).is_err(), "{url:?} was accepted");
        }
    }
}
