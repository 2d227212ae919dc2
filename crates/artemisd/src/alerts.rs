//! Pluggable alert sinks with a bounded retry/rate-limit queue.
//!
//! A confirmed hijack is only useful if it pages someone. The daemon
//! tails its own incident event stream, turns alert-worthy events into
//! JSON payloads, and hands them to an [`AlertDispatcher`]: a bounded
//! queue in front of any number of [`AlertSink`]s. The queue absorbs
//! sink outages (bounded, drop-oldest so a dead webhook cannot OOM the
//! daemon), retries each payload a configurable number of times, and
//! rate-limits deliveries so an incident storm does not DoS the
//! receiver.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Where alert payloads go. The daemon's alert thread calls them with
/// no lock held; a sink that blocks delays only the payloads queued
/// behind it.
pub trait AlertSink: Send {
    /// Stable name for listings and metrics.
    fn name(&self) -> &str;
    /// Deliver one JSON payload; an `Err` requeues the payload for
    /// retry (up to the dispatcher's attempt budget).
    fn deliver(&mut self, payload: &str) -> Result<(), String>;
}

/// A sink POSTing payloads to an HTTP endpoint (`http://host:port/path`).
pub struct WebhookSink {
    name: String,
    client: minihttp::Client,
    path: String,
}

impl WebhookSink {
    /// Build a sink from an `http://host:port/path` URL.
    pub fn from_url(url: &str) -> Result<WebhookSink, String> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| format!("webhook URL must start with http://: {url}"))?;
        let (addr, path) = match rest.split_once('/') {
            Some((a, p)) => (a, format!("/{p}")),
            None => (rest, "/".to_string()),
        };
        if addr.is_empty() {
            return Err(format!("webhook URL has no host: {url}"));
        }
        Ok(WebhookSink {
            name: url.to_string(),
            client: minihttp::Client::new(addr).with_timeout(Duration::from_secs(5)),
            path,
        })
    }

    /// The HTTP client deliveries go through. A clone shares its
    /// connections, so [`minihttp::Client::close`] on one ends a
    /// delivery in flight from another thread.
    pub fn client(&self) -> &minihttp::Client {
        &self.client
    }
}

impl AlertSink for WebhookSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&mut self, payload: &str) -> Result<(), String> {
        match self.client.post(&self.path, "application/json", payload) {
            Ok(resp) if resp.is_success() => Ok(()),
            Ok(resp) => Err(format!("webhook returned {}", resp.status)),
            Err(e) => Err(format!("webhook unreachable: {e}")),
        }
    }
}

/// Delivery counters of an [`AlertDispatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchStats {
    /// Payloads accepted into the queue.
    pub enqueued: u64,
    /// Payloads delivered to every sink.
    pub delivered: u64,
    /// Payloads dropped because the queue was full (oldest first).
    pub dropped_overflow: u64,
    /// Payloads dropped after exhausting their attempt budget.
    pub dropped_failed: u64,
    /// Individual sink delivery attempts (including failures).
    pub attempts: u64,
}

struct QueuedAlert {
    payload: String,
    attempts: u32,
    /// Which sinks, by registration index, already accepted the
    /// payload: a retry goes to the others only.
    accepted: Vec<bool>,
}

/// A bounded retry/rate-limit queue in front of the registered sinks.
pub struct AlertDispatcher {
    sinks: Vec<Box<dyn AlertSink>>,
    queue: VecDeque<QueuedAlert>,
    capacity: usize,
    max_attempts: u32,
    min_interval: Duration,
    last_delivery: Option<Instant>,
    stats: DispatchStats,
}

impl AlertDispatcher {
    /// A dispatcher holding at most `capacity` undelivered payloads,
    /// retrying each at most `max_attempts` times, with at least
    /// `min_interval` between deliveries.
    pub fn new(capacity: usize, max_attempts: u32, min_interval: Duration) -> Self {
        AlertDispatcher {
            sinks: Vec::new(),
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            max_attempts: max_attempts.max(1),
            min_interval,
            last_delivery: None,
            stats: DispatchStats::default(),
        }
    }

    /// Defaults suited to paging webhooks: 256 queued payloads, 3
    /// attempts, 50 ms between deliveries.
    pub fn with_defaults() -> Self {
        AlertDispatcher::new(256, 3, Duration::from_millis(50))
    }

    /// Register a sink. Payloads already queued will reach it too.
    pub fn add_sink(&mut self, sink: Box<dyn AlertSink>) {
        self.sinks.push(sink);
    }

    /// Number of registered sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Queue one payload. With no sinks registered the payload is
    /// accepted and delivered trivially (nobody to page).
    pub fn enqueue(&mut self, payload: String) {
        self.stats.enqueued += 1;
        if self.sinks.is_empty() {
            self.stats.delivered += 1;
            return;
        }
        if self.queue.len() >= self.capacity {
            self.queue.pop_front();
            self.stats.dropped_overflow += 1;
        }
        self.queue.push_back(QueuedAlert {
            payload,
            attempts: 0,
            accepted: Vec::new(),
        });
    }

    /// Try to deliver queued payloads, oldest first, respecting the
    /// rate limit. Returns the number of payloads fully delivered.
    /// Each attempt offers the payload to every sink that has not yet
    /// accepted it, so no sink is paged twice and one failing sink
    /// does not keep the payload from the sinks after it. A payload
    /// that some sink refused keeps its place at the front until its
    /// attempt budget runs out, preserving delivery order.
    pub fn pump(&mut self) -> usize {
        let mut delivered = 0;
        while let Some(front) = self.queue.front_mut() {
            if let (Some(last), true) = (self.last_delivery, !self.min_interval.is_zero()) {
                if last.elapsed() < self.min_interval {
                    break;
                }
            }
            self.last_delivery = Some(Instant::now());
            front.accepted.resize(self.sinks.len(), false);
            let mut ok = true;
            for (sink, accepted) in self.sinks.iter_mut().zip(&mut front.accepted) {
                if !*accepted {
                    self.stats.attempts += 1;
                    *accepted = sink.deliver(&front.payload).is_ok();
                    ok &= *accepted;
                }
            }
            if ok {
                self.queue.pop_front();
                self.stats.delivered += 1;
                delivered += 1;
            } else {
                front.attempts += 1;
                if front.attempts >= self.max_attempts {
                    self.queue.pop_front();
                    self.stats.dropped_failed += 1;
                } else {
                    // Leave it at the front; a later pump retries.
                    break;
                }
            }
        }
        delivered
    }

    /// Payloads currently waiting for delivery.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    struct MockSink {
        seen: Arc<Mutex<Vec<String>>>,
        fail_first: u32,
        failures: u32,
    }

    impl AlertSink for MockSink {
        fn name(&self) -> &str {
            "mock"
        }
        fn deliver(&mut self, payload: &str) -> Result<(), String> {
            if self.failures < self.fail_first {
                self.failures += 1;
                return Err("transient".into());
            }
            self.seen.lock().unwrap().push(payload.to_string());
            Ok(())
        }
    }

    fn dispatcher(capacity: usize, max_attempts: u32) -> AlertDispatcher {
        AlertDispatcher::new(capacity, max_attempts, Duration::ZERO)
    }

    /// A sink recording into `seen` that refuses its first
    /// `fail_first` deliveries.
    fn mock(seen: &Arc<Mutex<Vec<String>>>, fail_first: u32) -> Box<MockSink> {
        Box::new(MockSink {
            seen: seen.clone(),
            fail_first,
            failures: 0,
        })
    }

    #[test]
    fn delivers_in_order_with_retries() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut d = dispatcher(8, 3);
        d.add_sink(mock(&seen, 2));
        d.enqueue("a".into());
        d.enqueue("b".into());
        // First pump: "a" fails (attempt 1) and stays queued.
        assert_eq!(d.pump(), 0);
        assert_eq!(d.queued(), 2);
        // Second pump: "a" fails (attempt 2), still below the budget.
        assert_eq!(d.pump(), 0);
        // Third pump: sink recovered; both deliver, in order.
        assert_eq!(d.pump(), 2);
        assert_eq!(*seen.lock().unwrap(), vec!["a", "b"]);
        assert_eq!(d.stats().delivered, 2);
        assert_eq!(d.stats().attempts, 4);
    }

    #[test]
    fn a_retry_pages_only_the_sinks_that_refused() {
        let (ok, flaky) = (Arc::default(), Arc::default());
        let mut d = dispatcher(8, 3);
        d.add_sink(mock(&ok, 0));
        d.add_sink(mock(&flaky, 1));
        d.enqueue("a".into());
        assert_eq!(d.pump(), 0, "the second sink refused");
        assert_eq!(d.pump(), 1);
        let received = (ok.lock().unwrap().len(), flaky.lock().unwrap().len());
        assert_eq!(received, (1, 1), "each sink paged exactly once");
        assert_eq!(d.stats().attempts, 3, "one per sink delivery attempt");
    }

    #[test]
    fn a_failing_sink_does_not_starve_the_sinks_after_it() {
        let (dead, ok) = (Arc::default(), Arc::default());
        let mut d = dispatcher(8, 3);
        d.add_sink(mock(&dead, u32::MAX));
        d.add_sink(mock(&ok, 0));
        d.enqueue("a".into());
        assert_eq!(d.pump(), 0);
        assert_eq!(*ok.lock().unwrap(), vec!["a"], "reached in the same pump");
        assert!(dead.lock().unwrap().is_empty());
    }

    #[test]
    fn exhausted_attempts_drop_the_payload_and_count_it() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut d = dispatcher(8, 2);
        d.add_sink(mock(&seen, 2));
        d.enqueue("doomed".into());
        d.enqueue("fine".into());
        assert_eq!(d.pump(), 0); // attempt 1 fails
        assert_eq!(d.pump(), 1); // attempt 2 fails -> dropped; "fine" delivers
        assert_eq!(*seen.lock().unwrap(), vec!["fine"]);
        assert_eq!(d.stats().dropped_failed, 1);
    }

    #[test]
    fn overflow_drops_oldest() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut d = dispatcher(2, 1);
        d.add_sink(mock(&seen, 0));
        d.enqueue("1".into());
        d.enqueue("2".into());
        d.enqueue("3".into()); // evicts "1"
        assert_eq!(d.stats().dropped_overflow, 1);
        d.pump();
        assert_eq!(*seen.lock().unwrap(), vec!["2", "3"]);
    }

    #[test]
    fn rate_limit_defers_delivery() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut d = AlertDispatcher::new(8, 1, Duration::from_secs(60));
        d.add_sink(mock(&seen, 0));
        d.enqueue("a".into());
        d.enqueue("b".into());
        assert_eq!(d.pump(), 1, "first delivery is immediate");
        assert_eq!(d.pump(), 0, "second is rate-limited");
        assert_eq!(d.queued(), 1);
    }

    #[test]
    fn no_sinks_means_trivial_delivery() {
        let mut d = dispatcher(2, 1);
        d.enqueue("x".into());
        assert_eq!(d.queued(), 0);
        assert_eq!(d.stats().delivered, 1);
    }

    #[test]
    fn webhook_url_parsing() {
        assert!(WebhookSink::from_url("http://127.0.0.1:9999/hook").is_ok());
        assert!(WebhookSink::from_url("http://127.0.0.1:9999").is_ok());
        assert!(WebhookSink::from_url("https://x/y").is_err());
        assert!(WebhookSink::from_url("http:///y").is_err());
    }
}
