//! Wall-clock stage telemetry for the delivery path.
//!
//! These counters time the three stages of a feed batch — drain from
//! the hub's merge queue, classification, and the ordered commit
//! through monitoring/mitigation — plus the sub-stages each splits
//! into, with `std::time::Instant`.
//! They exist for operators: the daemon's `/metrics` endpoint renders
//! them as Prometheus counters.
//!
//! Wall-clock readings are inherently nondeterministic, so they are
//! deliberately **not** part of [`ServiceStatus`](crate::ServiceStatus)
//! or any other snapshot the identity tests compare; they are
//! reachable only through
//! [`Pipeline::stage_metrics`](crate::Pipeline::stage_metrics).

use std::time::Duration;

/// Number of power-of-two latency buckets; bucket *i* counts batches
/// whose stage latency fell in `[2^i, 2^(i+1))` ns (bucket 0 also
/// takes 0 ns). 2^31 ns ≈ 2.1 s — the top bucket absorbs anything
/// slower, far beyond any sane per-batch stage time.
const HIST_BUCKETS: usize = 32;

/// Accumulated timing of one delivery stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Batches that passed through this stage (empty batches are not
    /// counted).
    pub batches: u64,
    /// Events those batches carried in total.
    pub events: u64,
    /// Total wall-clock nanoseconds spent in this stage.
    pub nanos: u64,
    /// Log₂-spaced per-batch latency histogram backing the percentile
    /// accessors; constant-size, so tail latency costs O(1) memory no
    /// matter how long the pipeline runs.
    hist: [u64; HIST_BUCKETS],
}

impl StageStat {
    /// Record one batch of `events` events that took `elapsed`.
    pub fn record(&mut self, events: u64, elapsed: Duration) {
        self.batches += 1;
        self.events += events;
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos = self.nanos.saturating_add(ns);
        let bucket = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.hist[bucket] += 1;
    }

    /// Mean wall-clock nanoseconds per batch (0 before any batch).
    pub fn mean_batch_nanos(&self) -> u64 {
        self.nanos.checked_div(self.batches).unwrap_or(0)
    }

    /// Upper-bound batch latency (ns) at quantile `q` (e.g. `0.99`):
    /// the upper edge of the first histogram bucket whose cumulative
    /// batch count reaches `q · batches`. Resolution is a factor of
    /// two — the bucket width — which is plenty for "did p99 blow up"
    /// dashboards. 0 before any batch.
    pub fn percentile_batch_nanos(&self, q: f64) -> u64 {
        if self.batches == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.batches as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, count) in self.hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The top bucket absorbs everything slower than its
                // nominal range, so it has no finite upper edge.
                return if i + 1 >= HIST_BUCKETS {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// 99th-percentile batch latency in nanoseconds (bucketed upper
    /// bound; see [`StageStat::percentile_batch_nanos`]).
    pub fn p99_batch_nanos(&self) -> u64 {
        self.percentile_batch_nanos(0.99)
    }
}

/// Per-stage batch latency of the pipeline's delivery path.
///
/// `drain`, `classify` and `commit` are the three top-level stages of
/// a delivered batch. The remaining fields break each top-level stage
/// into its named sub-stages (they overlap their parent, never add to
/// it). The drain stage splits into `drain_seal` (sealing each feed's
/// sorted run — lazy sort of lanes an append disordered) and
/// `drain_merge` (the k-way merge of due events out of the lanes).
/// The classify stage splits into `classify_snapshot` (starting the
/// batch: resetting the detector's dirty tracking) and
/// `classify_prepare` (classifying every event in one sequential
/// pass). The commit stage is one ordered walk over the batch and
/// splits into `resolve` (applying resolution decisions: alert state,
/// log, monitor retirement), `mitigate` (planning/executing/holding
/// mitigation for newly raised alerts) and `detect` (the rest of the
/// walk: detection, in-batch monitor creation, and routing each event
/// to the monitors it concerns, which ingest it). `monitor_route` and
/// `monitor_ingest` are never recorded; see their field docs.
/// Every entry point goes through the same commit, so every
/// delivered batch — a drained backlog or a hand-fed batch of one —
/// records the classify and commit families; the drain family is
/// recorded only where the pipeline drains its own hub
/// ([`Pipeline::deliver_due`](crate::Pipeline::deliver_due)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Draining due events out of the hub's merge queue.
    pub drain: StageStat,
    /// Drain sub-stage: sealing the per-feed sorted runs.
    pub drain_seal: StageStat,
    /// Drain sub-stage: k-way merging due events out of the lanes.
    pub drain_merge: StageStat,
    /// Classifying the batch.
    pub classify: StageStat,
    /// Classify sub-stage: batch start — the detector's dirty-tracking
    /// reset.
    pub classify_snapshot: StageStat,
    /// Classify sub-stage: classifying every event, one sequential
    /// pass.
    pub classify_prepare: StageStat,
    /// Committing the batch in order through detection, monitoring
    /// and mitigation (the umbrella over `detect`, `resolve` and
    /// `mitigate`).
    pub commit: StageStat,
    /// Commit sub-stage: the walk minus `resolve` and `mitigate` —
    /// detection, plus routing each event to its monitors and their
    /// ingesting it.
    pub detect: StageStat,
    /// Never recorded; always zero. Monitor routing is timed inside
    /// `detect`. The field and its `/metrics` lines
    /// (`stage="commit_monitor_route"`) stay because scrape readers
    /// expect them.
    pub monitor_route: StageStat,
    /// Never recorded; always zero. Monitor ingestion is timed inside
    /// `detect`. The field and its `/metrics` lines
    /// (`stage="commit_monitor_ingest"`) stay because scrape readers
    /// expect them.
    pub monitor_ingest: StageStat,
    /// Commit sub-stage: applying resolution decisions in order.
    pub resolve: StageStat,
    /// Commit sub-stage: planning/executing/holding mitigation for
    /// alerts raised in the batch.
    pub mitigate: StageStat,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_average() {
        let mut s = StageStat::default();
        assert_eq!(s.mean_batch_nanos(), 0);
        s.record(10, Duration::from_nanos(300));
        s.record(5, Duration::from_nanos(100));
        assert_eq!(s.batches, 2);
        assert_eq!(s.events, 15);
        assert_eq!(s.nanos, 400);
        assert_eq!(s.mean_batch_nanos(), 200);
    }

    #[test]
    fn percentiles_come_from_log_buckets() {
        let mut s = StageStat::default();
        assert_eq!(s.p99_batch_nanos(), 0);
        // 99 fast batches in [64, 128) ns, one slow one in [2^20, 2^21).
        for _ in 0..99 {
            s.record(1, Duration::from_nanos(100));
        }
        s.record(1, Duration::from_nanos(1 << 20));
        // p50 lands in the fast bucket: upper edge 127 ns.
        assert_eq!(s.percentile_batch_nanos(0.50), 127);
        // p99 needs rank 99 — still the fast bucket…
        assert_eq!(s.p99_batch_nanos(), 127);
        // …while p100 must reach the slow bucket's upper edge.
        assert_eq!(s.percentile_batch_nanos(1.0), (1 << 21) - 1);

        // Zero-duration batches land in bucket 0 (upper edge 1 ns).
        let mut z = StageStat::default();
        z.record(1, Duration::from_nanos(0));
        assert_eq!(z.p99_batch_nanos(), 1);

        // Saturating top bucket: absurd latencies stay in-range.
        let mut t = StageStat::default();
        t.record(1, Duration::from_secs(600));
        assert_eq!(t.p99_batch_nanos(), u64::MAX);
    }
}
