//! Spans recorded by the benchmark's own code around each call into a
//! layer and around each hijack's and operator request's life.
//!
//! Spans are kept in memory and written to `benchmark/out/trace.jsonl`
//! when the traced pass ends. In-program tracing is a later change;
//! these spans see the program only from outside.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Hijack or operator-request identifier; spans of one hijack or
    /// request share it. 0 for layer calls that serve no single one.
    pub id: u64,
    /// Events the call handled (0 where that has no meaning).
    pub events: u64,
}

/// A per-thread span buffer; buffers are merged when threads join.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            enabled,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from; threads of one pass
    /// share it so their spans line up.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        id: u64,
        events: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
            events,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Append another thread's spans, keeping their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, each tagged with the workload whose
    /// traced pass recorded it.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"events\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.events
            )?;
        }
        Ok(())
    }
}
