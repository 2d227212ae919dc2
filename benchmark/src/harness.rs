//! What both harnesses (closed loop in-process, open loop through the
//! daemon) share: the inputs of a round and what a round reports.

use crate::check::{LedgerEntry, Verdict};
use crate::stream::{Encoded, Generator, Hijack, Mix};
use artemis_core::StageMetrics;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Ring capacity every benchmark feed is attached with (the default of
/// 8192 sheds under a 270 ms control-plane stall at 100k events/s; the
/// benchmark states its capacity instead of inheriting a default).
pub const RING_CAPACITY: usize = 65_536;
/// Events per throughput segment.
pub const SEGMENT_EVENTS: u64 = 100_000;

/// Pre-encoded inputs of one round. Encoding happens before the
/// round's clock starts, so the generator thread only copies bytes.
pub struct RoundInputs {
    pub open: Encoded,
    pub lanes: Vec<Hijack>,
    pub lane_raise: Encoded,
    pub cycle: Encoded,
}

impl RoundInputs {
    pub fn prepare(gen: &mut Generator<'_>, mix: Mix) -> RoundInputs {
        let open = gen.session_open();
        let lanes = if mix.flips > 0 {
            gen.storm_lanes()
        } else {
            Vec::new()
        };
        let mut lane_raise = Encoded::default();
        for lane in &lanes {
            lane_raise.append_all(&gen.encode_hijack(lane));
        }
        let cycle = gen.background_cycle(mix, &lanes);
        RoundInputs {
            open,
            lanes,
            lane_raise,
            cycle,
        }
    }
}

/// Walks the background cycle in message-aligned chunks, forever.
pub struct CycleCursor<'a> {
    cycle: &'a Encoded,
    next_msg: usize,
}

impl<'a> CycleCursor<'a> {
    pub fn new(cycle: &'a Encoded) -> Self {
        CycleCursor { cycle, next_msg: 0 }
    }

    /// The next run of whole messages holding at least `min_events`
    /// events (fewer only at the end of the cycle, where it wraps).
    pub fn take(&mut self, min_events: u64) -> (&'a [u8], u64) {
        let msgs = &self.cycle.msgs;
        let start_byte = if self.next_msg == 0 {
            0
        } else {
            msgs[self.next_msg - 1].end as usize
        };
        let mut events = 0u64;
        let mut i = self.next_msg;
        while i < msgs.len() && events < min_events {
            events += msgs[i].events as u64;
            i += 1;
        }
        let end_byte = msgs[i - 1].end as usize;
        self.next_msg = if i == msgs.len() { 0 } else { i };
        (&self.cycle.bytes[start_byte..end_byte], events)
    }
}

// Phases of an open-loop round; 0, where `Shared` starts, is set-up.
pub const PHASE_TIMED: u8 = 1;
pub const PHASE_DRAIN: u8 = 2;
pub const PHASE_SENT: u8 = 3;
pub const PHASE_CLOSE: u8 = 4;

/// What the generator thread and the observing thread tell each other
/// (the closed loop, one thread, only counts what it sent).
/// All `Relaxed`: each value is a counter or a phase number that
/// publishes no other memory (results travel through thread joins).
#[derive(Default)]
pub struct Shared {
    pub sent: AtomicU64,
    pub phase: AtomicU8,
}

impl Shared {
    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::Relaxed)
    }

    pub fn set_phase(&self, phase: u8) {
        self.phase.store(phase, Ordering::Relaxed);
    }
}

/// Block (sleeping, so the program keeps both cores) until `ready()`
/// holds; panics after `limit` so a wedged program fails the run
/// instead of hanging it.
pub fn wait_until(what: &str, limit: Duration, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < limit,
            "benchmark stalled for {limit:?} waiting until {what}"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Write `bytes` and count the `events` they carry as sent.
pub fn write_counted(sock: &mut impl Write, shared: &Shared, bytes: &[u8], events: u64) {
    sock.write_all(bytes).expect("loopback write");
    shared.sent.fetch_add(events, Ordering::Relaxed);
}

/// Send the healing announcements of ledger entry `i`.
pub fn send_heal(
    sock: &mut impl Write,
    shared: &Shared,
    gen: &mut Generator<'_>,
    ledger: &mut [LedgerEntry],
    i: usize,
) {
    let enc = gen.encode_heal(&ledger[i].hijack);
    write_counted(sock, shared, &enc.bytes, enc.events());
    ledger[i].healed = true;
}

/// Ends the round for every helper thread when the observing thread
/// leaves its scope — by finishing or by panicking. Without it a
/// failed assertion there would wait forever for threads that wait
/// for it.
pub struct CloseOnDrop<'a>(pub &'a Shared);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set_phase(PHASE_CLOSE);
    }
}

/// Counters of the thread that drives `pump_feeds` (closed loop).
#[derive(Debug, Default, Clone, Copy)]
pub struct PumpStats {
    /// Time inside `pump_feeds` calls that delivered events.
    pub busy_ns: u64,
    pub max_batch: u64,
}

/// Everything one round measured.
#[derive(Default)]
pub struct RoundOutcome {
    pub setup_s: f64,
    pub sent: u64,
    pub delivered: u64,
    /// Shed by the ring plus rejected by filters (there are none).
    pub dropped: u64,
    pub shed: u64,
    /// Events delivered inside the timed window and its length.
    pub timed_events: u64,
    pub timed_secs: f64,
    pub segments: Vec<(u64, f64)>,
    pub verdict: Verdict,
    /// Offboard + onboard round trips, milliseconds per pair.
    pub command_ms: Vec<f64>,
    pub commands_failed: u64,
    pub commands_sent: u64,
    /// Process CPU seconds spent inside the timed window.
    pub cpu_s: f64,
    /// `VmHWM` when the timed window closed.
    pub rss_peak_mb: f64,
    /// How late each open-loop tick was written, milliseconds.
    pub late_ms: Vec<f64>,
    pub threads: u64,
    pub pump: PumpStats,
    /// Filled by traced passes only.
    pub stages: Option<StageMetrics>,
}

impl RoundOutcome {
    /// `sent = delivered + shed + filtered`, the identity every round
    /// is checked against.
    pub fn accounted(&self) -> bool {
        self.sent == self.delivered + self.dropped
    }
}
