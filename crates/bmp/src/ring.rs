//! The bounded backpressure ring between a live-feed reader thread
//! and the detection pipeline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// A one-bit wake-up latch: producers [`WakeLatch::wake`] it, one
/// consumer thread parks in [`WakeLatch::wait`]. Signals do not count
/// — any number of wakes before the consumer looks collapse into one —
/// and a wake that arrives while nobody is parked is kept, so the next
/// `wait` returns at once. Clones share the bit.
#[derive(Clone, Default)]
pub struct WakeLatch(Arc<(Mutex<bool>, Condvar)>);

impl WakeLatch {
    /// A fresh, unsignalled latch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the bit and wake the parked consumer, if any.
    pub fn wake(&self) {
        let (bit, parked) = &*self.0;
        *bit.lock().unwrap_or_else(PoisonError::into_inner) = true;
        parked.notify_one();
    }

    /// Park until the bit is set or `timeout` elapses, then clear it.
    /// Returns whether it was set.
    pub fn wait(&self, timeout: Duration) -> bool {
        let (bit, parked) = &*self.0;
        let guard = bit.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut guard, _) = parked
            .wait_timeout_while(guard, timeout, |set| !*set)
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *guard)
    }
}

/// A fixed-capacity drop-oldest ring shared between one producer (the
/// socket reader thread) and one consumer (the pipeline's poll path).
///
/// The contract that matters operationally: **memory is bounded and
/// the producer never blocks**. When the consumer falls behind, a push
/// onto a full ring sheds the *oldest* queued item — the detector
/// would rather lose a stale observation than a fresh one, and a
/// hijacked prefix keeps being re-announced, so fresher data always
/// supersedes what was shed. Every shed is counted; the counters are
/// monotone and readable without taking the lock.
///
/// A thread that panics while holding the lock (a `push_batch`
/// iterator can) does not take the ring down with it: the queue is
/// never left half-updated and every shed is counted as it happens, so
/// later callers recover the lock and carry on with true counts.
///
/// A consumer that would rather sleep than poll installs a
/// [`WakeLatch`] with [`BackpressureRing::set_waker`]: a push that
/// lands on an **empty** ring signals it — one wake per burst, not per
/// item, and nothing on the drain path.
pub struct BackpressureRing<T> {
    inner: Mutex<VecDeque<T>>,
    waker: OnceLock<WakeLatch>,
    capacity: usize,
    shed: AtomicU64,
}

impl<T> BackpressureRing<T> {
    /// The queue, recovered if a panicking holder poisoned its lock.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A ring holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BackpressureRing {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            waker: OnceLock::new(),
            capacity,
            shed: AtomicU64::new(0),
        }
    }

    /// Install the latch signalled when a push lands on an empty ring.
    /// The first installed latch stays for the ring's life (later calls
    /// are ignored). Items already queued signal it at once, so a
    /// consumer that attaches late never waits for a burst it cannot
    /// be told about.
    pub fn set_waker(&self, waker: WakeLatch) {
        // Under the queue lock: a concurrent push either is seen here
        // as a non-empty ring or sees the installed latch itself.
        let q = self.lock();
        let installed = self.waker.get_or_init(|| waker);
        if !q.is_empty() {
            installed.wake();
        }
    }

    /// Signal the installed latch (if any) although nothing was
    /// pushed: for producer-side news that travels beside the ring.
    pub fn wake_consumer(&self) {
        if let Some(waker) = self.waker.get() {
            waker.wake();
        }
    }

    /// Queue `item`, shedding the oldest queued item if full. Returns
    /// `true` when nothing was shed.
    pub fn push(&self, item: T) -> bool {
        let mut q = self.lock();
        let was_empty = q.is_empty();
        let mut clean = true;
        if q.len() == self.capacity {
            q.pop_front();
            bump(&self.shed);
            clean = false;
        }
        q.push_back(item);
        drop(q);
        if was_empty {
            self.wake_consumer();
        }
        clean
    }

    /// Queue a batch under one lock acquisition, shedding oldest items
    /// as needed. Returns how many items were shed. Each shed is
    /// counted as it happens, so an iterator that panics part-way
    /// leaves the counter true for what it delivered.
    pub fn push_batch(&self, items: impl IntoIterator<Item = T>) -> u64 {
        let mut q = self.lock();
        let was_empty = q.is_empty();
        let mut shed = 0u64;
        let mut pushed = 0u64;
        for item in items {
            if q.len() == self.capacity {
                q.pop_front();
                bump(&self.shed);
                shed += 1;
            }
            q.push_back(item);
            pushed += 1;
        }
        drop(q);
        if was_empty && pushed > 0 {
            self.wake_consumer();
        }
        shed
    }

    /// Move up to `max` items (oldest first) into `out` (appended, not
    /// cleared). Returns how many were moved.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        // Not `drain_map_into` with an identity map: extending from the
        // bare `Drain` timed a few percent faster per item.
        let mut q = self.lock();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        n
    }

    /// [`BackpressureRing::drain_into`], passing each item through `f`
    /// on its way out: a consumer whose queue holds a thinner type than
    /// it hands on builds each output in the same pass. `f` runs under
    /// the queue lock, so it should be cheap.
    pub fn drain_map_into<U>(&self, out: &mut Vec<U>, max: usize, f: impl FnMut(T) -> U) -> usize {
        let mut q = self.lock();
        let n = max.min(q.len());
        out.extend(q.drain(..n).map(f));
        n
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total items shed to make room (monotone).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// Add one to a counter that only the ring's lock holder writes: a
/// plain load and store, no read-modify-write, while lock-free readers
/// still see a monotone value.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_oldest_and_keeps_newest() {
        let ring = BackpressureRing::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.shed_total(), 2);
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out, 100), 3);
        assert_eq!(out, vec![2, 3, 4], "oldest were shed, newest kept");
        assert!(ring.is_empty());
    }

    #[test]
    fn batch_push_counts_sheds() {
        let ring = BackpressureRing::new(4);
        assert_eq!(ring.push_batch(0..10), 6);
        assert_eq!(ring.shed_total(), 6);
        let mut out = Vec::new();
        ring.drain_into(&mut out, 2);
        assert_eq!(out, vec![6, 7]);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn stalled_consumer_bounds_memory_under_a_firehose() {
        // The acceptance property: a producer hammering a ring whose
        // consumer never drains must neither block nor grow memory —
        // the queue stays at capacity while sheds grow monotonically.
        let ring = Arc::new(BackpressureRing::new(64));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..100_000u64 {
                    ring.push(i);
                }
            })
        };
        let mut last_shed = 0;
        for _ in 0..50 {
            assert!(ring.len() <= 64, "ring never exceeds capacity");
            let shed = ring.shed_total();
            assert!(shed >= last_shed, "shed counter is monotone");
            last_shed = shed;
        }
        producer.join().unwrap();
        assert_eq!(ring.len(), 64);
        assert_eq!(ring.shed_total(), 100_000 - 64);
        let mut out = Vec::new();
        ring.drain_into(&mut out, usize::MAX);
        assert_eq!(out.last(), Some(&99_999), "newest survives the stall");
    }

    #[test]
    fn only_a_push_onto_an_empty_ring_signals_the_waker() {
        const NOW: Duration = Duration::ZERO;
        let ring = BackpressureRing::new(8);
        let latch = WakeLatch::new();
        ring.set_waker(latch.clone());
        assert!(!latch.wait(NOW), "installing on an empty ring is silent");

        ring.push(1);
        assert!(latch.wait(NOW), "a push onto an empty ring signals");
        ring.push(2);
        ring.push_batch(3..6);
        assert!(!latch.wait(NOW), "pushes onto a non-empty ring do not");

        let mut out = Vec::new();
        ring.drain_into(&mut out, usize::MAX);
        assert!(!latch.wait(NOW), "draining signals nothing");
        ring.push_batch(std::iter::empty());
        assert!(!latch.wait(NOW), "an empty batch is not a burst");
        ring.push_batch(6..9);
        assert!(latch.wait(NOW), "the drain re-armed it: one wake per burst");
        assert!(!latch.wait(NOW), "waiting clears the bit");
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_waker_installed_late_learns_of_what_is_already_queued() {
        let ring = BackpressureRing::new(8);
        ring.push(1); // no waker installed: the old behaviour
        assert_eq!(ring.len(), 1);
        let latch = WakeLatch::new();
        ring.set_waker(latch.clone());
        assert!(latch.wait(Duration::ZERO));
        // The first latch stays; a second install is ignored.
        let other = WakeLatch::new();
        ring.set_waker(other.clone());
        let mut out = Vec::new();
        ring.drain_into(&mut out, usize::MAX);
        ring.push(2);
        assert!(latch.wait(Duration::ZERO));
        assert!(!other.wait(Duration::ZERO));
    }

    #[test]
    fn a_parked_consumer_is_woken_from_another_thread() {
        let ring = Arc::new(BackpressureRing::new(8));
        let latch = WakeLatch::new();
        ring.set_waker(latch.clone());
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(7))
        };
        assert!(latch.wait(Duration::from_secs(10)), "woken, not timed out");
        producer.join().unwrap();
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn a_batch_that_panics_under_the_lock_leaves_a_working_ring() {
        let ring = Arc::new(BackpressureRing::new(4));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                ring.push_batch(
                    (0..10).inspect(|&i| assert!(i != 6, "the iterator dies mid-batch")),
                )
            })
        };
        assert!(producer.join().is_err());
        assert!(ring.inner.is_poisoned(), "the panic held the lock");
        // Six items landed: the first two were shed to fit four.
        assert_eq!(ring.shed_total(), 2);
        assert_eq!(ring.len(), 4);

        assert!(!ring.push(100), "a full ring sheds and keeps going");
        let latch = WakeLatch::new();
        ring.set_waker(latch.clone());
        assert!(latch.wait(Duration::ZERO), "the queued items signal it");
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![3, 4, 5]);
        // 6 landed, then 100: 3 shed, 3 drained, 1 still queued.
        assert_eq!((ring.shed_total(), ring.len()), (3, 1));
    }

    #[test]
    fn drain_map_into_maps_oldest_first_and_appends() {
        let ring = BackpressureRing::new(4);
        ring.push_batch(0..6u32);
        let mut out = vec!["kept".to_string()];
        assert_eq!(ring.drain_map_into(&mut out, 3, |i| format!("#{i}")), 3);
        assert_eq!(out, ["kept", "#2", "#3", "#4"]);
        assert_eq!((ring.len(), ring.shed_total()), (1, 2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = BackpressureRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.shed_total(), 1);
    }
}
