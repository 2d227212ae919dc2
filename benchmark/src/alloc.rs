//! Counting global allocator, installed in the benchmark binary only.
//!
//! Counts are kept per thread (plain thread-local cells, no atomics),
//! so the reader and pump threads never share a cache line through
//! the allocator and a probe reads exactly the allocations its own
//! thread made between two [`snapshot`]s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and `Cell<u64>` need neither lazy
    // initialisation nor a destructor, so touching them from inside
    // the allocator cannot itself allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation totals of the calling thread since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    /// What the calling thread allocated since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The calling thread's totals so far.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

pub struct CountingAlloc;

fn count(size: usize) {
    // `try_with`: a thread that is being torn down may free and
    // allocate after its thread-locals are gone; those are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counting touches only thread-local cells
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means it came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_calling_thread_only() {
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let other = std::thread::spawn(|| {
            let _w: Vec<u8> = Vec::with_capacity(1 << 20);
        });
        other.join().unwrap();
        let delta = snapshot().since(before);
        drop(v);
        assert!(delta.allocs >= 1);
        // The other thread's megabyte must not show up here.
        assert!(delta.bytes >= 4096 && delta.bytes < (1 << 20));
    }
}
