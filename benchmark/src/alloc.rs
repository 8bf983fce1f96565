//! Counting `#[global_allocator]`: allocations, allocated bytes and live
//! bytes, read as deltas around a measured region.
//!
//! Two counter slots, each on its own cache line: slot 0 belongs to the
//! one thread that called [`claim_bench_thread`] and is updated with plain
//! load/store pairs (single writer, so no `lock` prefix on the hot path);
//! slot 1 is shared by every other thread (the `pdo-ingress-net` acceptor)
//! and uses atomic read-modify-writes. `allocs_per_op` is read from slot 0
//! only: the acceptor allocates once per socket sweep, which is a function
//! of how often it spun, not of the work it did, so its count is reported
//! separately and carries no bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
        }
    }
}

static BENCH: Slot = Slot::new();
static OTHER: Slot = Slot::new();

thread_local! {
    // Const-initialised and destructor-free, so reading it from inside the
    // allocator can neither allocate nor observe a torn-down key.
    static IS_BENCH: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as the benchmark thread (slot 0). Call once,
/// from the thread that generates load and drives the engine.
pub fn claim_bench_thread() {
    IS_BENCH.with(|b| b.set(true));
}

#[inline]
fn on_alloc(size: usize) {
    if IS_BENCH.try_with(Cell::get).unwrap_or(false) {
        BENCH.allocs.store(BENCH.allocs.load(Relaxed) + 1, Relaxed);
        BENCH
            .bytes
            .store(BENCH.bytes.load(Relaxed) + size as u64, Relaxed);
        BENCH
            .live
            .store(BENCH.live.load(Relaxed) + size as i64, Relaxed);
    } else {
        OTHER.allocs.fetch_add(1, Relaxed);
        OTHER.bytes.fetch_add(size as u64, Relaxed);
        OTHER.live.fetch_add(size as i64, Relaxed);
    }
}

#[inline]
fn on_free(size: usize) {
    if IS_BENCH.try_with(Cell::get).unwrap_or(false) {
        BENCH
            .live
            .store(BENCH.live.load(Relaxed) - size as i64, Relaxed);
    } else {
        OTHER.live.fetch_sub(size as i64, Relaxed);
    }
}

/// The allocator installed by `main.rs`.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping touches only
// atomics and a const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // One allocator round trip; bytes count the new block, the
            // way a fresh `alloc` + copy + `dealloc` would.
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations made by the benchmark thread.
    pub allocs: u64,
    /// Bytes requested by the benchmark thread.
    pub bytes: u64,
    /// Allocations made by every other thread.
    pub other_allocs: u64,
    /// Bytes currently live, whole process.
    pub live: i64,
}

impl AllocSnapshot {
    /// Reads the counters now.
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            allocs: BENCH.allocs.load(Relaxed),
            bytes: BENCH.bytes.load(Relaxed),
            other_allocs: OTHER.allocs.load(Relaxed),
            live: BENCH.live.load(Relaxed) + OTHER.live.load(Relaxed),
        }
    }

    /// Counter movement since `earlier` (`live` stays absolute).
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            other_allocs: self.other_allocs - earlier.other_allocs,
            live: self.live,
        }
    }
}

/// Benchmark-thread allocation count only — the cheap read the span
/// recorder takes at every span boundary.
#[inline]
pub fn bench_allocs() -> u64 {
    BENCH.allocs.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_pattern_counts_exactly() {
        // Only this test claims slot 0, so no other test thread writes it.
        claim_bench_thread();
        let before = AllocSnapshot::now();
        let live_before = BENCH.live.load(Relaxed);
        let a = std::hint::black_box(vec![0u8; 1000]);
        let b = std::hint::black_box(Box::new([0u64; 4]));
        let mut c: Vec<u32> = Vec::with_capacity(8);
        c.push(1);
        c.reserve_exact(31); // realloc: 8 -> 32 elements, 32 -> 128 bytes
        let c = std::hint::black_box(c);
        let mid = AllocSnapshot::now().since(before);
        assert_eq!(mid.allocs, 4, "vec + box + with_capacity + realloc");
        assert_eq!(mid.bytes, 1000 + 32 + 32 + 128);
        drop((a, b, c));
        let after = AllocSnapshot::now();
        assert_eq!(after.since(before).allocs, 4, "frees are not allocations");
        // Other test threads allocate concurrently into the shared slot, so
        // only the bench slot's own live delta is exact.
        assert_eq!(
            BENCH.live.load(Relaxed),
            live_before,
            "everything this thread allocated was freed"
        );
    }
}
