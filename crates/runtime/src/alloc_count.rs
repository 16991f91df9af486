//! A counting global allocator for allocation-budget tests and benches.
//!
//! The zero-allocation contract of the training hot path (workspace-backed
//! `forward_into`/`backward_into`, see `aergia-tensor`'s `Workspace`) is
//! enforced empirically: a test binary installs [`CountingAllocator`] as its
//! `#[global_allocator]`, warms the workspace up, then asserts that further
//! steady-state batches leave the counter untouched. The `bench_smoke`
//! binary uses the same hook to pin `allocs_per_round` to an exact
//! constant.
//!
//! The counter itself is a relaxed atomic bump in `alloc`/`realloc`, cheap
//! enough to leave in measurement binaries; the hook is only ever *installed*
//! by `#[cfg(test)]` binaries and the bench driver, never by library code,
//! so production builds keep the system allocator untouched.
//!
//! # Examples
//!
//! ```
//! use aergia_runtime::alloc_count::CountingAllocator;
//!
//! // In a test or bench binary:
//! // #[global_allocator]
//! // static ALLOC: CountingAllocator = CountingAllocator::new();
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//! let before = ALLOC.allocations();
//! // ... code under measurement ...
//! assert_eq!(ALLOC.allocations() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

std::thread_local! {
    // Const-initialized and `!Drop`, so touching it from inside the
    // allocator can never itself allocate or hit a torn-down TLS slot.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that counts every `alloc`/`realloc` call
/// (deallocations are not counted — freeing is not the churn the hot-path
/// budget polices).
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// Creates an allocator with a zeroed counter (`const`, so it can be a
    /// `#[global_allocator]` static).
    pub const fn new() -> Self {
        CountingAllocator { allocations: AtomicU64::new(0) }
    }

    /// Number of allocation events (`alloc` + `realloc`) since process
    /// start.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Number of allocation events performed by the *calling thread* since
    /// it started.
    ///
    /// The process-global [`allocations`](Self::allocations) counter also
    /// sees other threads — notably the libtest harness thread, whose
    /// blocking channel `recv` lazily allocates its parking context the
    /// first time it actually has to wait, which can land anywhere relative
    /// to a test's measured window. Single-threaded allocation-budget tests
    /// should diff this counter instead so harness noise cannot leak in.
    pub fn thread_allocations(&self) -> u64 {
        THREAD_ALLOCATIONS.get()
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

// SAFETY: delegates every operation unchanged to `System`; the only added
// behaviour is a relaxed atomic counter bump, which cannot violate the
// `GlobalAlloc` contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.set(THREAD_ALLOCATIONS.get() + 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.set(THREAD_ALLOCATIONS.get() + 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.set(THREAD_ALLOCATIONS.get() + 1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_zero_and_counts_allocs() {
        let counter = CountingAllocator::new();
        assert_eq!(counter.allocations(), 0);
        // Exercise the GlobalAlloc impl directly (not installed globally).
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            let p = counter.realloc(p, layout, 128);
            assert!(!p.is_null());
            counter.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(counter.allocations(), 2, "alloc + realloc count, dealloc does not");
    }

    #[test]
    fn thread_counter_ignores_other_threads() {
        let counter = CountingAllocator::new();
        let layout = Layout::from_size_align(16, 8).unwrap();
        let mine = counter.thread_allocations();
        std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let p = counter.alloc(layout);
                assert!(!p.is_null());
                counter.dealloc(p, layout);
            });
        });
        assert_eq!(counter.thread_allocations(), mine, "other threads' allocs are invisible");
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            counter.dealloc(p, layout);
        }
        assert_eq!(counter.thread_allocations(), mine + 1, "this thread's allocs count");
    }

    #[test]
    fn zeroed_alloc_counts_and_zeroes() {
        let counter = CountingAllocator::default();
        let layout = Layout::from_size_align(32, 8).unwrap();
        unsafe {
            let p = counter.alloc_zeroed(layout);
            assert!(!p.is_null());
            assert!((0..32).all(|i| *p.add(i) == 0));
            counter.dealloc(p, layout);
        }
        assert_eq!(counter.allocations(), 1);
    }
}
