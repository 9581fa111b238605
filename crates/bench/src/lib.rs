//! # cij-bench
//!
//! The reproduction of the CIJ paper's evaluation (Section V): per figure
//! or table, the measured table and a verdict on each of the paper's claims
//! ([`experiments`]). The `reproduce` binary prints them; the root
//! package's `tests/reproduction.rs` asserts them in tier-1 and holds the
//! committed `REPRODUCTION.md` (which also gives the deviations from the
//! paper) to the generated report.
//!
//! # Allocation accounting
//!
//! The crate installs [`CountingAlloc`] — a zero-overhead-when-idle wrapper
//! over the system allocator that counts heap allocations — as the global
//! allocator of every binary that links it. [`allocations`] reads the
//! process-wide count; the repo benchmark (`cij_benchmark`, which links this
//! crate for that purpose) takes deltas of it for its
//! `core.pipeline.allocs_per_op` metric.
//!
//! Relaxed-consistency contract: `ALLOCATIONS` is a single monotone
//! counter with no other shared state ordered against it. Increments use
//! `Ordering::Relaxed` because only the counter's own modification order
//! matters — [`allocations`] deltas are taken around single-threaded
//! regions, where program order alone fixes the observed values, and any
//! concurrent allocator traffic is measurement noise by definition, not a
//! synchronization edge.

#![warn(clippy::all)]

pub mod experiments;
pub mod util;

pub use util::scaled;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations performed by the process so far (monotone counter).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that counts every allocation
/// (`alloc`, `alloc_zeroed` and growth-`realloc`s) with one relaxed atomic
/// increment. Installed as the crate's `#[global_allocator]`, so any binary
/// or test linking `cij-bench` measures allocation work for free via
/// [`allocations`] deltas.
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (valid layout);
    // we pass it through to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr` was allocated by this allocator with
    // `layout` — which means by `System`, the only allocator we delegate to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same pass-through contract as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator and
    // `new_size` is valid per `GlobalAlloc::realloc`; delegated to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Total heap allocations of the process so far. Take a delta around a
/// region of interest; single-threaded regions give exact per-run counts.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn allocation_counter_advances_on_heap_use() {
        let before = super::allocations();
        let v: Vec<u64> = (0..1024).collect();
        assert!(v.len() == 1024);
        assert!(
            super::allocations() > before,
            "allocating a Vec must advance the counter"
        );
    }
}
