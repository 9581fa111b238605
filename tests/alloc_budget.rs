//! The allocation budgets of the multiway and the binary join, as a tier-1
//! gate.
//!
//! `core.pipeline.allocs_per_op` is one of the counters the repo benchmark
//! reports, but nothing fails when it regresses. This file pins it where a
//! regression is cheapest to see: heap allocations per emitted tuple of a
//! fixed 3-way clustered join, and per emitted pair of a fixed binary
//! NM-CIJ, each at one worker. The binary has its own counting
//! `#[global_allocator]` and exactly **one** `#[test]`, so no sibling test's
//! allocations are ever counted — keep it that way.

use cij::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations of the process so far (`alloc`, `alloc_zeroed` and
/// `realloc` calls; frees are not counted).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `GlobalAlloc::alloc` obligations pass through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same pass-through contract as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` came from this allocator and `new_size` is the
    // caller's responsibility per `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per emitted tuple the join may spend. Two are structural —
/// the public `MultiwayTuple { ids: Vec<u64>, region }` owns two heap
/// objects — and the rest of the floor is the exact cells BatchVoronoi
/// returns (and the copies the reuse buffers keep), each filter call's
/// candidate list, and in debug builds the id clone of the stream's
/// uniqueness guard. When the bound was set the join measured 6.9 here
/// (5.9 with `--release`); the per-tuple `Vec`s and per-clip outlines of
/// the allocating extension step it replaced measured 22.9.
const MAX_ALLOCATIONS_PER_TUPLE: f64 = 10.0;

/// Allocations per emitted pair binary NM-CIJ may spend on its default
/// (SoA arena, reused scratch) path. The floor is the exact cells
/// BatchVoronoi returns and the copies the reuse buffer keeps, each filter
/// call's candidate list and the per-leaf vectors of the chunk stages; no
/// allocation is per pair. When the bound was set the join measured 2.9
/// here (debug and `--release` alike); computing just the `Q` cells through
/// the owned-node, allocating-clip AoS layout measures 6.7.
const MAX_ALLOCATIONS_PER_PAIR: f64 = 4.0;

#[test]
fn multiway_join_stays_within_its_allocation_budget() {
    let spec = ClusterSpec {
        n: 600,
        clusters: 5,
        sigma_fraction: 0.03,
        background_fraction: 0.15,
        size_skew: 0.8,
    };
    let sets: Vec<Vec<Point>> = (0..3)
        .map(|i| clustered_points(&spec, &Rect::DOMAIN, 16_100 + i))
        .collect();
    let engine = QueryEngine::new(
        CijConfig::default()
            .with_exec_mode(ExecMode::Fast)
            .with_worker_threads(1),
    );
    let mut workload = engine.multiway_workload(&sets);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut stream = engine.multiway_stream(&mut workload);
    let tuples = stream.by_ref().count();
    assert!(stream.io_error().is_none());
    drop(stream);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(
        tuples > 2_000,
        "only {tuples} tuples: the input degenerated"
    );
    let per_tuple = spent as f64 / tuples as f64;
    assert!(
        per_tuple <= MAX_ALLOCATIONS_PER_TUPLE,
        "{spent} allocations for {tuples} tuples = {per_tuple:.2} per tuple \
         (budget {MAX_ALLOCATIONS_PER_TUPLE})"
    );

    // Binary NM-CIJ over the first two sets, same engine.
    let mut workload = engine.build_workload(&sets[0], &sets[1]);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
    let pairs = stream.by_ref().count();
    assert!(stream.io_error().is_none());
    drop(stream);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(pairs > 1_500, "only {pairs} pairs: the input degenerated");
    let per_pair = spent as f64 / pairs as f64;
    assert!(
        per_pair <= MAX_ALLOCATIONS_PER_PAIR,
        "{spent} allocations for {pairs} pairs = {per_pair:.2} per pair \
         (budget {MAX_ALLOCATIONS_PER_PAIR})"
    );
}
