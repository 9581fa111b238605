//! The allocation budgets of the multiway and the binary join, as a tier-1
//! gate.
//!
//! `core.pipeline.allocs_per_op` is one of the counters the repo benchmark
//! reports, but nothing fails when it regresses. This file pins it where a
//! regression is cheapest to see: heap allocations per emitted tuple of a
//! fixed 3-way clustered join, and per emitted pair of a fixed binary
//! NM-CIJ, each at one worker. The count is `cij_bench::allocations()` —
//! naming that crate links its counting `#[global_allocator]` into this test
//! binary — and the binary holds exactly **one** `#[test]`, so no sibling
//! test's allocations are ever counted — keep it that way.

use cij::prelude::*;
use cij_bench::allocations;

/// Allocations per emitted tuple the join may spend. Two are structural —
/// the public `MultiwayTuple { ids: Vec<u64>, region }` owns two heap
/// objects — and the rest of the floor is the exact cells BatchVoronoi
/// returns (and the copies the reuse buffers keep), each filter call's
/// candidate list, and in debug builds the id clone of the stream's
/// uniqueness guard. When the bound was set the join measured 6.9 here
/// (5.9 with `--release`); the per-tuple `Vec`s and per-clip outlines of
/// the allocating extension step it replaced measured 22.9.
const MAX_ALLOCATIONS_PER_TUPLE: f64 = 10.0;

/// Allocations per emitted pair binary NM-CIJ may spend. The floor is the
/// exact cells BatchVoronoi returns and the copies the reuse buffer keeps,
/// each filter call's candidate list and the per-leaf vectors of the chunk
/// stages; no allocation is per pair. When the bound was set the join
/// measured 2.9 here (debug and `--release` alike).
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

    let before = allocations();
    let mut stream = engine.multiway_stream(&mut workload);
    let tuples = stream.by_ref().count();
    assert!(stream.io_error().is_none());
    drop(stream);
    let spent = allocations() - before;

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
    let before = allocations();
    let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
    let pairs = stream.by_ref().count();
    assert!(stream.io_error().is_none());
    drop(stream);
    let spent = allocations() - before;

    assert!(pairs > 1_500, "only {pairs} pairs: the input degenerated");
    let per_pair = spent as f64 / pairs as f64;
    assert!(
        per_pair <= MAX_ALLOCATIONS_PER_PAIR,
        "{spent} allocations for {pairs} pairs = {per_pair:.2} per pair \
         (budget {MAX_ALLOCATIONS_PER_PAIR})"
    );
}
