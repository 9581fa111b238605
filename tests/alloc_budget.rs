//! The allocation budgets of the multiway join, the binary join, a warm
//! BatchVoronoi call and the index read path, as a tier-1 gate.
//!
//! `core.pipeline.allocs_per_op` is one of the counters the repo benchmark
//! reports, but nothing fails when it regresses. This file pins it where a
//! regression is cheapest to see: heap allocations per emitted tuple of a
//! fixed 3-way clustered join, per emitted pair of a fixed binary NM-CIJ
//! (fast and metered), each at one worker, for one leaf group's cells and
//! one 1 000-member clustered group's on a warm `VorScratch`, and per warm
//! 8-NN probe, warm window query and cold counted read of a point tree. The count is `cij_bench::allocations()` —
//! naming that crate links its counting `#[global_allocator]` into this test
//! binary — and the binary holds exactly **one** `#[test]`, so no sibling
//! test's allocations are ever counted — keep it that way.

use cij::prelude::*;
use cij::voronoi::{batch_voronoi, NoCache, VorScratch};
use cij_bench::allocations;

/// Allocations per emitted tuple the join may spend. Two are structural —
/// the public `MultiwayTuple { ids: Vec<u64>, region }` owns two heap
/// objects — and the rest of the floor is the exact cells BatchVoronoi
/// returns (and the copies the reuse buffers keep), each filter call's
/// candidate list, and in debug builds the id clone of the stream's
/// uniqueness guard. Re-measured in PR 22 the join spends 6.87 here (5.87
/// with `--release`, 6.88 under the transient fault profile); the per-tuple
/// `Vec`s and per-clip outlines of the allocating extension step it
/// replaced measured 22.9. Since the reuse buffers keep their cells in the
/// LRU's slots, with no id-keyed map beside them, and each unit's cache plan
/// is collected at its exact size: 6.60 (5.60 with `--release`).
const MAX_ALLOCATIONS_PER_TUPLE: f64 = 7.0;

/// Allocations per emitted pair binary NM-CIJ may spend. The floor is the
/// exact cells BatchVoronoi returns and the copies the reuse buffer keeps,
/// each filter call's candidate list and the per-leaf vectors of the chunk
/// stages; no allocation is per pair. Re-measured in PR 22 the join spends
/// 2.81 here (debug and `--release` alike, 2.82 under the transient fault
/// profile; 2.89 while BatchVoronoi still built a heap per group), and 2.78
/// since PR 25 dropped the per-leaf true-hit `HashSet`.
/// With the report testing pairs against per-worker edge tables it spends
/// 2.79 (debug and `--release` alike, 2.80 under the transient fault
/// profile): the tables' and join marks' growth to their high-water mark,
/// less the per-leaf box vector they replaced, over this run's 15 leaves.
/// With the reuse buffer's cells in its LRU slots and exact-size cache
/// plans: 2.48, debug and `--release` alike.
const MAX_ALLOCATIONS_PER_PAIR: f64 = 3.0;

/// Allocations per emitted pair the same binary join may spend metered at
/// one worker: the fast floor less the cold decodes of pages the buffer
/// already holds, plus each reader's page trace. Measured in PR 25, when
/// this run became the chunk protocol too: 2.62 (debug and `--release`
/// alike, 2.62 under the transient fault profile); the sequential leaf loop
/// it replaced spent 2.41.
/// With the report's edge tables: 2.63 (all three alike). Since a replayed
/// miss admits the page its reader pinned instead of decoding it again
/// (PR 42): 2.30, debug and `--release` alike.
/// With the reuse buffer's cells in its LRU slots and exact-size cache
/// plans: 2.28.
const MAX_ALLOCATIONS_PER_METERED_PAIR: f64 = 2.3;

/// Allocations a second `batch_voronoi` over one 41-point leaf group
/// may spend on the scratch the first call warmed: what the returned cells
/// need, and the nodes the traversal reads through this tree's zero-page
/// buffer. Measured 99, debug and `--release` alike: the vector of cells,
/// one seed outline per member (41), 41 outline growths (35 while seeding,
/// 6 while refining with leaves; 39 from four vertices to eight, 2 from
/// eight to sixteen), and 16 for the 8 cold node reads (the root, one inner
/// node and six leaves, each decoded into an `Arc` and one entry vector).
/// The traversal heap the call used to build and regrow for every group
/// made it 105.
const MAX_WARM_ALLOCATIONS_PER_LEAF_GROUP: u64 = 100;

/// Allocations a second `batch_voronoi` over one 1 000-member clustered
/// group — the size of a multiway extension unit, whose units reach 1 286
/// members — may spend on the scratch the first call warmed: again only
/// what the returned cells need, however large the group's triangulation
/// and tables grew. Measured 2 043 — the vector of cells, one seed outline
/// per member and the outlines' growths, 2.04 per member.
const MAX_WARM_ALLOCATIONS_PER_LARGE_GROUP: u64 = 2_100;

/// Allocations a `k_nearest(.., 8)` probe may spend when every page it
/// reads is a buffer hit: the answer array, the vector the descent's
/// children wait in (heapified in place at the first leaf, and reserved
/// large enough that the queue does not regrow) and the result — three.
/// Measured 3.00 over 500 probes; while objects were queued beside the
/// nodes — a queue, its entry vector and the bound's eight ranks, with a
/// doubling of queue and entries on the probes that queued more than the
/// reservation — it was 4.24, and the per-probe heap of 40-byte items that
/// regrew from empty, under a result that grew from empty, made it 8.73.
const MAX_ALLOCATIONS_PER_WARM_KNN_PROBE: f64 = 3.0;

/// Allocations a warm 100 × 100 window query may spend: the page stack and
/// the result, each growing from empty. Measured 2.79.
const MAX_ALLOCATIONS_PER_WARM_WINDOW: f64 = 3.0;

/// Allocations a counted read that misses the buffer may spend: the
/// decoded node's `Arc` and its one entry vector, nothing else — 2.00
/// measured, 2.07 under the transient fault profile (a retried transfer
/// builds its error).
const MAX_ALLOCATIONS_PER_COLD_READ: f64 = 2.1;

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

    // The same binary join metered at one worker: the same chunk protocol,
    // its readers traced and the traces replayed through the buffers.
    let engine = QueryEngine::new(CijConfig::default().with_worker_threads(1));
    let mut workload = engine.build_workload(&sets[0], &sets[1]);
    let before = allocations();
    let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
    let metered_pairs = stream.by_ref().count();
    assert!(stream.io_error().is_none());
    drop(stream);
    let spent = allocations() - before;

    assert_eq!(metered_pairs, pairs, "metered and fast emit the same pairs");
    let per_pair = spent as f64 / pairs as f64;
    assert!(
        per_pair <= MAX_ALLOCATIONS_PER_METERED_PAIR,
        "{spent} allocations for {pairs} metered pairs = {per_pair:.2} per pair \
         (budget {MAX_ALLOCATIONS_PER_METERED_PAIR})"
    );

    // BatchVoronoi on a warm scratch: `VorScratch` promises that only the
    // returned cells allocate.
    let points = uniform_points(2_000, &Rect::DOMAIN, 16_200);
    let mut tree = RTree::bulk_load(RTreeConfig::default(), PointObject::from_points(&points));
    let leaf = tree.leaf_pages_hilbert_order(&Rect::DOMAIN)[0];
    let group = tree.try_read_node(leaf).unwrap().objects;
    assert_eq!(group.len(), 41, "one full default-page leaf");
    let mut scratch = VorScratch::default();
    let warm_up = batch_voronoi(&mut tree, &group, &Rect::DOMAIN, &mut NoCache, &mut scratch);
    let before = allocations();
    let cells = batch_voronoi(&mut tree, &group, &Rect::DOMAIN, &mut NoCache, &mut scratch);
    let spent = allocations() - before;
    assert_eq!(cells, warm_up);
    assert!(
        spent <= MAX_WARM_ALLOCATIONS_PER_LEAF_GROUP,
        "{spent} allocations for the {} cells of a warm call \
         (budget {MAX_WARM_ALLOCATIONS_PER_LEAF_GROUP})",
        group.len()
    );

    // The same on one large clustered group, the seeding's triangulation
    // included.
    let spec = ClusterSpec {
        n: 4_000,
        clusters: 4,
        sigma_fraction: 0.02,
        background_fraction: 0.1,
        size_skew: 0.5,
    };
    let points = clustered_points(&spec, &Rect::DOMAIN, 16_250);
    let mut tree = RTree::bulk_load(RTreeConfig::default(), PointObject::from_points(&points));
    let group: Vec<PointObject> = (tree.k_nearest(points[0], 1_000).into_iter())
        .map(|(_, o)| o)
        .collect();
    let mut scratch = VorScratch::default();
    let warm_up = batch_voronoi(&mut tree, &group, &Rect::DOMAIN, &mut NoCache, &mut scratch);
    let before = allocations();
    let cells = batch_voronoi(&mut tree, &group, &Rect::DOMAIN, &mut NoCache, &mut scratch);
    let spent = allocations() - before;
    assert_eq!(cells, warm_up);
    assert!(
        spent <= MAX_WARM_ALLOCATIONS_PER_LARGE_GROUP,
        "{spent} allocations for the {} cells of a warm call \
         (budget {MAX_WARM_ALLOCATIONS_PER_LARGE_GROUP})",
        group.len()
    );

    // The index read path: warm probes and windows (every page a buffer
    // hit), then counted reads through a one-page buffer, every one cold.
    let points = uniform_points(20_000, &Rect::DOMAIN, 16_300);
    let mut tree = RTree::bulk_load(RTreeConfig::default(), PointObject::from_points(&points));
    tree.set_buffer_pages(tree.num_pages());
    let probes = uniform_points(500, &Rect::DOMAIN, 16_301);
    let window = |p: &Point| Rect::from_coords(p.x - 50.0, p.y - 50.0, p.x + 50.0, p.y + 50.0);
    let run = |tree: &mut RTree<PointObject>| {
        let before = allocations();
        let found: usize = probes.iter().map(|p| tree.k_nearest(*p, 8).len()).sum();
        let knn = allocations() - before;
        assert_eq!(found, 8 * probes.len());
        let before = allocations();
        let hits: usize = probes
            .iter()
            .map(|p| tree.range_query(&window(p)).len())
            .sum();
        let range = allocations() - before;
        assert!(hits > probes.len(), "only {hits} window hits");
        (knn, range)
    };
    run(&mut tree);
    let (knn, range) = run(&mut tree);
    let per_probe = knn as f64 / probes.len() as f64;
    assert!(
        per_probe <= MAX_ALLOCATIONS_PER_WARM_KNN_PROBE,
        "{knn} allocations for {} warm 8-NN probes = {per_probe:.2} per probe \
         (budget {MAX_ALLOCATIONS_PER_WARM_KNN_PROBE})",
        probes.len()
    );
    let per_window = range as f64 / probes.len() as f64;
    assert!(
        per_window <= MAX_ALLOCATIONS_PER_WARM_WINDOW,
        "{range} allocations for {} warm windows = {per_window:.2} per window \
         (budget {MAX_ALLOCATIONS_PER_WARM_WINDOW})",
        probes.len()
    );

    let leaves = tree.leaf_pages_hilbert_order(&Rect::DOMAIN);
    tree.set_buffer_pages(1);
    let misses_before = tree.stats().snapshot().physical_reads;
    let before = allocations();
    for &leaf in &leaves {
        tree.try_visit_node(leaf, &mut |node| assert!(node.is_leaf()))
            .unwrap();
    }
    let spent = allocations() - before;
    let misses = tree.stats().snapshot().physical_reads - misses_before;
    assert_eq!(misses, leaves.len() as u64, "every read was to miss");
    let per_read = spent as f64 / misses as f64;
    assert!(
        per_read <= MAX_ALLOCATIONS_PER_COLD_READ,
        "{spent} allocations for {misses} cold reads = {per_read:.2} per read \
         (budget {MAX_ALLOCATIONS_PER_COLD_READ})"
    );
}
