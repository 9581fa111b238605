//! Integration tests for the conditional-filter kernels: the sub-quadratic
//! `Indexed` kernel must return exactly the scan kernel's candidate set —
//! across random point sets, polygon batches, domains and grid resolutions
//! — the engine-level algorithms must be observably identical under either
//! kernel, and the indexed kernel's clip work per examined point must stay
//! at Voronoi-cell size.

use cij::prelude::*;
use cij::rtree::RTreeConfig;
use proptest::prelude::*;

fn tree_config() -> RTreeConfig {
    RTreeConfig {
        page_size: 512,
        max_entries: 64,
    }
}

fn engine_config() -> CijConfig {
    CijConfig::default()
        .with_rtree(tree_config())
        .with_env_overrides()
}

/// Sorted candidate ids of one filter invocation under the given options.
fn run_filter(
    p: &[Point],
    polys: &[ConvexPolygon],
    domain: &Rect,
    options: &FilterOptions,
) -> (Vec<u64>, FilterStats) {
    let mut rp = RTree::bulk_load(tree_config(), PointObject::from_points(p));
    let scratch = &mut FilterScratch::default();
    let (candidates, stats) =
        batch_conditional_filter_scratch(&mut rp, polys, domain, options, scratch);
    let mut ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    (ids, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Indexed and scan kernels return the same candidate set for random
    /// point sets, polygon batches, domains and grid resolutions — and
    /// their traversals (points examined, entries pruned) are identical.
    #[test]
    fn kernels_return_the_same_candidate_set(
        seed in 0u64..10_000,
        n_p in 40usize..220,
        n_q in 30usize..120,
        batch in 1usize..14,
        resolution_pick in 0usize..5,
        domain_pick in 0usize..3,
    ) {
        let domain = match domain_pick {
            0 => Rect::DOMAIN,
            1 => Rect::from_coords(-500.0, -250.0, 700.0, 450.0),
            _ => Rect::from_coords(2_000.0, 8_000.0, 2_400.0, 11_000.0),
        };
        let p = uniform_points(n_p, &domain, 18_000 + seed);
        let q = uniform_points(n_q, &domain, 19_000 + seed);
        // Probe batch: exact Voronoi cells of a slice of Q — the polygon
        // shape every caller actually probes with.
        let cells = cij::voronoi::brute_force_diagram(&q, &domain);
        let start = (seed as usize) % (n_q - batch.min(n_q - 1));
        let polys: Vec<ConvexPolygon> = cells[start..start + batch.min(n_q - start)].to_vec();

        let grid_resolution = [0usize, 1, 2, 9, 40][resolution_pick];
        let indexed = FilterOptions {
            kernel: FilterKernel::Indexed,
            grid_resolution,
            ..FilterOptions::default()
        };
        let scan = FilterOptions {
            kernel: FilterKernel::Scan,
            grid_resolution: 0,
            ..FilterOptions::default()
        };
        let (ids_indexed, stats_indexed) = run_filter(&p, &polys, &domain, &indexed);
        let (ids_scan, stats_scan) = run_filter(&p, &polys, &domain, &scan);
        prop_assert_eq!(ids_indexed, ids_scan);
        prop_assert_eq!(stats_indexed.points_examined, stats_scan.points_examined);
        prop_assert_eq!(stats_indexed.entries_pruned, stats_scan.entries_pruned);
        prop_assert_eq!(stats_scan.poly_tests_skipped, 0);
    }
}

#[test]
fn nm_cij_is_observably_identical_under_either_kernel() {
    let p = uniform_points(700, &Rect::DOMAIN, 18_101);
    let q = clustered_points(
        &ClusterSpec {
            n: 700,
            clusters: 6,
            sigma_fraction: 0.04,
            background_fraction: 0.1,
            size_skew: 0.7,
        },
        &Rect::DOMAIN,
        18_102,
    );
    let run = |kernel: FilterKernel| {
        let engine = QueryEngine::new(engine_config().with_filter_kernel(kernel));
        engine.join(&p, &q, Algorithm::NmCij)
    };
    let indexed = run(FilterKernel::Indexed);
    let scan = run(FilterKernel::Scan);
    // Everything the filter feeds downstream is identical: the pair stream
    // (set and order), the traversal, the refinement work, the I/O.
    assert_eq!(indexed.pairs, scan.pairs);
    assert_eq!(indexed.page_accesses(), scan.page_accesses());
    assert_eq!(
        indexed.nm.filter_points_examined,
        scan.nm.filter_points_examined
    );
    assert_eq!(
        indexed.nm.filter_entries_pruned,
        scan.nm.filter_entries_pruned
    );
    assert_eq!(indexed.nm.filter_candidates, scan.nm.filter_candidates);
    assert_eq!(indexed.nm.p_cells_computed, scan.nm.p_cells_computed);
    assert_eq!(indexed.progress, scan.progress);
    assert_eq!(indexed.watermarks, scan.watermarks);
    // The point of the indexed kernel: strictly fewer clip operations.
    assert!(
        indexed.nm.filter_clip_ops < scan.nm.filter_clip_ops,
        "indexed kernel must clip less ({} vs {})",
        indexed.nm.filter_clip_ops,
        scan.nm.filter_clip_ops
    );
    assert!(indexed.nm.filter_poly_tests_skipped > 0);
    assert_eq!(scan.nm.filter_poly_tests_skipped, 0);
}

/// Work-counter guard for the bounded clipping: a Voronoi cell has ~6
/// neighbours, so an approximate cell that starts from the probe group's
/// bounds and meets its candidates nearest-first needs a handful of clips.
/// Cells seeded from the whole domain and a grid framed on it needed 18.5
/// per examined point on this join (2.8 now); the counter is deterministic,
/// so the gain cannot silently rot.
#[test]
fn indexed_kernel_clips_a_handful_of_bisectors_per_examined_point() {
    let p = uniform_points(4_000, &Rect::DOMAIN, 18_401);
    let q = uniform_points(4_000, &Rect::DOMAIN, 18_402);
    let config = CijConfig::default().with_filter_kernel(FilterKernel::Indexed);
    let nm = QueryEngine::new(config).join(&p, &q, Algorithm::NmCij).nm;
    assert!(nm.filter_points_examined > 0);
    assert!(
        nm.filter_clip_ops <= 8 * nm.filter_points_examined,
        "{} clip ops over {} examined points",
        nm.filter_clip_ops,
        nm.filter_points_examined
    );
}

#[test]
fn multiway_is_observably_identical_under_either_kernel() {
    let sets = vec![
        uniform_points(150, &Rect::DOMAIN, 18_201),
        uniform_points(100, &Rect::DOMAIN, 18_202),
        uniform_points(70, &Rect::DOMAIN, 18_203),
    ];
    let run = |kernel: FilterKernel| {
        QueryEngine::new(engine_config().with_filter_kernel(kernel)).multiway(&sets)
    };
    let indexed = run(FilterKernel::Indexed);
    let scan = run(FilterKernel::Scan);
    let indexed_ids: Vec<&Vec<u64>> = indexed.tuples.iter().map(|t| &t.ids).collect();
    let scan_ids: Vec<&Vec<u64>> = scan.tuples.iter().map(|t| &t.ids).collect();
    assert_eq!(indexed_ids, scan_ids);
    assert_eq!(indexed.driver, scan.driver);
    assert_eq!(indexed.page_accesses, scan.page_accesses);
    assert_eq!(
        indexed.counters.filter_points_examined,
        scan.counters.filter_points_examined
    );
    assert!(indexed.counters.filter_clip_ops < scan.counters.filter_clip_ops);
}

#[test]
fn parallel_nm_parity_holds_under_the_scan_kernel_too() {
    // The kernel threads through the traced parallel path as well: T=4
    // must stay bit-identical to T=1 under either kernel.
    let p = uniform_points(400, &Rect::DOMAIN, 18_301);
    let q = uniform_points(400, &Rect::DOMAIN, 18_302);
    for kernel in [FilterKernel::Indexed, FilterKernel::Scan] {
        let base = engine_config().with_filter_kernel(kernel);
        let sequential =
            QueryEngine::new(base.with_worker_threads(1)).join(&p, &q, Algorithm::NmCij);
        let parallel = QueryEngine::new(base.with_worker_threads(4)).join(&p, &q, Algorithm::NmCij);
        assert_eq!(parallel.pairs, sequential.pairs, "{:?}", kernel);
        assert_eq!(parallel.nm, sequential.nm, "{:?}", kernel);
        assert_eq!(
            parallel.page_accesses(),
            sequential.page_accesses(),
            "{:?}",
            kernel
        );
        assert_eq!(parallel.watermarks, sequential.watermarks, "{:?}", kernel);
    }
}

/// The filter's traversal on a fixed 3-way clustered input, pinned from the
/// commit before the shield test tabulated its entry-side bounds and grew
/// hints: entries pruned, points examined and the candidate *sequence* are
/// decisions, and a faster way to reach them must not move one.
#[test]
fn shield_decisions_match_the_values_pinned_before_the_bound_table() {
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
    // Fixed configuration (no env overrides): the pins are per plan.
    let config = CijConfig::default().with_rtree(tree_config());
    let outcome = QueryEngine::new(config).multiway(&sets);
    assert_eq!(outcome.counters.filter_entries_pruned, PINNED.0);
    assert_eq!(outcome.counters.filter_points_examined, PINNED.1);
    assert_eq!(outcome.tuples.len(), PINNED.2);

    // One direct call per extension set, probing with the cells of a slice
    // of the driver set: the candidates in the order the traversal accepted
    // them, folded into an order-sensitive FNV-1a hash.
    let cells = cij::voronoi::brute_force_diagram(&sets[0], &config.domain);
    let mut sequence_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut candidates_seen = 0usize;
    for set in &sets[1..] {
        let mut tree = RTree::bulk_load(tree_config(), PointObject::from_points(set));
        for probe in cells.chunks(60) {
            let (candidates, _) = batch_conditional_filter_scratch(
                &mut tree,
                probe,
                &config.domain,
                &FilterOptions::default(),
                &mut FilterScratch::default(),
            );
            candidates_seen += candidates.len();
            for byte in candidates.iter().flat_map(|c| c.id.0.to_le_bytes()) {
                sequence_hash = (sequence_hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!((candidates_seen, sequence_hash), (PINNED.3, PINNED.4));
}

/// `(entries pruned, points examined, tuples, candidates, candidate-sequence
/// hash)` of the input above at the parent commit.
const PINNED: (u64, u64, usize, usize, u64) = (1_217, 4_880, 3_468, 3_986, 0xf297_35dc_a465_bb85);
