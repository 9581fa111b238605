//! Integration tests for the leaf-batched, streaming, parallel multiway
//! CIJ: oracle parity on uniform and clustered data, cost-driven
//! driver-tree selection, exact thread parity at `worker_threads` ∈ {1, 4},
//! file storage parity with the heap, streaming
//! laziness/watermarks, and a proptest over random workloads.

use cij::prelude::*;
use cij::rtree::RTreeConfig;
use proptest::prelude::*;

/// Small pages so even modest datasets produce multi-level trees.
fn test_config() -> CijConfig {
    CijConfig::default().with_rtree(RTreeConfig {
        page_size: 512,
        max_entries: 64,
    })
}

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    clustered_points(
        &ClusterSpec {
            n,
            clusters: 5,
            sigma_fraction: 0.03,
            background_fraction: 0.15,
            size_skew: 0.8,
        },
        &Rect::DOMAIN,
        seed,
    )
}

fn run_multiway(sets: &[Vec<Point>], config: &CijConfig) -> MultiwayOutcome {
    QueryEngine::new(*config).multiway(sets)
}

/// The vertices of every tuple's region, as raw bit patterns.
fn region_bits(outcome: &MultiwayOutcome) -> Vec<Vec<(u64, u64)>> {
    let vertex = |v: &Point| (v.x.to_bits(), v.y.to_bits());
    let region = |t: &MultiwayTuple| t.region.vertices().iter().map(vertex).collect();
    outcome.tuples.iter().map(region).collect()
}

/// Asserts the full observable-equality contract between two multiway runs:
/// tuple ids (set *and* order), every region vertex bit for bit, every
/// counter, page accesses, progress samples and watermarks.
fn assert_parity(a: &MultiwayOutcome, b: &MultiwayOutcome, label: &str) {
    let a_ids: Vec<&Vec<u64>> = a.tuples.iter().map(|t| &t.ids).collect();
    let b_ids: Vec<&Vec<u64>> = b.tuples.iter().map(|t| &t.ids).collect();
    assert_eq!(
        a_ids, b_ids,
        "{label}: tuple sequence (set or order) diverged"
    );
    assert_eq!(
        region_bits(a),
        region_bits(b),
        "{label}: region vertices diverged"
    );
    assert_eq!(a.profile.work, b.profile.work, "{label}: counters diverged");
    assert_eq!(
        a.profile.page_accesses(),
        b.profile.page_accesses(),
        "{label}: page-access totals diverged"
    );
    assert_eq!(a.progress, b.progress, "{label}: progress samples diverged");
    assert_eq!(a.watermarks, b.watermarks, "{label}: watermarks diverged");
}

#[test]
fn three_way_matches_the_oracle_on_uniform_data() {
    let config = test_config();
    let sets = vec![
        uniform_points(40, &Rect::DOMAIN, 15_001),
        uniform_points(45, &Rect::DOMAIN, 15_002),
        uniform_points(35, &Rect::DOMAIN, 15_003),
    ];
    let outcome = run_multiway(&sets, &config);
    assert_eq!(
        outcome.sorted_ids(),
        brute_force_multiway_cij(&sets, &config.domain)
    );
    assert!(!outcome.tuples.is_empty());
}

#[test]
fn three_way_matches_the_oracle_on_clustered_data() {
    let config = test_config();
    let sets = vec![
        clustered(40, 15_004),
        clustered(45, 15_005),
        clustered(35, 15_006),
    ];
    let outcome = run_multiway(&sets, &config);
    assert_eq!(
        outcome.sorted_ids(),
        brute_force_multiway_cij(&sets, &config.domain)
    );
    assert!(!outcome.tuples.is_empty());
}

#[test]
fn thread_parity_is_exact_at_one_and_four_workers() {
    let base = test_config();
    let sets = vec![
        clustered(250, 15_010),
        clustered(250, 15_011),
        clustered(250, 15_012),
    ];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    for threads in [2usize, 4] {
        let parallel = run_multiway(&sets, &base.with_worker_threads(threads));
        assert_parity(
            &parallel,
            &sequential,
            &format!("clustered k=3, T={threads}"),
        );
    }
}

#[test]
fn thread_parity_holds_under_cache_eviction_pressure() {
    // A tiny reuse buffer maximises policy churn across all k caches: hits,
    // misses and evictions must still be decided identically to leaf order.
    let base = test_config().with_cell_cache_capacity(4);
    let sets = vec![clustered(200, 15_013), clustered(200, 15_014)];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    let parallel = run_multiway(&sets, &base.with_worker_threads(4));
    assert_parity(&parallel, &sequential, "squeezed caches, T=4");
    assert!(
        sequential
            .profile
            .work
            .cells
            .iter()
            .map(|c| c.evicted)
            .sum::<u64>()
            > 0,
        "capacity 4 must evict on this workload"
    );
    // Eviction pressure never changes the result set.
    let roomy = run_multiway(&sets, &test_config().with_worker_threads(1));
    assert_eq!(sequential.sorted_ids(), roomy.sorted_ids());
}

#[test]
fn storage_backends_are_observably_identical() {
    let base = test_config();
    let sets = vec![
        clustered(200, 15_015),
        clustered(200, 15_016),
        clustered(200, 15_017),
    ];
    let heap = run_multiway(&sets, &base.with_storage_backend(StorageBackend::Heap));
    // And the same holds with the parallel path on top.
    let heap4 = run_multiway(
        &sets,
        &base
            .with_storage_backend(StorageBackend::Heap)
            .with_worker_threads(4),
    );
    let file = base.with_storage_backend(StorageBackend::File);
    assert_parity(&run_multiway(&sets, &file), &heap, "file vs heap backend");
    let file4 = file.with_worker_threads(4);
    assert_parity(
        &run_multiway(&sets, &file4),
        &heap4,
        "file vs heap backend, T=4",
    );
    assert_parity(&heap4, &heap, "heap T=4 vs T=1");
}

#[test]
fn thread_and_backend_parity_hold_at_a_fixed_nonzero_driver() {
    // The exact-parity contract is per plan: on sizes the cost model ranks
    // to a driver other than set 0, the full observable-equality guarantee
    // must hold across thread counts and storage backends.
    let base = test_config();
    let sets = vec![
        clustered(180, 15_033),
        clustered(90, 15_034),
        clustered(120, 15_035),
    ];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    assert_ne!(sequential.driver, 0);
    let parallel = run_multiway(&sets, &base.with_worker_threads(4));
    assert_parity(&parallel, &sequential, "nonzero driver, T=4 vs T=1");
    let file = run_multiway(&sets, &base.with_storage_backend(StorageBackend::File));
    assert_parity(&file, &sequential, "nonzero driver, file vs heap");
}

#[test]
fn cost_driven_plan_parity_holds_across_threads_and_backends() {
    // The cost model reads only tree metadata, which is identical across
    // thread counts and backends — so the chosen plan, and with it every
    // observable, stays exact.
    let base = test_config();
    let sets = vec![
        clustered(200, 15_036),
        clustered(100, 15_037),
        clustered(60, 15_038),
    ];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    let parallel = run_multiway(&sets, &base.with_worker_threads(4));
    assert_eq!(parallel.driver, sequential.driver);
    assert_parity(&parallel, &sequential, "cost-driven plan, T=4 vs T=1");
    let file = run_multiway(&sets, &base.with_storage_backend(StorageBackend::File));
    assert_eq!(file.driver, sequential.driver);
    assert_parity(&file, &sequential, "cost-driven plan, file vs heap");
}

#[test]
fn raw_tuples_are_unique_without_deduplication() {
    let config = test_config();
    let sets = vec![clustered(150, 15_018), clustered(150, 15_019)];
    let outcome = run_multiway(&sets, &config);
    let mut ids: Vec<Vec<u64>> = outcome.tuples.iter().map(|t| t.ids.clone()).collect();
    let raw_len = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(
        ids.len(),
        raw_len,
        "the stream must never emit the same id tuple twice"
    );
}

#[test]
fn stream_is_lazy_and_watermarks_are_final() {
    let config = test_config();
    let sets = vec![
        uniform_points(800, &Rect::DOMAIN, 15_020),
        uniform_points(800, &Rect::DOMAIN, 15_021),
    ];
    let engine = QueryEngine::new(config);

    let blocking = engine.multiway(&sets);
    let total = blocking.profile.page_accesses();

    let mut w = engine.multiway_workload(&sets);
    let stats = w.stats.clone();
    let mut stream = engine.multiway_stream(&mut w);
    let first = stream
        .next()
        .expect("non-empty multiway join yields tuples");
    assert!(!first.ids.is_empty());
    let at_first = stats.snapshot().page_accesses();
    assert!(
        at_first * 4 < total,
        "first tuple after {at_first} accesses vs {total} total — not lazy"
    );

    // Watermarks recorded so far are a prefix of the blocking run's, and
    // everything at or below the last watermark is already final.
    let early = stream.watermarks_so_far();
    assert!(!early.is_empty());
    let rest: Vec<MultiwayTuple> = stream.by_ref().collect();
    assert_eq!(1 + rest.len(), blocking.tuples.len());
    let full = stream.watermarks_so_far();
    assert_eq!(
        &full[..early.len()],
        &early[..],
        "watermarks are append-only"
    );
    assert_eq!(full, blocking.watermarks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random clustered/uniform workloads and random k, thread count
    /// and cache pressure: the engine agrees
    /// with the brute-force oracle and the parallel run agrees with the
    /// sequential one on every observable.
    #[test]
    fn multiway_parity_and_oracle_hold_for_random_workloads(
        seed in 0u64..1_000,
        k in 2usize..4,
        capacity in 4usize..64,
        threads in 2usize..5,
    ) {
        let sets: Vec<Vec<Point>> = (0..k)
            .map(|i| {
                let s = 16_000 + seed * 10 + i as u64;
                if i % 2 == 0 {
                    uniform_points(30, &Rect::DOMAIN, s)
                } else {
                    clustered(30, s)
                }
            })
            .collect();
        let config = test_config().with_cell_cache_capacity(capacity);
        let sequential = run_multiway(&sets, &config.with_worker_threads(1));
        prop_assert_eq!(
            sequential.sorted_ids(),
            brute_force_multiway_cij(&sets, &config.domain)
        );
        let parallel = run_multiway(&sets, &config.with_worker_threads(threads));
        let seq_ids: Vec<&Vec<u64>> = sequential.tuples.iter().map(|t| &t.ids).collect();
        let par_ids: Vec<&Vec<u64>> = parallel.tuples.iter().map(|t| &t.ids).collect();
        prop_assert_eq!(par_ids, seq_ids);
        prop_assert_eq!(&parallel.profile.work, &sequential.profile.work);
        prop_assert_eq!(parallel.profile.page_accesses(), sequential.profile.page_accesses());
    }
}
