//! Fast-mode equivalence tests: the lock-light serving executor
//! (`ExecMode::Fast`) must produce results byte-identical to the metered
//! oracle across storage backends, worker-pool widths and concurrent query
//! counts, and concurrent served queries must be isolated from each other
//! by their private cache quotas.

use cij::core::grouped_nn_via_all_nn;
use cij::prelude::*;
use cij::rtree::RTreeConfig;
use proptest::prelude::*;
use std::sync::Arc;

const BACKENDS: [StorageBackend; 3] = StorageBackend::ALL;
const THREADS: [usize; 2] = [1, 4];
const QUERY_COUNTS: [usize; 3] = [1, 4, 16];

fn config_for(backend: StorageBackend, threads: usize, mode: ExecMode) -> CijConfig {
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
        .with_storage_backend(backend)
        .with_worker_threads(threads)
        .with_exec_mode(mode)
}

fn pointset(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..10_000.0f64, 0.0..10_000.0f64), 2..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Emission-ordered pairs of a solo NM-CIJ run under the given mode.
fn solo_pairs(p: &[Point], q: &[Point], config: &CijConfig) -> Vec<(u64, u64)> {
    QueryEngine::new(*config).join(p, q, Algorithm::NmCij).pairs
}

/// Emission-ordered tuple ids of a solo multiway run under the given mode.
fn solo_tuple_ids(sets: &[Vec<Point>], config: &CijConfig) -> Vec<Vec<u64>> {
    QueryEngine::new(*config)
        .multiway(sets)
        .tuples
        .into_iter()
        .map(|t| t.ids)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fast ≡ Metered for binary pairs and multiway tuples over the full
    /// backend × worker-thread matrix. Emission order is compared, not just
    /// the sorted sets — the fast path must preserve the deterministic
    /// leaf-major order of the metered protocol.
    #[test]
    fn fast_matches_metered_pairs_and_tuples(
        p in pointset(30),
        q in pointset(30),
        r in pointset(20),
    ) {
        for backend in BACKENDS {
            for threads in THREADS {
                let metered = config_for(backend, threads, ExecMode::Metered);
                let fast = config_for(backend, threads, ExecMode::Fast);
                prop_assert_eq!(
                    solo_pairs(&p, &q, &fast),
                    solo_pairs(&p, &q, &metered),
                    "pairs diverge ({backend:?}, {threads} threads)"
                );
                let sets = [p.clone(), q.clone(), r.clone()];
                prop_assert_eq!(
                    solo_tuple_ids(&sets, &fast),
                    solo_tuple_ids(&sets, &metered),
                    "tuples diverge ({backend:?}, {threads} threads)"
                );
            }
        }
    }

    /// N ∈ {1, 4, 16} concurrent served queries against one shared snapshot
    /// each reproduce the metered oracle exactly (pairs, emission order and
    /// completion row counts).
    #[test]
    fn concurrent_served_queries_match_the_metered_oracle(
        p in pointset(28),
        q in pointset(28),
    ) {
        for backend in BACKENDS {
            for threads in THREADS {
                let metered = config_for(backend, threads, ExecMode::Metered);
                let oracle = solo_pairs(&p, &q, &metered);
                let engine = QueryEngine::new(config_for(backend, threads, ExecMode::Fast));
                let sets = [p.clone(), q.clone()];
                for n in QUERY_COUNTS {
                    let service = engine.serve(
                        &sets,
                        ServiceConfig {
                            queue_depth: n.max(4),
                            workers: 4,
                            ..ServiceConfig::default()
                        },
                    );
                    let handles: Vec<ResponseHandle> = (0..n)
                        .map(|_| service.submit(Request::Join { p: 0, q: 1 }).unwrap())
                        .collect();
                    for handle in &handles {
                        prop_assert_eq!(&handle.collect_pairs(), &oracle);
                        let done = handle.completion();
                        prop_assert!(!done.failed);
                        prop_assert_eq!(done.rows, oracle.len() as u64);
                        prop_assert!(done.page_accesses > 0);
                    }
                    service.shutdown();
                }
            }
        }
    }
}

/// Quota isolation: queries under heavy cache-budget pressure (16 queries
/// competing for a budget that fits only two quotas) return exactly what
/// they return when run alone with the whole budget to themselves. Private
/// per-query caches make cross-query eviction structurally impossible, so
/// contention can delay a query but never change its answer — and the
/// aggregate residency envelope is never exceeded.
#[test]
fn quota_pressure_never_changes_results() {
    let engine = QueryEngine::new(config_for(StorageBackend::Heap, 2, ExecMode::Fast));
    let p = uniform_points(220, &Rect::DOMAIN, 9101);
    let q = uniform_points(200, &Rect::DOMAIN, 9102);
    let r = uniform_points(60, &Rect::DOMAIN, 9103);
    let sets = [p, q, r];

    // Solo references: one query at a time, generous budget.
    let solo = engine.serve(&sets, ServiceConfig::default());
    let solo_pairs = solo
        .submit(Request::Join { p: 0, q: 1 })
        .unwrap()
        .collect_pairs();
    let solo_tuples: Vec<Vec<u64>> = solo
        .submit(Request::Multiway {
            sets: vec![0, 1, 2],
        })
        .unwrap()
        .collect_tuples()
        .into_iter()
        .map(|t| t.ids)
        .collect();
    solo.shutdown();

    // Contended: 16 queries, budget fits two quotas at a time.
    let contended = engine.serve(
        &sets,
        ServiceConfig {
            queue_depth: 32,
            workers: 4,
            cache_budget_cells: 128,
            query_cache_quota: 64,
        },
    );
    let handles: Vec<(bool, ResponseHandle)> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                (
                    true,
                    contended.submit(Request::Join { p: 0, q: 1 }).unwrap(),
                )
            } else {
                (
                    false,
                    contended
                        .submit(Request::Multiway {
                            sets: vec![0, 1, 2],
                        })
                        .unwrap(),
                )
            }
        })
        .collect();
    for (is_join, handle) in &handles {
        if *is_join {
            assert_eq!(handle.collect_pairs(), solo_pairs);
        } else {
            let ids: Vec<Vec<u64>> = handle.collect_tuples().into_iter().map(|t| t.ids).collect();
            assert_eq!(ids, solo_tuples);
        }
        assert!(!handle.completion().failed);
    }
    let budget = contended.budget();
    assert!(
        budget.high_water() <= budget.total(),
        "aggregate residency {} exceeded the global budget {}",
        budget.high_water(),
        budget.total()
    );
    assert!(budget.high_water() > 0, "budget was never drawn from");
    contended.shutdown();
}

/// The snapshot really is shared: many threads can run fast joins over one
/// `Arc<EngineSnapshot>` without the service front, and a snapshot outlives
/// the engine that built it.
#[test]
fn raw_snapshot_sharing_without_the_service() {
    let p = uniform_points(150, &Rect::DOMAIN, 9201);
    let q = uniform_points(150, &Rect::DOMAIN, 9202);
    let metered = QueryEngine::new(config_for(StorageBackend::Heap, 1, ExecMode::Metered));
    let oracle = solo_pairs(&p, &q, metered.config());
    let snapshot = {
        let engine = QueryEngine::new(config_for(StorageBackend::Heap, 1, ExecMode::Fast));
        Arc::new(engine.snapshot(&[p, q]))
    };
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let snapshot = Arc::clone(&snapshot);
            let oracle = &oracle;
            scope.spawn(move || {
                let service = CijService::start(snapshot, ServiceConfig::default());
                let got = service
                    .submit(Request::Join { p: 0, q: 1 })
                    .unwrap()
                    .collect_pairs();
                assert_eq!(&got, oracle);
                service.shutdown();
            });
        }
    });
}

/// A grouped request is its join's own stream with the locations counted
/// as the pairs are reported: however many locations it carries, it reads
/// exactly the pages `Join` over the same sets reads under the same quota
/// — no second pass over either tree — and counts what the two-lookups-per-
/// location plan counts.
#[test]
fn a_served_grouped_request_reads_exactly_what_its_join_reads() {
    let engine = QueryEngine::new(config_for(StorageBackend::Heap, 2, ExecMode::Fast));
    let sets = [
        uniform_points(600, &Rect::DOMAIN, 9301),
        uniform_points(600, &Rect::DOMAIN, 9302),
    ];
    let service = engine.serve(&sets, ServiceConfig::default());
    let join = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
    let pairs = join.collect_pairs();
    let join = join.completion();
    assert!(join.page_accesses > 0 && join.rows == pairs.len() as u64);
    for n in [0usize, 1, 500, 5_000] {
        let locations = uniform_points(n, &Rect::DOMAIN, 9303);
        let oracle = grouped_nn_via_all_nn(&sets[0], &sets[1], &locations);
        let handle = service
            .submit(Request::GroupedNn {
                p: 0,
                q: 1,
                locations,
            })
            .unwrap();
        let counts = handle.collect_groups();
        let done = handle.completion();
        assert!(!done.failed, "{n} locations");
        assert_eq!(done.page_accesses, join.page_accesses, "{n} locations");
        assert_eq!(done.watermarks, join.watermarks, "{n} locations");
        assert_eq!(done.rows, counts.len() as u64, "{n} locations");
        assert!(counts.keys().all(|pair| pairs.contains(pair)));
        assert_eq!(counts, oracle, "{n} locations");
    }
    service.shutdown();
}
