//! Integration tests for the leaf layouts: the SoA arena/scratch kernel
//! path ([`LeafLayout::Soa`], the engine default) must be observably
//! identical to the AoS owned-node baseline ([`LeafLayout::Aos`]) — same
//! pairs and tuples (set *and* order), same counters, same page accesses —
//! across random workloads, storage backends and worker-thread counts. The
//! layout is a memory strategy, never a result strategy.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NM-CIJ under the SoA layout is byte-identical to the AoS layout for
    /// random workloads, on both storage backends, single-threaded and
    /// parallel.
    #[test]
    fn nm_layouts_agree_across_backends_and_threads(
        seed in 0u64..10_000,
        n_p in 60usize..300,
        n_q in 50usize..200,
        backend_pick in 0usize..2,
        threads_pick in 0usize..2,
        clustered_pick in 0usize..2,
    ) {
        let backend = [StorageBackend::Heap, StorageBackend::File][backend_pick];
        let threads = [1usize, 4][threads_pick];
        let p = if clustered_pick == 1 {
            clustered_points(
                &ClusterSpec {
                    n: n_p,
                    clusters: 5,
                    sigma_fraction: 0.05,
                    background_fraction: 0.1,
                    size_skew: 0.6,
                },
                &Rect::DOMAIN,
                23_100 + seed,
            )
        } else {
            uniform_points(n_p, &Rect::DOMAIN, 23_100 + seed)
        };
        let q = uniform_points(n_q, &Rect::DOMAIN, 23_200 + seed);
        let run = |layout: LeafLayout| {
            let engine = QueryEngine::new(
                engine_config()
                    .with_leaf_layout(layout)
                    .with_storage_backend(backend)
                    .with_worker_threads(threads),
            );
            engine.join(&p, &q, Algorithm::NmCij)
        };
        let soa = run(LeafLayout::Soa);
        let aos = run(LeafLayout::Aos);
        prop_assert_eq!(&soa.pairs, &aos.pairs);
        prop_assert_eq!(&soa.nm, &aos.nm);
        prop_assert_eq!(soa.page_accesses(), aos.page_accesses());
        prop_assert_eq!(&soa.progress, &aos.progress);
        prop_assert_eq!(&soa.watermarks, &aos.watermarks);
    }

    /// The multiway join is likewise layout-invariant: identical tuple
    /// streams, counters and page accesses at any thread count.
    #[test]
    fn multiway_layouts_agree(
        seed in 0u64..10_000,
        k in 2usize..4,
        n in 50usize..160,
        threads_pick in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_pick];
        let sets: Vec<Vec<Point>> = (0..k)
            .map(|i| uniform_points(n / (i + 1), &Rect::DOMAIN, 23_300 + seed + i as u64))
            .collect();
        let run = |layout: LeafLayout| {
            QueryEngine::new(
                engine_config()
                    .with_leaf_layout(layout)
                    .with_worker_threads(threads),
            )
            .multiway(&sets)
        };
        let soa = run(LeafLayout::Soa);
        let aos = run(LeafLayout::Aos);
        let soa_ids: Vec<&Vec<u64>> = soa.tuples.iter().map(|t| &t.ids).collect();
        let aos_ids: Vec<&Vec<u64>> = aos.tuples.iter().map(|t| &t.ids).collect();
        prop_assert_eq!(soa_ids, aos_ids);
        prop_assert_eq!(&soa.counters, &aos.counters);
        prop_assert_eq!(soa.driver, aos.driver);
        prop_assert_eq!(soa.page_accesses, aos.page_accesses);
    }
}

#[test]
fn streaming_nm_is_layout_invariant_pair_by_pair() {
    // The lazy stream must produce the same pairs in the same order under
    // either layout — not just the same drained outcome.
    let p = uniform_points(500, &Rect::DOMAIN, 23_401);
    let q = uniform_points(400, &Rect::DOMAIN, 23_402);
    let collect = |layout: LeafLayout| {
        let engine = QueryEngine::new(engine_config().with_leaf_layout(layout));
        let mut w = engine.build_workload(&p, &q);
        let stream = engine.stream(&mut w, Algorithm::NmCij);
        stream.collect::<Vec<_>>()
    };
    assert_eq!(collect(LeafLayout::Soa), collect(LeafLayout::Aos));
}

#[test]
fn layout_env_override_is_honoured() {
    // `with_env_overrides` reads CIJ_LEAF_LAYOUT; the test suite cannot set
    // process-global env vars safely, so check the builder + parser pair
    // the override is built from instead.
    assert_eq!(CijConfig::default().leaf_layout, LeafLayout::Soa);
    assert_eq!(
        CijConfig::default()
            .with_leaf_layout(LeafLayout::Aos)
            .leaf_layout,
        LeafLayout::Aos
    );
    assert_eq!("soa".parse::<LeafLayout>().unwrap(), LeafLayout::Soa);
    assert_eq!("aos".parse::<LeafLayout>().unwrap(), LeafLayout::Aos);
    assert!("rowwise".parse::<LeafLayout>().is_err());
}
