//! Integration tests for the parallel NM-CIJ execution path: with
//! `worker_threads` > 1 the join must be observably indistinguishable from
//! the sequential run — same pairs in the same order, same NM counters,
//! same page-access totals — on uniform and clustered workloads, under
//! cache-eviction pressure, and through the streaming interface.

use cij::core::grouped_nn_via_cij;
use cij::prelude::*;
use cij::rtree::RTreeConfig;
use cij::voronoi::brute_force_diagram;
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

fn run_nm(p: &[Point], q: &[Point], config: &CijConfig) -> CijOutcome {
    let engine = QueryEngine::new(*config);
    engine.join(p, q, Algorithm::NmCij)
}

/// Asserts the full observable-equality contract between a parallel and the
/// sequential run.
fn assert_parity(parallel: &CijOutcome, sequential: &CijOutcome, label: &str) {
    assert_eq!(
        parallel.pairs, sequential.pairs,
        "{label}: pair sequence (set or order) diverged"
    );
    assert_eq!(
        parallel.profile.work, sequential.profile.work,
        "{label}: NM counters diverged"
    );
    assert_eq!(
        parallel.page_accesses(),
        sequential.page_accesses(),
        "{label}: page-access totals diverged"
    );
    assert_eq!(
        parallel.progress, sequential.progress,
        "{label}: per-leaf progress samples diverged"
    );
}

#[test]
fn parallel_equals_sequential_on_uniform_data() {
    let base = test_config();
    let p = uniform_points(600, &Rect::DOMAIN, 9301);
    let q = uniform_points(600, &Rect::DOMAIN, 9302);
    let sequential = run_nm(&p, &q, &base.with_worker_threads(1));
    for threads in [2usize, 4, 8] {
        let parallel = run_nm(&p, &q, &base.with_worker_threads(threads));
        assert_parity(&parallel, &sequential, &format!("uniform, T={threads}"));
    }
}

#[test]
fn parallel_equals_sequential_on_clustered_data() {
    let base = test_config();
    let p = clustered(500, 9303);
    let q = clustered(550, 9304);
    let sequential = run_nm(&p, &q, &base.with_worker_threads(1));
    for threads in [2usize, 4] {
        let parallel = run_nm(&p, &q, &base.with_worker_threads(threads));
        assert_parity(&parallel, &sequential, &format!("clustered, T={threads}"));
    }
}

#[test]
fn parallel_stream_yields_the_sequential_pair_sequence_lazily() {
    // Pull the parallel stream one pair at a time and compare the sequence
    // (not just the drained result) against the sequential stream.
    let base = test_config();
    let p = uniform_points(400, &Rect::DOMAIN, 9305);
    let q = uniform_points(400, &Rect::DOMAIN, 9306);

    let sequential: Vec<(u64, u64)> = {
        let engine = QueryEngine::new(base.with_worker_threads(1));
        let mut w = engine.build_workload(&p, &q);
        engine.stream(&mut w, Algorithm::NmCij).collect()
    };
    let engine = QueryEngine::new(base.with_worker_threads(4));
    let mut w = engine.build_workload(&p, &q);
    let mut stream = engine.stream(&mut w, Algorithm::NmCij);
    for (i, expected) in sequential.iter().enumerate() {
        assert_eq!(
            stream.next().as_ref(),
            Some(expected),
            "pair {i} diverged between parallel and sequential streams"
        );
    }
    assert_eq!(stream.next(), None, "parallel stream yielded extra pairs");
}

#[test]
fn parallel_run_agrees_with_the_brute_force_oracle() {
    let config = test_config().with_worker_threads(4);
    let p = uniform_points(300, &Rect::DOMAIN, 9307);
    let q = clustered(300, 9308);
    let outcome = run_nm(&p, &q, &config);
    assert_eq!(
        outcome.sorted_pairs(),
        brute_force_cij(&p, &q, &config.domain)
    );
}

/// One tie rule in every mode: a location on a shared boundary lies in
/// several common influence regions and goes to the first reported pair
/// that holds it. That pair is fixed by the join's pair sequence, so the
/// grouped counts are one value across metered / fast accounting, worker
/// counts and storage backends — here over locations that are nothing but
/// ties (vertices and edge midpoints of both diagrams, duplicated) besides
/// the ordinary ones.
#[test]
fn grouped_counts_are_identical_in_every_mode() {
    let p = uniform_points(300, &Rect::DOMAIN, 9309);
    let q = clustered(300, 9310);
    let mut locations = uniform_points(1_500, &Rect::DOMAIN, 9311);
    for sites in [&p, &q] {
        for cell in brute_force_diagram(sites, &Rect::DOMAIN).iter().step_by(3) {
            let v = cell.vertices();
            locations.extend([v[0], v[1], v[0].midpoint(&v[1]), v[0]]);
        }
    }
    let reference = grouped_nn_via_cij(&p, &q, &locations, &test_config());
    assert_eq!(reference.values().sum::<u64>(), locations.len() as u64);
    for mode in [ExecMode::Metered, ExecMode::Fast] {
        for threads in [1usize, 2, 4] {
            for backend in StorageBackend::ALL {
                let config = test_config()
                    .with_exec_mode(mode)
                    .with_worker_threads(threads)
                    .with_storage_backend(backend);
                assert_eq!(
                    grouped_nn_via_cij(&p, &q, &locations, &config),
                    reference,
                    "{mode:?}, {threads} threads, {backend:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache evictions under concurrency never change results: for random
    /// pointsets and a randomly squeezed reuse buffer, the parallel join
    /// equals the sequential join with the same capacity *and* the
    /// eviction-free reference result.
    #[test]
    fn concurrent_evictions_never_change_results(
        seed in 0u64..1_000,
        capacity in 1usize..12,
        threads in 2usize..5,
    ) {
        let p = uniform_points(180, &Rect::DOMAIN, 77_000 + seed);
        let q = clustered(180, 78_000 + seed);
        let squeezed = test_config().with_cell_cache_capacity(capacity);
        let sequential = run_nm(&p, &q, &squeezed.with_worker_threads(1));
        let parallel = run_nm(&p, &q, &squeezed.with_worker_threads(threads));
        prop_assert_eq!(&parallel.pairs, &sequential.pairs);
        prop_assert_eq!(parallel.profile.work, sequential.profile.work);
        prop_assert_eq!(parallel.page_accesses(), sequential.page_accesses());
        // And eviction pressure itself never perturbs the join result.
        let roomy = run_nm(&p, &q, &test_config().with_worker_threads(threads));
        prop_assert_eq!(parallel.sorted_pairs(), roomy.sorted_pairs());
    }
}
