//! End-to-end integration tests spanning every crate of the workspace:
//! data generation → R-tree indexing → Voronoi computation → CIJ algorithms,
//! checked against the brute-force oracle and against each other.

use cij::prelude::*;
use cij::rtree::RTreeConfig;

/// Small pages so even modest datasets produce multi-level trees.
fn test_config() -> CijConfig {
    CijConfig::default().with_rtree(RTreeConfig {
        page_size: 512,
        max_entries: 64,
    })
}

/// The unified entry point every integration test goes through.
fn engine() -> QueryEngine {
    QueryEngine::new(test_config())
}

#[test]
fn all_algorithms_agree_with_oracle_on_uniform_data() {
    let config = test_config();
    let p = uniform_points(120, &Rect::DOMAIN, 1001);
    let q = uniform_points(140, &Rect::DOMAIN, 1002);
    let oracle = brute_force_cij(&p, &q, &config.domain);
    let engine = engine();
    for alg in Algorithm::ALL {
        let outcome = engine.join(&p, &q, alg);
        assert_eq!(outcome.sorted_pairs(), oracle, "{} disagrees", alg.name());
    }
}

#[test]
fn all_algorithms_agree_with_oracle_on_clustered_data() {
    let config = test_config();
    let p = clustered_points(
        &ClusterSpec {
            n: 150,
            clusters: 6,
            sigma_fraction: 0.02,
            background_fraction: 0.1,
            size_skew: 0.9,
        },
        &Rect::DOMAIN,
        2001,
    );
    let q = clustered_points(
        &ClusterSpec {
            n: 130,
            clusters: 4,
            sigma_fraction: 0.05,
            background_fraction: 0.2,
            size_skew: 0.5,
        },
        &Rect::DOMAIN,
        2002,
    );
    let oracle = brute_force_cij(&p, &q, &config.domain);
    let engine = engine();
    for alg in Algorithm::ALL {
        let outcome = engine.join(&p, &q, alg);
        assert_eq!(outcome.sorted_pairs(), oracle, "{} disagrees", alg.name());
    }
}

#[test]
fn all_algorithms_agree_on_real_like_samples() {
    let config = test_config();
    // Tiny scale so the oracle stays tractable.
    let p = RealDataset::PA.generate_scaled(0.002);
    let q = RealDataset::PP.generate_scaled(0.001);
    let oracle = brute_force_cij(&p, &q, &config.domain);
    let engine = engine();
    for alg in Algorithm::ALL {
        assert_eq!(
            engine.join(&p, &q, alg).sorted_pairs(),
            oracle,
            "{} disagrees on real-like data",
            alg.name()
        );
    }
}

#[test]
fn asymmetric_cardinalities_are_handled() {
    let config = test_config();
    let p = uniform_points(30, &Rect::DOMAIN, 3001);
    let q = uniform_points(300, &Rect::DOMAIN, 3002);
    let oracle = brute_force_cij(&p, &q, &config.domain);
    let engine = engine();
    for alg in Algorithm::ALL {
        assert_eq!(engine.join(&p, &q, alg).sorted_pairs(), oracle);
    }
    // And the mirrored join swaps pair components.
    let mirrored = brute_force_cij(&q, &p, &config.domain);
    let mut swapped: Vec<(u64, u64)> = oracle.iter().map(|&(a, b)| (b, a)).collect();
    swapped.sort_unstable();
    assert_eq!(mirrored, swapped);
}

#[test]
fn tiny_datasets_and_edge_cardinalities() {
    let config = test_config();
    for (np, nq) in [(1, 1), (1, 10), (7, 3)] {
        let p = uniform_points(np, &Rect::DOMAIN, 4000 + np as u64);
        let q = uniform_points(nq, &Rect::DOMAIN, 5000 + nq as u64);
        let oracle = brute_force_cij(&p, &q, &config.domain);
        let engine = engine();
        for alg in Algorithm::ALL {
            assert_eq!(
                engine.join(&p, &q, alg).sorted_pairs(),
                oracle,
                "{} on |P|={np}, |Q|={nq}",
                alg.name()
            );
        }
    }
}

#[test]
fn cost_ordering_matches_the_paper() {
    // The headline experimental finding: NM-CIJ < PM-CIJ < FM-CIJ in page
    // accesses, and NM-CIJ stays above (but close to) the LB lower bound.
    // Pinned to metered execution: it is the measurement oracle, and fast
    // mode deliberately reports logical snapshot reads instead of buffered
    // physical page accesses, which would skew this comparison.
    let p = uniform_points(1_500, &Rect::DOMAIN, 6001);
    let q = uniform_points(1_500, &Rect::DOMAIN, 6002);
    let engine = QueryEngine::new(test_config().with_exec_mode(ExecMode::Metered));
    let mut costs = Vec::new();
    let mut lb = 0;
    for alg in Algorithm::ALL {
        let mut w = engine.build_workload(&p, &q);
        lb = w.lower_bound_io();
        let outcome = engine.run(&mut w, alg);
        costs.push((alg, outcome.page_accesses()));
    }
    let fm = costs[0].1;
    let pm = costs[1].1;
    let nm = costs[2].1;
    assert!(nm < pm, "NM ({nm}) must beat PM ({pm})");
    assert!(pm < fm, "PM ({pm}) must beat FM ({fm})");
    assert!(nm >= lb, "NM ({nm}) cannot beat the lower bound ({lb})");
}

#[test]
fn voronoi_pipeline_is_consistent_with_join_results() {
    // Cross-crate invariant: a pair is in the CIJ result iff the two exact
    // Voronoi cells (computed through the rtree+voronoi stack) intersect.
    let config = test_config();
    let p = uniform_points(90, &Rect::DOMAIN, 7001);
    let q = uniform_points(80, &Rect::DOMAIN, 7002);
    let engine = engine();
    let outcome = engine.join(&p, &q, Algorithm::NmCij);

    let mut wp = Workload::build(&p, &q, &config);
    let cells_p: Vec<ConvexPolygon> = (0..p.len())
        .map(|i| {
            single_voronoi(
                &mut wp.rp,
                p[i],
                cij::rtree::ObjectId(i as u64),
                &config.domain,
            )
        })
        .collect();
    let cells_q: Vec<ConvexPolygon> = (0..q.len())
        .map(|i| {
            single_voronoi(
                &mut wp.rq,
                q[i],
                cij::rtree::ObjectId(i as u64),
                &config.domain,
            )
        })
        .collect();

    let pairs = outcome.sorted_pairs();
    for (i, cell_p) in cells_p.iter().enumerate() {
        for (j, cell_q) in cells_q.iter().enumerate() {
            let expected = cell_p.intersects(cell_q);
            let in_result = pairs.binary_search(&(i as u64, j as u64)).is_ok();
            assert_eq!(
                expected, in_result,
                "pair ({i}, {j}) mismatch between cell intersection and join result"
            );
        }
    }
}

#[test]
fn buffer_size_monotonically_helps_io() {
    let p = uniform_points(2_000, &Rect::DOMAIN, 8001);
    let q = uniform_points(2_000, &Rect::DOMAIN, 8002);
    let mut previous = u64::MAX;
    for fraction in [0.005, 0.02, 0.08] {
        let engine = QueryEngine::new(test_config().with_buffer_fraction(fraction));
        let io = engine.join(&p, &q, Algorithm::NmCij).page_accesses();
        assert!(
            io <= previous,
            "I/O should not increase with a larger buffer ({io} after {previous})"
        );
        previous = io;
    }
}
