//! Property-based integration tests: the CIJ invariants must hold for
//! arbitrary small pointsets, not just the hand-picked ones.

use cij::core::{grouped_nn_via_all_nn, GroupCounts};
use cij::prelude::*;
use cij::rtree::RTreeConfig;
use cij::voronoi::{brute_force_diagram, nearest_index};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Small pages so even modest datasets produce multi-level trees.
fn test_config() -> CijConfig {
    CijConfig::default().with_rtree(RTreeConfig {
        page_size: 512,
        max_entries: 64,
    })
}

fn pointset(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..10_000.0f64, 0.0..10_000.0f64), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Distance from `l` to the nearest bisector bounding the cell of its
/// nearest site (infinite for a single site): `l` is a tie of the Voronoi
/// diagram of `sites` exactly when this is zero.
fn bisector_gap(sites: &[Point], l: &Point) -> f64 {
    let a = sites[nearest_index(sites, l).expect("sites")];
    sites
        .iter()
        .filter(|b| **b != a)
        .map(|b| (b.dist_sq(l) - a.dist_sq(l)) / (2.0 * a.dist(b)))
        .fold(f64::INFINITY, f64::min)
}

/// A location picked to sit where point-in-cell decisions are hardest: on a
/// site, on a vertex or an edge of one of the two (brute-force) diagrams,
/// on the border or a corner of the domain, outside it — or anywhere.
fn adversarial_location(
    (kind, i, j, t): (usize, usize, usize, f64),
    sites: [&[Point]; 2],
    diagrams: &[Vec<ConvexPolygon>; 2],
) -> Point {
    let (sites, cells) = (sites[i % 2], &diagrams[i % 2]);
    let cell = cells[(i / 2) % cells.len()].vertices();
    let (a, b) = (cell[j % cell.len()], cell[(j + 1) % cell.len()]);
    let side = [0.0, 10_000.0][j % 2];
    match kind {
        0 => sites[(i / 2) % sites.len()],
        1 => a,
        2 => Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)),
        3 => [
            Point::new(t * 10_000.0, side),
            Point::new(side, t * 10_000.0),
        ][i % 2],
        4 => Point::new(side, [0.0, 10_000.0][i % 2]),
        5 => Point::new(side + (side - 5_000.0) * (1e-3 + t), t * 10_000.0),
        _ => Point::new(t * 10_000.0, (i * 7_919 + j * 104_729) as f64 % 10_000.0),
    }
}

/// A lattice pointset: even coordinates in `[0, 32]`, so the midpoint of
/// any two sites is a lattice point too.
fn lattice_set() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..=16, 0i64..=16), 1..20)
        .prop_map(|v| v.into_iter().map(|(x, y)| (2 * x, 2 * y)).collect())
}

/// The indices of the sites nearest to `l`, every tie included, by exact
/// squared distance.
fn exact_nearest(sites: &[(i64, i64)], l: (i64, i64)) -> Vec<u64> {
    let d = |s: &(i64, i64)| i128::from(s.0 - l.0).pow(2) + i128::from(s.1 - l.1).pow(2);
    let best = sites.iter().map(d).min().expect("sites");
    (0..sites.len() as u64)
        .filter(|&i| d(&sites[i as usize]) == best)
        .collect()
}

/// Whether each location can be given one of its `admissible` pairs so that
/// every pair receives exactly its count: a bipartite b-matching, found by
/// augmenting paths.
fn assignable(admissible: &[Vec<(u64, u64)>], counts: &GroupCounts) -> bool {
    fn place(
        l: usize,
        admissible: &[Vec<(u64, u64)>],
        counts: &GroupCounts,
        held: &mut HashMap<(u64, u64), Vec<usize>>,
        seen: &mut HashSet<(u64, u64)>,
    ) -> bool {
        for &key in &admissible[l] {
            if !seen.insert(key) {
                continue;
            }
            let holders = held.entry(key).or_default().clone();
            if (holders.len() as u64) < counts.get(&key).copied().unwrap_or(0) {
                held.get_mut(&key).unwrap().push(l);
                return true;
            }
            for (slot, h) in holders.into_iter().enumerate() {
                if place(h, admissible, counts, held, seen) {
                    held.get_mut(&key).unwrap()[slot] = l;
                    return true;
                }
            }
        }
        false
    }
    let mut held = HashMap::new();
    (0..admissible.len()).all(|l| place(l, admissible, counts, &mut held, &mut HashSet::new()))
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
        // Joining a pointset with itself relates every point to itself (its
        // cell trivially intersects itself), and the result is symmetric:
        // cells are closed, so two cells that touch in a single vertex — as
        // three cells of a self-join generically do — join both ways round
        // (`cij_geom`, "Tolerance policy"). `tests/exact_oracle.rs` holds
        // lattice self-joins to the exact answer at every scale.
        let config = test_config();
        let mut w = Workload::build(&p, &p, &config);
        let pairs = nm_cij(&mut w, &config).sorted_pairs();
        for i in 0..p.len() as u64 {
            prop_assert!(pairs.binary_search(&(i, i)).is_ok(), "missing ({i},{i})");
        }
        for &(a, b) in &pairs {
            prop_assert!((a as usize) < p.len() && (b as usize) < p.len());
            prop_assert!(pairs.binary_search(&(b, a)).is_ok(), "({a},{b}) without ({b},{a})");
        }
    }

    #[test]
    fn grouped_counts_match_the_all_nn_oracle_on_adversarial_locations(
        p in pointset(30),
        q in pointset(30),
        picks in proptest::collection::vec(
            (0usize..8, 0usize..1_000, 0usize..1_000, 0.0..1.0f64),
            1..60,
        ),
    ) {
        let engine = QueryEngine::new(test_config());
        let domain = engine.config().domain;
        let diagrams = [brute_force_diagram(&p, &domain), brute_force_diagram(&q, &domain)];
        let mut locations = Vec::new();
        for pick in picks {
            let l = adversarial_location(pick, [&p, &q], &diagrams);
            // Every third location twice: duplicates count independently.
            locations.extend(std::iter::repeat_n(l, 1 + usize::from(pick.1 % 3 == 0)));
        }
        let inside = |l: &Point| domain.contains_point(l);
        let (clear, tied): (Vec<Point>, Vec<Point>) = locations.iter().partition(|l| {
            inside(l) && bisector_gap(&p, l) > 1e-6 && bisector_gap(&q, l) > 1e-6
        });

        // Only CIJ pairs are counted for, and every location inside the
        // domain exactly once — none outside it.
        let pairs = engine.join(&p, &q, Algorithm::NmCij).sorted_pairs();
        let all = engine.grouped_nn(&p, &q, &locations);
        for key in all.keys() {
            prop_assert!(pairs.binary_search(key).is_ok(), "{key:?} is not a CIJ pair");
        }
        let in_domain = locations.iter().filter(|l| inside(l)).count();
        prop_assert_eq!(all.values().sum::<u64>(), in_domain as u64);

        // More than 1e-6 from every bisector the groups are the oracle's;
        // and since locations are counted independently of one another, the
        // rest — the ties — is all that can make `all` differ from it.
        let clear_counts = engine.grouped_nn(&p, &q, &clear);
        prop_assert_eq!(&clear_counts, &grouped_nn_via_all_nn(&p, &q, &clear));
        let mut sum = clear_counts;
        for (key, count) in engine.grouped_nn(&p, &q, &tied) {
            *sum.entry(key).or_insert(0) += count;
        }
        prop_assert_eq!(sum, all);
    }

    /// The lattice variant of the test above: every location is an integer
    /// point — a site, the midpoint of two sites (on their bisector), a
    /// domain corner or anywhere — and every one is checked, tied or not, at
    /// a power-of-two scale: each location counts for a pair of its exact
    /// nearest `P` and `Q` sites (first claim wins among ties), only CIJ
    /// pairs count, and the counts sum to the locations.
    #[test]
    fn grouped_counts_match_the_exact_nearest_sites_on_lattice_locations(
        p in lattice_set(),
        q in lattice_set(),
        picks in proptest::collection::vec(
            (0usize..4, 0usize..1_000, 0usize..1_000, (0i64..=32, 0i64..=32)),
            1..40,
        ),
        k in -40i32..=40,
    ) {
        let sites = [&p, &q];
        let locations: Vec<(i64, i64)> = picks
            .iter()
            .map(|&(kind, i, j, at)| {
                let (a, b) = (sites[i % 2][i / 2 % sites[i % 2].len()], sites[j % 2][j / 2 % sites[j % 2].len()]);
                match kind {
                    0 => a,
                    1 => ((a.0 + b.0) / 2, (a.1 + b.1) / 2),
                    2 => (32 * (at.0 % 2), 32 * (at.1 % 2)),
                    _ => at,
                }
            })
            .collect();
        let s = 2f64.powi(k);
        let at = |v: &[(i64, i64)]| -> Vec<Point> {
            v.iter().map(|&(x, y)| Point::new(x as f64 * s, y as f64 * s)).collect()
        };
        let domain = Rect::from_coords(0.0, 0.0, 32.0 * s, 32.0 * s);
        let engine = QueryEngine::new(test_config().with_domain(domain));
        let (pp, qq) = (at(&p), at(&q));
        let pairs = engine.join(&pp, &qq, Algorithm::NmCij).sorted_pairs();
        let counts = engine.grouped_nn(&pp, &qq, &at(&locations));
        for key in counts.keys() {
            prop_assert!(pairs.binary_search(key).is_ok(), "{key:?} is not a CIJ pair");
        }
        prop_assert_eq!(counts.values().sum::<u64>(), locations.len() as u64);
        let admissible: Vec<Vec<(u64, u64)>> = locations
            .iter()
            .map(|&l| {
                let np = exact_nearest(&p, l);
                let nq = exact_nearest(&q, l);
                np.iter().flat_map(|&a| nq.iter().map(move |&b| (a, b))).collect()
            })
            .collect();
        prop_assert!(assignable(&admissible, &counts), "k = {k}: {counts:?} vs {admissible:?}");
    }
}
