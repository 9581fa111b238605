//! Synchronous-traversal spatial joins (Brinkhoff, Kriegel & Seeger).
//!
//! The paper's FM-CIJ algorithm finishes by running "the intersection join
//! algorithm of \[9\]" between the two Voronoi R-trees. [`intersection_join`]
//! is that algorithm: both trees are descended simultaneously, following only
//! entry pairs whose MBRs intersect. A refinement callback decides whether a
//! candidate leaf pair is an actual result (for Voronoi cells: an exact
//! convex-polygon intersection test).
//!
//! [`distance_join`] is the ε-distance variant mentioned in Section II-A,
//! provided both for completeness and for the example programs that contrast
//! CIJ with traditional distance joins.

use crate::object::{ObjectId, RTreeObject};
use crate::tree::{expect_read, RTree};
use cij_pagestore::PageId;

/// Synchronous-traversal intersection join between two R-trees.
///
/// `refine(a, b)` is called for leaf-object pairs whose MBRs intersect and
/// must return `true` for actual results — e.g. an exact geometry test. Every
/// emitted pair is passed to `on_result`.
///
/// Returns the number of result pairs. Panics on storage failure (a
/// blocking edge, see the [crate docs](crate)).
pub fn intersection_join<A, B, R, F>(
    tree_a: &mut RTree<A>,
    tree_b: &mut RTree<B>,
    mut refine: R,
    mut on_result: F,
) -> u64
where
    A: RTreeObject,
    B: RTreeObject,
    R: FnMut(&A, &B) -> bool,
    F: FnMut(&A, &B),
{
    if tree_a.is_empty() || tree_b.is_empty() {
        return 0;
    }
    let mut count = 0u64;
    let mut stack: Vec<(PageId, PageId)> = vec![(tree_a.root_page(), tree_b.root_page())];
    while let Some((pa, pb)) = stack.pop() {
        let na = expect_read(tree_a.try_read_node(pa));
        let nb = expect_read(tree_b.try_read_node(pb));
        match (na.is_leaf(), nb.is_leaf()) {
            (true, true) => {
                for oa in &na.objects {
                    let mbr_a = oa.mbr();
                    for ob in &nb.objects {
                        if mbr_a.intersects(&ob.mbr()) && refine(oa, ob) {
                            on_result(oa, ob);
                            count += 1;
                        }
                    }
                }
            }
            (false, true) => {
                let mbr_b = nb.mbr();
                for ca in &na.children {
                    if ca.mbr.intersects(&mbr_b) {
                        stack.push((ca.page, pb));
                    }
                }
            }
            (true, false) => {
                let mbr_a = na.mbr();
                for cb in &nb.children {
                    if mbr_a.intersects(&cb.mbr) {
                        stack.push((pa, cb.page));
                    }
                }
            }
            (false, false) => {
                for ca in &na.children {
                    for cb in &nb.children {
                        if ca.mbr.intersects(&cb.mbr) {
                            stack.push((ca.page, cb.page));
                        }
                    }
                }
            }
        }
    }
    count
}

/// ε-distance join between two point trees: every pair of objects whose MBR
/// mindist is at most `eps` and whose exact distance (via `dist`) is at most
/// `eps`. Panics on storage failure, like [`intersection_join`].
pub fn distance_join<A, B, D>(
    tree_a: &mut RTree<A>,
    tree_b: &mut RTree<B>,
    eps: f64,
    mut dist: D,
) -> Vec<(ObjectId, ObjectId)>
where
    A: RTreeObject,
    B: RTreeObject,
    D: FnMut(&A, &B) -> f64,
{
    let mut out = Vec::new();
    if tree_a.is_empty() || tree_b.is_empty() {
        return out;
    }
    let mut stack: Vec<(PageId, PageId)> = vec![(tree_a.root_page(), tree_b.root_page())];
    while let Some((pa, pb)) = stack.pop() {
        let na = expect_read(tree_a.try_read_node(pa));
        let nb = expect_read(tree_b.try_read_node(pb));
        match (na.is_leaf(), nb.is_leaf()) {
            (true, true) => {
                for oa in &na.objects {
                    for ob in &nb.objects {
                        if oa.mbr().mindist_rect(&ob.mbr()) <= eps && dist(oa, ob) <= eps {
                            out.push((oa.id(), ob.id()));
                        }
                    }
                }
            }
            (false, true) => {
                let mbr_b = nb.mbr();
                for ca in &na.children {
                    if ca.mbr.mindist_rect(&mbr_b) <= eps {
                        stack.push((ca.page, pb));
                    }
                }
            }
            (true, false) => {
                let mbr_a = na.mbr();
                for cb in &nb.children {
                    if mbr_a.mindist_rect(&cb.mbr) <= eps {
                        stack.push((pa, cb.page));
                    }
                }
            }
            (false, false) => {
                for ca in &na.children {
                    for cb in &nb.children {
                        if ca.mbr.mindist_rect(&cb.mbr) <= eps {
                            stack.push((ca.page, cb.page));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::PointObject;
    use crate::tree::RTreeConfig;
    use cij_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> RTreeConfig {
        RTreeConfig {
            page_size: 256,
            max_entries: 64,
        }
    }

    fn random_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
            .collect()
    }

    fn brute_distance_join(p: &[Point], q: &[Point], eps: f64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, a) in p.iter().enumerate() {
            for (j, b) in q.iter().enumerate() {
                if a.dist(b) <= eps {
                    out.push((i as u64, j as u64));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn distance_join_matches_brute_force() {
        let p = random_points(300, 1, 1000.0);
        let q = random_points(300, 2, 1000.0);
        let mut tp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tq = RTree::bulk_load(config(), PointObject::from_points(&q));
        let eps = 40.0;
        let mut got: Vec<(u64, u64)> =
            distance_join(&mut tp, &mut tq, eps, |a, b| a.point.dist(&b.point))
                .into_iter()
                .map(|(a, b)| (a.0, b.0))
                .collect();
        got.sort_unstable();
        let expected = brute_distance_join(&p, &q, eps);
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "expected some pairs at eps={eps}");
    }

    #[test]
    fn intersection_join_of_identical_point_sets_is_identity_heavy() {
        // Joining a point set with itself under MBR intersection returns at
        // least the n identical pairs (points are degenerate rectangles).
        let p = random_points(200, 3, 1000.0);
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tb = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut pairs = Vec::new();
        let same_point = |a: &PointObject, b: &PointObject| a.point == b.point;
        intersection_join(&mut ta, &mut tb, same_point, |a, b| {
            pairs.push((a.id, b.id))
        });
        assert_eq!(pairs.len(), p.len());
        for (a, b) in pairs {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn disjoint_datasets_produce_no_intersection_pairs() {
        let p = random_points(100, 4, 100.0);
        let q: Vec<Point> = random_points(100, 5, 100.0)
            .into_iter()
            .map(|pt| Point::new(pt.x + 10_000.0, pt.y + 10_000.0))
            .collect();
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tb = RTree::bulk_load(config(), PointObject::from_points(&q));
        assert_eq!(
            intersection_join(&mut ta, &mut tb, |_, _| true, |_, _| {}),
            0
        );
        assert!(distance_join(&mut ta, &mut tb, 50.0, |a, b| a.point.dist(&b.point)).is_empty());
    }

    #[test]
    fn empty_tree_joins_are_empty() {
        let p = random_points(50, 6, 100.0);
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut empty: RTree<PointObject> = RTree::bulk_load(config(), Vec::new());
        assert_eq!(
            intersection_join(&mut ta, &mut empty, |_, _| true, |_, _| {}),
            0
        );
        assert_eq!(
            intersection_join(&mut empty, &mut ta, |_, _| true, |_, _| {}),
            0
        );
    }

    #[test]
    fn join_prunes_compared_to_nested_loops() {
        // The synchronous traversal must not read more leaf pages than a
        // block nested loop would: verify the page accesses stay well below
        // |pages_a| * |pages_b|.
        let p = random_points(1000, 7, 10_000.0);
        let q = random_points(1000, 8, 10_000.0);
        let stats = cij_pagestore::IoStats::new();
        let load = |points: &[Point]| {
            let objects = PointObject::from_points(points);
            let heap = cij_pagestore::StorageBackend::Heap;
            RTree::bulk_load_with_stats_on(config(), stats.clone(), objects, 1.0, heap)
        };
        let (mut ta, mut tb) = (load(&p), load(&q));
        stats.reset();
        let _ = distance_join(&mut ta, &mut tb, 50.0, |a, b| a.point.dist(&b.point));
        let reads = stats.snapshot().physical_reads as usize;
        assert!(
            reads < ta.num_pages() * tb.num_pages() / 4,
            "join reads {reads} pages, too close to nested-loop cost"
        );
    }
}
