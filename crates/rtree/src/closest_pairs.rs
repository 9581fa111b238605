//! k-closest-pairs join.
//!
//! Section II-A of the paper discusses the two traditional joins that CIJ is
//! contrasted with: the ε-distance join (see [`crate::join::distance_join`])
//! and the **k-closest-pairs join**, which returns the `k` pairs of objects
//! with the smallest distances. The implementation here combines the
//! incremental-distance idea of Hjaltason & Samet with the synchronous
//! traversal of Brinkhoff et al.: a min-heap of entry pairs ordered by the
//! `mindist` of their MBRs, expanded best-first until `k` object pairs have
//! been emitted.

use crate::nn::{MinDistHeap, MinHeapItem};
use crate::object::RTreeObject;
use crate::tree::RTree;
use cij_pagestore::PageId;

enum PairEntry<A, B> {
    Nodes(PageId, PageId),
    Objects(A, B),
}

/// Returns the `k` closest pairs between the objects of two R-trees, ordered
/// by ascending exact distance (as provided by `dist`).
///
/// `dist` must be consistent with the MBR lower bound (i.e. never smaller
/// than the `mindist` of the two objects' MBRs); for point objects the
/// Euclidean point distance is the natural choice.
pub fn k_closest_pairs<A, B, D>(
    tree_a: &mut RTree<A>,
    tree_b: &mut RTree<B>,
    k: usize,
    mut dist: D,
) -> Vec<(f64, A, B)>
where
    A: RTreeObject,
    B: RTreeObject,
    D: FnMut(&A, &B) -> f64,
{
    let mut out = Vec::new();
    if k == 0 || tree_a.is_empty() || tree_b.is_empty() {
        return out;
    }
    let mut heap: MinDistHeap<PairEntry<A, B>> = MinDistHeap::new();
    heap.push(MinHeapItem::new(
        0.0,
        PairEntry::Nodes(tree_a.root_page(), tree_b.root_page()),
    ));

    while let Some(MinHeapItem { dist: d, item }) = heap.pop() {
        match item {
            PairEntry::Objects(a, b) => {
                out.push((d, a, b));
                if out.len() >= k {
                    break;
                }
            }
            PairEntry::Nodes(pa, pb) => {
                let na = tree_a.read_node(pa);
                let nb = tree_b.read_node(pb);
                match (na.is_leaf(), nb.is_leaf()) {
                    (true, true) => {
                        for oa in &na.objects {
                            for ob in &nb.objects {
                                let exact = dist(oa, ob);
                                heap.push(MinHeapItem::new(
                                    exact,
                                    PairEntry::Objects(oa.clone(), ob.clone()),
                                ));
                            }
                        }
                    }
                    (false, true) => {
                        let mbr_b = nb.mbr();
                        for ca in &na.children {
                            heap.push(MinHeapItem::new(
                                ca.mbr.mindist_rect(&mbr_b),
                                PairEntry::Nodes(ca.page, pb),
                            ));
                        }
                    }
                    (true, false) => {
                        let mbr_a = na.mbr();
                        for cb in &nb.children {
                            heap.push(MinHeapItem::new(
                                mbr_a.mindist_rect(&cb.mbr),
                                PairEntry::Nodes(pa, cb.page),
                            ));
                        }
                    }
                    (false, false) => {
                        for ca in &na.children {
                            for cb in &nb.children {
                                heap.push(MinHeapItem::new(
                                    ca.mbr.mindist_rect(&cb.mbr),
                                    PairEntry::Nodes(ca.page, cb.page),
                                ));
                            }
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

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1_000.0), rng.gen_range(0.0..1_000.0)))
            .collect()
    }

    fn brute_force(p: &[Point], q: &[Point], k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = p
            .iter()
            .flat_map(|a| q.iter().map(move |b| a.dist(b)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn matches_brute_force_distances() {
        let p = random_points(200, 71);
        let q = random_points(180, 72);
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tb = RTree::bulk_load(config(), PointObject::from_points(&q));
        let got = k_closest_pairs(&mut ta, &mut tb, 25, |a, b| a.point.dist(&b.point));
        let expected = brute_force(&p, &q, 25);
        assert_eq!(got.len(), 25);
        for ((d, _, _), e) in got.iter().zip(&expected) {
            assert!((d - e).abs() < 1e-9, "distance mismatch {d} vs {e}");
        }
    }

    #[test]
    fn results_are_sorted_ascending() {
        let p = random_points(150, 73);
        let q = random_points(150, 74);
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tb = RTree::bulk_load(config(), PointObject::from_points(&q));
        let got = k_closest_pairs(&mut ta, &mut tb, 40, |a, b| a.point.dist(&b.point));
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-12);
        }
    }

    #[test]
    fn k_larger_than_pair_count_returns_everything() {
        let p = random_points(8, 75);
        let q = random_points(7, 76);
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tb = RTree::bulk_load(config(), PointObject::from_points(&q));
        let got = k_closest_pairs(&mut ta, &mut tb, 1_000, |a, b| a.point.dist(&b.point));
        assert_eq!(got.len(), 56);
    }

    #[test]
    fn zero_k_and_empty_trees() {
        let p = random_points(10, 77);
        let mut ta = RTree::bulk_load(config(), PointObject::from_points(&p));
        let mut tb: RTree<PointObject> = RTree::bulk_load(config(), Vec::new());
        assert!(k_closest_pairs(&mut ta, &mut tb, 5, |a, b| a.point.dist(&b.point)).is_empty());
        let mut tc = RTree::bulk_load(config(), PointObject::from_points(&p));
        assert!(k_closest_pairs(&mut ta, &mut tc, 0, |a, b| a.point.dist(&b.point)).is_empty());
    }

    #[test]
    fn best_first_avoids_reading_the_whole_trees_for_small_k() {
        let p = random_points(3_000, 78);
        let q = random_points(3_000, 79);
        let stats = cij_pagestore::IoStats::new();
        let load = |points: &[Point]| {
            let objects = PointObject::from_points(points);
            let heap = cij_pagestore::StorageBackend::Heap;
            RTree::bulk_load_with_stats_on(config(), stats.clone(), objects, 1.0, heap)
        };
        let (mut ta, mut tb) = (load(&p), load(&q));
        stats.reset();
        let _ = k_closest_pairs(&mut ta, &mut tb, 1, |a, b| a.point.dist(&b.point));
        let reads = stats.snapshot().logical_reads as usize;
        // Best-first expansion visits node *pairs*, so the fair comparison is
        // against the nested-loop pair count, not against a single scan of
        // each tree: it must stay far below |pages_A| x |pages_B|.
        let nested_loop = ta.num_pages() * tb.num_pages();
        assert!(
            reads < nested_loop / 20,
            "1-closest-pair read {reads} node visits vs nested-loop bound {nested_loop}"
        );
    }
}
