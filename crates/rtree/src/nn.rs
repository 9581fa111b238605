//! Best-first (incremental) nearest-neighbour search.
//!
//! This is the "distance browsing" algorithm of Hjaltason & Samet used by the
//! paper (reference \[11\]) as the traversal-order backbone of BF-VOR and of
//! the conditional filter: entries are visited in ascending `mindist` from a
//! query point by means of a min-heap.

use crate::object::{PointObject, RTreeObject};
use crate::tree::{expect_read, RTree};
use cij_geom::{Point, Rect};
use cij_pagestore::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An item in a min-heap ordered by a floating-point distance key.
///
/// `BinaryHeap` is a max-heap, so the ordering is reversed here; ties compare
/// equal. NaN keys are treated as +∞ (they sink to the end).
#[derive(Debug, Clone)]
pub struct MinHeapItem<T> {
    /// Distance key (smaller = popped earlier).
    pub dist: f64,
    /// Payload.
    pub item: T,
}

impl<T> MinHeapItem<T> {
    /// Creates a heap item.
    pub fn new(dist: f64, item: T) -> Self {
        MinHeapItem { dist, item }
    }

    fn key(&self) -> f64 {
        if self.dist.is_nan() {
            f64::INFINITY
        } else {
            self.dist
        }
    }
}

impl<T> PartialEq for MinHeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for MinHeapItem<T> {}
impl<T> PartialOrd for MinHeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinHeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller distance = greater priority.
        other
            .key()
            .partial_cmp(&self.key())
            .unwrap_or(Ordering::Equal)
    }
}

/// A convenience alias for a min-heap keyed by distance.
pub type MinDistHeap<T> = BinaryHeap<MinHeapItem<T>>;

/// One entry of a [`TraversalQueue`]: a subtree still to be read, with the
/// MBR its parent recorded for it, or a data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraversalEntry {
    /// A child entry of a non-leaf node.
    Node {
        /// The child's page.
        page: PageId,
        /// The child's MBR.
        mbr: Rect,
    },
    /// A leaf object.
    Point(PointObject),
}

/// The best-first queue of the Voronoi traversals and the conditional
/// filter: a [`MinDistHeap`] whose items are 16 bytes — the key and a tagged
/// index — with the entries themselves in two append-only side vectors, so a
/// sift moves a third of what it would move with the entry inline.
///
/// The heap is the same `BinaryHeap` under the same [`MinHeapItem`] order a
/// `MinDistHeap<TraversalEntry>` would use and the order never looks at the
/// payload, so both compare the same keys in the same sequence and pop the
/// same entries, ties and NaN keys included. A queue is meant to live in a
/// per-worker scratch: [`TraversalQueue::clear`] keeps all three
/// allocations.
#[derive(Debug, Default)]
pub struct TraversalQueue {
    /// `item` is `index << 1 | kind`: bit 0 set for `points`, clear for
    /// `nodes`.
    heap: MinDistHeap<u32>,
    nodes: Vec<(PageId, Rect)>,
    points: Vec<PointObject>,
}

impl TraversalQueue {
    /// Empties the queue, keeping its allocations. Popped entries stay in
    /// the side vectors until then, so every traversal starts with this.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.nodes.clear();
        self.points.clear();
    }

    /// Queues the subtree at `page` with key `dist`.
    pub fn push_node(&mut self, dist: f64, page: PageId, mbr: Rect) {
        let slot = (self.nodes.len() as u32) << 1;
        self.nodes.push((page, mbr));
        self.heap.push(MinHeapItem::new(dist, slot));
    }

    /// Queues the data point `point` with key `dist`.
    pub fn push_point(&mut self, dist: f64, point: PointObject) {
        let slot = (self.points.len() as u32) << 1 | 1;
        self.points.push(point);
        self.heap.push(MinHeapItem::new(dist, slot));
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop(&mut self) -> Option<TraversalEntry> {
        let slot = self.heap.pop()?.item;
        let index = (slot >> 1) as usize;
        Some(if slot & 1 == 0 {
            let (page, mbr) = self.nodes[index];
            TraversalEntry::Node { page, mbr }
        } else {
            TraversalEntry::Point(self.points[index])
        })
    }
}

enum HeapEntry<D> {
    Node(PageId),
    Object(D),
}

/// Incremental nearest-neighbour browser over an R-tree.
///
/// Produces objects in ascending distance from the query point; the caller
/// can stop at any time, which is what makes the traversal usable as a
/// building block for k-NN, BF-VOR and the conditional filter. Pulling is a
/// blocking edge ([crate docs](crate)): a storage failure panics.
pub struct NearestNeighbourIter<'a, D: RTreeObject> {
    tree: &'a mut RTree<D>,
    query: Point,
    heap: MinDistHeap<HeapEntry<D>>,
}

impl<'a, D: RTreeObject> NearestNeighbourIter<'a, D> {
    /// Starts an incremental NN search from `query`.
    pub fn new(tree: &'a mut RTree<D>, query: Point) -> Self {
        let mut heap = BinaryHeap::new();
        let root = tree.root_page();
        heap.push(MinHeapItem::new(0.0, HeapEntry::Node(root)));
        NearestNeighbourIter { tree, query, heap }
    }
}

impl<'a, D: RTreeObject> Iterator for NearestNeighbourIter<'a, D> {
    type Item = (f64, D);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(MinHeapItem { dist, item }) = self.heap.pop() {
            match item {
                HeapEntry::Object(o) => return Some((dist, o)),
                HeapEntry::Node(page) => {
                    let (query, heap) = (&self.query, &mut self.heap);
                    expect_read(self.tree.try_visit_node(page, &mut |node| {
                        if node.is_leaf() {
                            for o in &node.objects {
                                let d = o.mbr().mindist_point(query);
                                heap.push(MinHeapItem::new(d, HeapEntry::Object(o.clone())));
                            }
                        } else {
                            for c in &node.children {
                                let d = c.mbr.mindist_point(query);
                                heap.push(MinHeapItem::new(d, HeapEntry::Node(c.page)));
                            }
                        }
                    }));
                }
            }
        }
        None
    }
}

impl<D: RTreeObject> RTree<D> {
    /// Incremental nearest-neighbour iterator from `query`.
    pub fn nearest_iter(&mut self, query: Point) -> NearestNeighbourIter<'_, D> {
        NearestNeighbourIter::new(self, query)
    }

    /// The `k` nearest objects to `query`, closest first.
    pub fn k_nearest(&mut self, query: Point, k: usize) -> Vec<(f64, D)> {
        self.nearest_iter(query).take(k).collect()
    }

    /// The single nearest object to `query`, if the tree is non-empty.
    pub fn nearest(&mut self, query: Point) -> Option<(f64, D)> {
        self.nearest_iter(query).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::PointObject;
    use crate::tree::RTreeConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_config() -> RTreeConfig {
        RTreeConfig {
            page_size: 128,
            max_entries: 64,
        }
    }

    fn random_tree(n: usize, seed: u64) -> (RTree<PointObject>, Vec<Point>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let tree = RTree::bulk_load(tiny_config(), PointObject::from_points(&pts));
        (tree, pts)
    }

    fn brute_force_knn(pts: &[Point], q: &Point, k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn min_heap_item_orders_ascending() {
        let mut heap: MinDistHeap<u32> = BinaryHeap::new();
        heap.push(MinHeapItem::new(5.0, 5));
        heap.push(MinHeapItem::new(1.0, 1));
        heap.push(MinHeapItem::new(3.0, 3));
        heap.push(MinHeapItem::new(f64::NAN, 99));
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec![1, 3, 5, 99]);
    }

    proptest! {
        /// Fed the same pushes and pops, the slim queue and a heap holding
        /// the entries inline pop the same entries — keys from four values
        /// and NaN, so nearly every comparison is a tie.
        #[test]
        fn traversal_queue_pops_in_the_inline_heaps_order(
            ops in proptest::collection::vec((0usize..3, 0usize..5), 1..300),
        ) {
            let keys = [0.0, 1.0, 2.5, 7.0, f64::NAN];
            let mut slim = TraversalQueue::default();
            let mut fat: MinDistHeap<TraversalEntry> = MinDistHeap::new();
            for (serial, &(op, key)) in ops.iter().enumerate() {
                let dist = keys[key];
                let at = Point::new(serial as f64, -(serial as f64));
                match op {
                    0 => {
                        let (page, mbr) = (PageId(serial as u32), Rect::from_point(at));
                        slim.push_node(dist, page, mbr);
                        fat.push(MinHeapItem::new(dist, TraversalEntry::Node { page, mbr }));
                    }
                    1 => {
                        let point = PointObject::new(serial as u64, at);
                        slim.push_point(dist, point);
                        fat.push(MinHeapItem::new(dist, TraversalEntry::Point(point)));
                    }
                    _ => prop_assert_eq!(slim.pop(), fat.pop().map(|e| e.item)),
                }
            }
            while let Some(entry) = fat.pop() {
                prop_assert_eq!(slim.pop(), Some(entry.item));
            }
            prop_assert_eq!(slim.pop(), None);
        }
    }

    #[test]
    fn clearing_a_traversal_queue_empties_it_and_keeps_its_capacity() {
        let mut queue = TraversalQueue::default();
        for i in 0..100u32 {
            let at = Point::new(f64::from(i), 0.0);
            queue.push_node(at.x, PageId(i), Rect::from_point(at));
            queue.push_point(at.x, PointObject::new(u64::from(i), at));
        }
        // Popped entries stay in the side vectors until the clear.
        assert!(queue.pop().is_some());
        assert_eq!((queue.nodes.len(), queue.points.len()), (100, 100));
        let capacity =
            |q: &TraversalQueue| (q.heap.capacity(), q.nodes.capacity(), q.points.capacity());
        let before = capacity(&queue);
        queue.clear();
        assert!(queue.heap.is_empty() && queue.nodes.is_empty() && queue.points.is_empty());
        assert_eq!(queue.pop(), None);
        assert_eq!(capacity(&queue), before);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let (mut tree, pts) = random_tree(300, 7);
        let q = Point::new(431.0, 612.0);
        let expected = brute_force_knn(&pts, &q, 1)[0];
        let (d, _) = tree.nearest(q).unwrap();
        assert!((d - expected).abs() < 1e-9);
    }

    #[test]
    fn k_nearest_matches_brute_force_for_many_queries() {
        let (mut tree, pts) = random_tree(500, 11);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let q = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let expected = brute_force_knn(&pts, &q, 10);
            let got: Vec<f64> = tree.k_nearest(q, 10).iter().map(|(d, _)| *d).collect();
            for (e, g) in expected.iter().zip(&got) {
                assert!((e - g).abs() < 1e-9, "expected {e}, got {g}");
            }
        }
    }

    #[test]
    fn iterator_yields_nondecreasing_distances() {
        let (mut tree, _) = random_tree(200, 3);
        let q = Point::new(500.0, 500.0);
        let dists: Vec<f64> = tree.nearest_iter(q).map(|(d, _)| d).collect();
        assert_eq!(dists.len(), 200);
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn nearest_on_empty_tree_is_none() {
        let mut tree: RTree<PointObject> = RTree::bulk_load(tiny_config(), Vec::new());
        assert!(tree.nearest(Point::new(1.0, 1.0)).is_none());
        assert!(tree.k_nearest(Point::new(1.0, 1.0), 5).is_empty());
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let (mut tree, pts) = random_tree(50, 9);
        let got = tree.k_nearest(Point::new(0.0, 0.0), 500);
        assert_eq!(got.len(), pts.len());
    }

    #[test]
    fn best_first_reads_fewer_nodes_than_full_scan() {
        let (mut tree, _) = random_tree(2000, 5);
        tree.drop_buffer();
        tree.stats().reset();
        let _ = tree.k_nearest(Point::new(500.0, 500.0), 5);
        let nn_reads = tree.stats().snapshot().physical_reads;
        assert!(
            (nn_reads as usize) < tree.num_pages() / 2,
            "best-first NN should touch a small fraction of the tree ({nn_reads} vs {})",
            tree.num_pages()
        );
        // Sanity: a full scan touches every page.
        tree.drop_buffer();
        tree.stats().reset();
        let _ = tree.range_query(&Rect::from_coords(0.0, 0.0, 1000.0, 1000.0));
        assert_eq!(
            tree.stats().snapshot().physical_reads as usize,
            tree.num_pages()
        );
    }

    /// `k_nearest` as it ran before nodes were visited by reference: every
    /// popped node is read **owned** and its entries moved into the heap.
    fn owned_k_nearest(
        tree: &mut RTree<PointObject>,
        query: Point,
        k: usize,
    ) -> Vec<(f64, PointObject)> {
        let mut heap: MinDistHeap<HeapEntry<PointObject>> = BinaryHeap::new();
        heap.push(MinHeapItem::new(0.0, HeapEntry::Node(tree.root_page())));
        let mut out = Vec::new();
        while out.len() < k {
            let Some(MinHeapItem { dist, item }) = heap.pop() else {
                break;
            };
            match item {
                HeapEntry::Object(o) => out.push((dist, o)),
                HeapEntry::Node(page) => {
                    let node = tree.try_read_node(page).unwrap();
                    for o in node.objects {
                        let d = o.mbr().mindist_point(&query);
                        heap.push(MinHeapItem::new(d, HeapEntry::Object(o)));
                    }
                    for c in node.children {
                        let d = c.mbr.mindist_point(&query);
                        heap.push(MinHeapItem::new(d, HeapEntry::Node(c.page)));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn tied_distances_pop_in_the_owned_walks_order() {
        // A lattice probed at lattice points and cell centres: the 4, 8, …
        // nearest neighbours tie exactly, and so do node mindists, so the
        // answer depends on the push order into the heap. Both walks must
        // agree on it — and on every counter and the buffer's final order.
        let lattice: Vec<Point> = (0..40 * 40)
            .map(|i| Point::new((i / 40) as f64 * 25.0, (i % 40) as f64 * 25.0))
            .collect();
        let build = || {
            let mut tree = RTree::bulk_load(tiny_config(), PointObject::from_points(&lattice));
            tree.set_buffer_pages(tree.num_pages() / 8);
            tree.flush();
            tree.stats().reset();
            tree
        };
        let (mut by_ref, mut owned) = (build(), build());
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..100 {
            let half = rng.gen_range(0..2) as f64 * 12.5;
            let q = Point::new(
                rng.gen_range(0..40) as f64 * 25.0 + half,
                rng.gen_range(0..40) as f64 * 25.0 + half,
            );
            let got = by_ref.k_nearest(q, 8);
            let expected = owned_k_nearest(&mut owned, q, 8);
            assert_eq!(got.len(), 8);
            for ((gd, go), (ed, eo)) in got.iter().zip(&expected) {
                assert_eq!((gd.to_bits(), go), (ed.to_bits(), eo), "probe {q:?}");
            }
        }
        assert_eq!(by_ref.stats().snapshot(), owned.stats().snapshot());
        assert_eq!(by_ref.backend_io(), owned.backend_io());
        assert_eq!(
            by_ref.buffered_pages_mru_to_lru(),
            owned.buffered_pages_mru_to_lru()
        );
    }
}
