//! Best-first (incremental) nearest-neighbour search.
//!
//! This is the "distance browsing" algorithm of Hjaltason & Samet used by the
//! paper (reference \[11\]) as the traversal-order backbone of BF-VOR and of
//! the conditional filter: entries are visited in ascending `mindist` from a
//! query point by means of a min-heap.
//!
//! [`TraversalQueue`] serves the Voronoi traversals and the filter and
//! breaks ties as its `BinaryHeap` happens to. The two k-NN walks share a
//! total order instead — squared key, then first met, spelled out on
//! [`NearestNeighbourIter`]: `nearest_iter` browses every object in it, and
//! [`RTree::k_nearest`] cuts it at `k`, queueing nodes only and keeping its
//! answers in a sorted `k`-slot array, and reads exactly the nodes
//! `nearest_iter(q).take(k)` reads, in the same order.

use crate::object::{PointObject, RTreeObject};
use crate::tree::{expect_read, RTree};
use cij_geom::{Point, Rect};
use cij_pagestore::PageId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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
/// filter: a `BinaryHeap` of 16-byte items — the key's integer rank and a
/// tagged index — with the entries themselves in two append-only side
/// vectors, so a sift moves a third of what it would move with the entry
/// inline and compares two integers.
///
/// Smaller keys pop first; NaN keys rank with +∞ and `-0.0` with `0.0`.
/// Equal keys are not ordered further: ties pop wherever the heap's shape
/// puts them. Two items compare equal exactly when their `f64` keys do, so
/// the heap makes the moves — and pops the entries — a heap of
/// `(key, entry)` items under float order would, ties and NaN keys
/// included. A queue is meant to live in a per-worker scratch:
/// [`TraversalQueue::clear`] keeps all three allocations.
#[derive(Debug, Default)]
pub struct TraversalQueue {
    heap: BinaryHeap<Ranked>,
    nodes: Vec<(PageId, Rect)>,
    points: Vec<PointObject>,
}

/// A [`TraversalQueue`] item. `BinaryHeap` is a max-heap, so the order is
/// reversed, and it looks at `rank` alone — every comparison the heap makes
/// is one integer comparison.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    /// [`queue_rank`] of the entry's key.
    rank: u64,
    /// `index << 1 | kind`: bit 0 set for `points`, clear for `nodes`.
    slot: u32,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        other.rank < self.rank
    }
    fn le(&self, other: &Self) -> bool {
        other.rank <= self.rank
    }
    fn gt(&self, other: &Self) -> bool {
        other.rank > self.rank
    }
    fn ge(&self, other: &Self) -> bool {
        other.rank >= self.rank
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank.cmp(&self.rank)
    }
}

/// The rank a [`TraversalQueue`] sifts by: [`rank`], except that a NaN key
/// ranks with +∞ instead of after it.
fn queue_rank(key: f64) -> u64 {
    rank(key).min(rank(f64::INFINITY))
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
        let rank = queue_rank(dist);
        self.heap.push(Ranked { rank, slot });
    }

    /// Queues the data point `point` with key `dist`.
    pub fn push_point(&mut self, dist: f64, point: PointObject) {
        let slot = (self.points.len() as u32) << 1 | 1;
        self.points.push(point);
        let rank = queue_rank(dist);
        self.heap.push(Ranked { rank, slot });
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop(&mut self) -> Option<TraversalEntry> {
        let slot = self.heap.pop()?.slot;
        let index = (slot >> 1) as usize;
        Some(if slot & 1 == 0 {
            let (page, mbr) = self.nodes[index];
            TraversalEntry::Node { page, mbr }
        } else {
            TraversalEntry::Point(self.points[index])
        })
    }
}

/// The rank of a best-first key: an integer that ascends with the key, so
/// that integer order *is* the walk's total order — smaller key first, `-0.0`
/// with `0.0`, NaN keys last.
fn rank(key: f64) -> u64 {
    if key.is_nan() {
        return u64::MAX;
    }
    let bits = (key + 0.0).to_bits(); // -0.0 + 0.0 is 0.0
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The key `rank` was taken from, bit for bit (`0.0` for either zero).
fn ranked_key(rank: u64) -> f64 {
    f64::from_bits(if rank >> 63 == 1 {
        rank & !(1 << 63)
    } else {
        !rank
    })
}

enum HeapEntry<D> {
    Node(PageId),
    Object(D),
}

/// The walk's queue: 16-byte items `rank << 32 | serial`, smallest first,
/// the entries themselves in a side vector indexed by serial.
struct Frontier<D> {
    queue: BinaryHeap<Reverse<u128>>,
    /// Every entry ever queued, in the order met; `None` once popped.
    entries: Vec<Option<HeapEntry<D>>>,
}

impl<D> Frontier<D> {
    /// Queues `entry` under `key`.
    fn push(&mut self, key: f64, entry: HeapEntry<D>) {
        let serial = u32::try_from(self.entries.len()).expect("fewer than 2^32 queued entries");
        self.entries.push(Some(entry));
        self.queue
            .push(Reverse(u128::from(rank(key)) << 32 | u128::from(serial)));
    }

    /// The entry first in the walk's order, with its key.
    fn pop(&mut self) -> Option<(f64, HeapEntry<D>)> {
        let Reverse(item) = self.queue.pop()?;
        let entry = self.entries[item as u32 as usize].take();
        Some((
            ranked_key((item >> 32) as u64),
            entry.expect("a queued entry pops once"),
        ))
    }
}

/// Incremental nearest-neighbour browser over an R-tree.
///
/// Produces objects in ascending distance from the query point; the caller
/// can stop at any time, which is what TP-VOR builds on. Pulling is a
/// blocking edge ([crate docs](crate)): a storage failure panics.
///
/// # Order
///
/// The queue holds 16-byte items `(key, serial)` packed into one integer:
/// the key is the **squared** `mindist` of the entry (the square root is
/// taken only on an object as it is yielded, so a reported distance is bit
/// for bit [`Rect::mindist_point`]), the serial the entry's index in a side
/// vector in the order the walk met it — a node's entries in storage order.
/// Items pop under a total order: smaller key first, then earlier met, NaN
/// keys last. Among entries at exactly equal distance the first met
/// therefore pops first, whatever the shape of the heap — which is what
/// lets [`RTree::k_nearest`] queue far fewer entries and still read what
/// this walk reads.
pub struct NearestNeighbourIter<'a, D: RTreeObject> {
    tree: &'a mut RTree<D>,
    query: Point,
    frontier: Frontier<D>,
}

impl<'a, D: RTreeObject> NearestNeighbourIter<'a, D> {
    /// Starts an incremental NN search from `query`.
    pub fn new(tree: &'a mut RTree<D>, query: Point) -> Self {
        let room = descent_room(tree);
        let mut frontier = Frontier {
            queue: BinaryHeap::with_capacity(room),
            entries: Vec::with_capacity(room),
        };
        frontier.push(0.0, HeapEntry::Node(tree.root_page()));
        NearestNeighbourIter {
            tree,
            query,
            frontier,
        }
    }
}

impl<'a, D: RTreeObject> Iterator for NearestNeighbourIter<'a, D> {
    type Item = (f64, D);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((key, entry)) = self.frontier.pop() {
            match entry {
                HeapEntry::Object(o) => return Some((key.sqrt(), o)),
                HeapEntry::Node(page) => {
                    let (query, frontier) = (&self.query, &mut self.frontier);
                    expect_read(self.tree.try_visit_node(page, &mut |node| {
                        for o in &node.objects {
                            let key = o.mbr().mindist_point_sq(query);
                            frontier.push(key, HeapEntry::Object(o.clone()));
                        }
                        for c in &node.children {
                            let key = c.mbr.mindist_point_sq(query);
                            frontier.push(key, HeapEntry::Node(c.page));
                        }
                    }));
                }
            }
        }
        None
    }
}

/// What a best-first walk's descent queues: about a node's worth of entries
/// per level. One reservation of that size spares the doubling steps.
fn descent_room<D: RTreeObject>(tree: &RTree<D>) -> usize {
    (tree.root_level() as usize + 2) * tree.config().max_children()
}

/// [`RTree::k_nearest`]'s state: its answers and how many entries it has met.
///
/// Nodes and answers share one key, the walk's total order as an integer:
/// `rank << 64 | serial << 32 | page`, where `serial` counts the entries met
/// before this one — a node's objects, then its children, in storage order —
/// and an answer's page bits are zero. Serials are unique, so the page bits
/// never decide an order; they only carry the page of a queued node.
struct KNearest<D> {
    query: Point,
    k: usize,
    /// The `k` smallest objects met so far, smallest key first.
    answers: Vec<(u128, D)>,
    met: u32,
}

impl<D: RTreeObject> KNearest<D> {
    /// The key of the next entry met, at squared distance `key`.
    fn meet(&mut self, key: f64, page: PageId) -> u128 {
        let serial = self.met;
        self.met = serial.checked_add(1).expect("fewer than 2^32 entries met");
        u128::from(rank(key)) << 64 | u128::from(serial) << 32 | u128::from(page.0)
    }

    /// Whether an entry of key `key` orders before the current `k`-th
    /// answer — trivially while there are fewer than `k` answers.
    fn admits(&self, key: u128) -> bool {
        match self.answers.get(self.k - 1) {
            Some((kth, _)) => key < *kth,
            None => true,
        }
    }

    /// Reads the node `item` names, offering its objects to the answers and
    /// handing `push` each child that orders before the `k`-th answer.
    fn visit(&mut self, tree: &mut RTree<D>, item: u128, mut push: impl FnMut(Reverse<u128>)) {
        let page = PageId(item as u32);
        expect_read(tree.try_visit_node(page, &mut |node| {
            for o in &node.objects {
                let key = self.meet(o.mbr().mindist_point_sq(&self.query), PageId(0));
                if self.admits(key) {
                    // A full array gives up its `k`-th answer.
                    self.answers.truncate(self.k - 1);
                    let at = self.answers.partition_point(|(a, _)| *a < key);
                    self.answers.insert(at, (key, o.clone()));
                }
            }
            for c in &node.children {
                let key = self.meet(c.mbr.mindist_point_sq(&self.query), c.page);
                if self.admits(key) {
                    push(Reverse(key));
                }
            }
        }));
    }
}

impl<D: RTreeObject> RTree<D> {
    /// Incremental nearest-neighbour iterator from `query`; for the order
    /// among equal distances see [`NearestNeighbourIter`].
    pub fn nearest_iter(&mut self, query: Point) -> NearestNeighbourIter<'_, D> {
        NearestNeighbourIter::new(self, query)
    }

    /// The `k` nearest objects to `query`, closest first: exactly
    /// `nearest_iter(query).take(k)` — results, page reads in their order,
    /// counters and buffer order — from a walk that queues **nodes only**.
    ///
    /// Objects go to a sorted `k`-slot answer array and never to a queue.
    /// Until the first leaf is read there is no bound: the children met on
    /// the way wait in one unsorted vector (a node's worth per level), and
    /// the smallest is taken by a scan. At the first leaf that vector is
    /// filtered by the `k`-th answer — if the leaf held fewer than `k`
    /// objects nothing is — and heapified in place. From then on a child is
    /// queued only if it orders before the current `k`-th answer, and the
    /// walk stops when the queue's first node orders after it.
    ///
    /// Why the reads are the browse's: `mindist_point_sq` is monotone under
    /// rounding, so an object's or a child's key is never below its node's,
    /// and it is met after its node, so its serial is higher — every entry
    /// orders after the node it came from, and nodes pop in the walk's
    /// order. A node the walk pops orders before every object met later, so
    /// before the final `k`-th answer; a node that orders before the final
    /// `k`-th answer orders before every `k`-th answer on the way (they only
    /// shrink), so it is queued and pops before the walk stops. A node is
    /// therefore read iff it orders before the final `k`-th answer — just
    /// as under the browse, which pops that answer after every such node
    /// and before any other.
    ///
    /// `k = 0` reads no page; `k` beyond the tree's size returns everything
    /// and reserves nothing sized by `k`. An answer's insertion shifts the
    /// larger ones, so the array suits the small `k` of a probe.
    pub fn k_nearest(&mut self, query: Point, k: usize) -> Vec<(f64, D)> {
        if k == 0 {
            return Vec::new();
        }
        let mut walk = KNearest {
            query,
            k,
            answers: Vec::with_capacity(k.min(self.len())),
            met: 0,
        };
        let mut waiting = Vec::with_capacity(descent_room(self));
        waiting.push(Reverse(walk.meet(0.0, self.root_page())));
        // The descent: items are `Reverse`d for the heap, so the smallest
        // key is the largest item.
        while walk.answers.is_empty() {
            let first = waiting.iter().enumerate().max_by_key(|&(_, item)| *item);
            let Some((at, _)) = first else { break };
            let Reverse(item) = waiting.swap_remove(at);
            walk.visit(self, item, |child| waiting.push(child));
        }
        waiting.retain(|&Reverse(item)| walk.admits(item));
        let mut queue = BinaryHeap::from(waiting);
        while let Some(Reverse(item)) = queue.pop() {
            if !walk.admits(item) {
                break;
            }
            walk.visit(self, item, |child| queue.push(child));
        }
        let answers = walk.answers.into_iter();
        answers
            .map(|(key, o)| (ranked_key((key >> 64) as u64).sqrt(), o))
            .collect()
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

    /// The order [`TraversalQueue`] must keep: a min-heap item under the
    /// float order it sifted by before its keys were ranked.
    ///
    /// `BinaryHeap` is a max-heap, so the ordering is reversed here; ties
    /// compare equal. NaN keys are treated as +∞ (they sink to the end).
    #[derive(Debug, Clone)]
    struct MinHeapItem<T> {
        dist: f64,
        item: T,
    }

    impl<T> MinHeapItem<T> {
        fn new(dist: f64, item: T) -> Self {
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

    type MinDistHeap<T> = BinaryHeap<MinHeapItem<T>>;

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
        /// the entries inline pop the same entries — keys from six values,
        /// a negative one among them, and the two each equals (`-0.0` and
        /// `0.0`, NaN and +∞), so nearly every comparison is a tie.
        #[test]
        fn traversal_queue_pops_in_the_inline_heaps_order(
            ops in proptest::collection::vec((0usize..3, 0usize..8), 1..300),
        ) {
            let keys = [0.0, 1.0, 2.5, 7.0, f64::NAN, -0.0, f64::INFINITY, -3.0];
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
        let (d, _) = tree.nearest_iter(q).next().unwrap();
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
        assert!(tree.nearest_iter(Point::new(1.0, 1.0)).next().is_none());
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

    /// The reference walk: `nearest_iter` as it ran before nodes were
    /// visited by reference — every popped node read **owned**, its entries
    /// moved into the queue — under the walk's order (squared key, then
    /// first met) found by a linear scan, and with **no** bound.
    fn owned_k_nearest(
        tree: &mut RTree<PointObject>,
        query: Point,
        k: usize,
    ) -> Vec<(f64, PointObject)> {
        let mut queue = vec![(0.0f64, 0usize, HeapEntry::Node(tree.root_page()))];
        let mut met = 1;
        let mut out = Vec::new();
        while out.len() < k && !queue.is_empty() {
            let first = (0..queue.len())
                .min_by(|&a, &b| {
                    let (a, b) = (&queue[a], &queue[b]);
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
                })
                .unwrap();
            match queue.swap_remove(first) {
                (key, _, HeapEntry::Object(o)) => out.push((key.sqrt(), o)),
                (_, _, HeapEntry::Node(page)) => {
                    let node = tree.try_read_node(page).unwrap();
                    let objects = node.objects.into_iter().map(|o| {
                        let key = o.mbr().mindist_point_sq(&query);
                        (key, HeapEntry::Object(o))
                    });
                    let children = node.children.into_iter().map(|c| {
                        let key = c.mbr.mindist_point_sq(&query);
                        (key, HeapEntry::Node(c.page))
                    });
                    for (key, entry) in objects.chain(children) {
                        queue.push((key, met, entry));
                        met += 1;
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
        // answer depends on the order among equal keys. The bounded walk,
        // the unbounded one cut at `k` and the owned reference must agree on
        // it — and on every counter and the buffer's final order.
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
        let (mut by_ref, mut owned, mut browsed) = (build(), build(), build());
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
            let cut: Vec<_> = browsed.nearest_iter(q).take(8).collect();
            assert_eq!(got, cut, "probe {q:?}");
        }
        for other in [&owned, &browsed] {
            assert_eq!(by_ref.stats().snapshot(), other.stats().snapshot());
            assert_eq!(by_ref.backend_io(), other.backend_io());
            assert_eq!(
                by_ref.buffered_pages_mru_to_lru(),
                other.buffered_pages_mru_to_lru()
            );
        }
    }

    #[test]
    fn k_nearest_is_the_cut_browse_on_uniform_data_too() {
        let (mut bounded, _) = random_tree(3_000, 41);
        let (mut browsed, _) = random_tree(3_000, 41);
        for tree in [&mut bounded, &mut browsed] {
            tree.set_buffer_pages(tree.num_pages() / 8);
            tree.flush();
            tree.stats().reset();
        }
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..100 {
            let q = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let k = rng.gen_range(1..20);
            let cut: Vec<_> = browsed.nearest_iter(q).take(k).collect();
            assert_eq!(bounded.k_nearest(q, k), cut, "probe {q:?}, k {k}");
        }
        assert_eq!(bounded.stats().snapshot(), browsed.stats().snapshot());
        assert_eq!(
            bounded.buffered_pages_mru_to_lru(),
            browsed.buffered_pages_mru_to_lru()
        );
    }

    #[test]
    fn k_nearest_edge_cases() {
        let (mut tree, pts) = random_tree(300, 13);
        tree.drop_buffer();
        tree.stats().reset();
        let q = Point::new(250.0, 750.0);

        // k = 0 answers without reading a page.
        assert!(tree.k_nearest(q, 0).is_empty());
        assert_eq!(tree.stats().snapshot().logical_reads, 0);

        // k beyond the data returns all of it, nearest first — and reserves
        // nothing sized by k (usize::MAX slots would be a capacity panic).
        for k in [pts.len(), pts.len() + 1, usize::MAX] {
            let all = tree.k_nearest(q, k);
            assert_eq!(all.len(), pts.len(), "k = {k}");
            assert!(all.windows(2).all(|w| w[0].0 <= w[1].0), "k = {k}");
            let expected = brute_force_knn(&pts, &q, pts.len());
            assert!(all.iter().zip(&expected).all(|((d, _), e)| d == e));
        }

        // A NaN coordinate is no distance at all on its axis (`max` drops
        // it), so the probe still gets its k objects.
        for q in [Point::new(f64::NAN, 500.0), Point::new(f64::NAN, f64::NAN)] {
            let got = tree.k_nearest(q, 8);
            assert_eq!(got.len(), 8, "probe {q:?}");
            let cut: Vec<_> = tree.nearest_iter(q).take(8).collect();
            assert_eq!(got.len(), cut.len());
            for ((gd, go), (cd, co)) in got.iter().zip(&cut) {
                assert_eq!((gd.to_bits(), go), (cd.to_bits(), co), "probe {q:?}");
            }
        }
    }

    proptest! {
        /// `rank` is the order the walk documents: ascending, the zeros
        /// together, NaN last — and `ranked_key` undoes it bit for bit.
        #[test]
        fn rank_orders_keys_totally(a in key_strategy(), b in key_strategy()) {
            let expected = match (a.is_nan(), b.is_nan()) {
                (false, false) => a.partial_cmp(&b).unwrap(),
                (a_nan, b_nan) => a_nan.cmp(&b_nan),
            };
            prop_assert_eq!(rank(a).cmp(&rank(b)), expected, "{} vs {}", a, b);
            let back = ranked_key(rank(a));
            if a.is_nan() {
                prop_assert!(back.is_nan());
            } else {
                prop_assert_eq!(back.to_bits(), (a + 0.0).to_bits());
            }
        }
    }

    /// Squared distances, negatives, and the values an order can trip on.
    fn key_strategy() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        (0usize..3 * SPECIAL.len(), -1e6f64..1e12)
            .prop_map(|(pick, drawn)| SPECIAL.get(pick).copied().unwrap_or(drawn))
    }
}
