//! Node-read access abstraction: counted reads vs snapshot reads.
//!
//! The tree-traversal algorithms (BatchVoronoi, the conditional filter, the
//! Hilbert leaf-order walk, …) only ever *read* nodes. [`NodeReader`]
//! abstracts over **how** a read is accounted, so one traversal
//! implementation serves every execution mode:
//!
//! * [`RTree`] itself implements the trait with the classic counted read
//!   through the LRU buffer ([`RTree::try_read_node`]) — the sequential
//!   algorithms' reader.
//! * [`SnapshotReader`] wraps a shared `&RTree` and serves reads from the
//!   pinned in-memory snapshot ([`RTree::try_peek_node`]) — no buffer
//!   touch, no shared counter — so any number of workers and queries can
//!   traverse one (read-only during a join) tree concurrently. It always
//!   *counts* its reads in a local integer; built with
//!   [`SnapshotReader::traced`] it also *keeps* the pinned [`PageRef`] of
//!   every read, in access order. Either way it finishes into one
//!   [`ReadLog`], and what happens to the log is the caller's accounting
//!   decision: **replay** the trace through the real buffer in sequential
//!   order via [`RTree::replay_read`] (reproducing the single-threaded
//!   buffer behaviour and page-access counts exactly — a replayed miss
//!   admits the pinned page, so the replay reads nothing and cannot fail),
//!   or just add the count to a per-query-local counter.
//!
//! Every reader **latches** the first storage error instead of returning
//! it, serving an empty leaf in the failed node's place; see
//! [`NodeReader::take_error`].
//!
//! The [`probe`] counters let harnesses verify that an untraced run really
//! recorded and replayed zero traces.
//!
//! Relaxed-consistency contract: the [`probe`] counters are monotone event
//! counts read only as deltas around quiescent regions; they gate no
//! control flow and publish no other data, so `Ordering::Relaxed` is
//! sufficient at every site (each counter's own modification order makes
//! per-counter totals exact).

use crate::node::Node;
use crate::object::RTreeObject;
use crate::tree::RTree;
use cij_geom::{hilbert, Rect};
use cij_pagestore::{PageId, PageIoError, PageRef};

/// Process-wide probes counting the parity machinery's events — how many
/// page reads were *trace-recorded* by a [`SnapshotReader::traced`] reader
/// and how many were *replayed* through [`RTree::replay_read`].
///
/// These exist so the fast execution path can be **counter-verified**: a
/// run that claims to skip trace recording and coordinator replay proves it
/// by showing both probes unchanged across the run (see
/// `tests/fast_probes.rs`). The counters are relaxed-ordering
/// monotonic event counts with no synchronisation role; deltas taken around
/// a single-threaded region are exact, deltas around concurrent regions
/// count all threads' events.
pub mod probe {
    use std::sync::atomic::{AtomicU64, Ordering};

    static TRACE_RECORDS: AtomicU64 = AtomicU64::new(0);
    static REPLAYS: AtomicU64 = AtomicU64::new(0);

    /// Total page reads recorded into traced
    /// [`SnapshotReader`](super::SnapshotReader) logs since process start.
    pub fn trace_records() -> u64 {
        TRACE_RECORDS.load(Ordering::Relaxed)
    }

    /// Total trace entries replayed through `RTree::replay_read` since
    /// process start.
    pub fn replays() -> u64 {
        REPLAYS.load(Ordering::Relaxed)
    }

    pub(crate) fn note_trace_record() {
        TRACE_RECORDS.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_replay() {
        REPLAYS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Read access to the nodes of an R-tree, abstracting over accounting.
///
/// Traversals written against this trait run unchanged in counted mode
/// (`&mut RTree`) and in snapshot mode ([`SnapshotReader`]).
pub trait NodeReader<D: RTreeObject> {
    /// Page id of the root node.
    fn root_page(&self) -> PageId;

    /// Whether the tree holds no objects.
    fn is_empty(&self) -> bool;

    /// Reads one node.
    fn read(&mut self, page: PageId) -> Node<D>;

    /// Visits one node **by reference**, with the same accounting as
    /// [`NodeReader::read`].
    ///
    /// This is the zero-copy entry point behind the SoA
    /// [`NodeArena`](crate::arena::NodeArena): both implementations serve the
    /// callback from a decoded in-memory image (the page store's, or the
    /// snapshot's), so visiting clones nothing and allocates nothing. The
    /// default implementation falls back to an owned read.
    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        let node = self.read(page);
        f(&node);
    }

    /// Takes the first storage error latched by a failed node read.
    ///
    /// The read paths above are infallible by signature so traversal code
    /// stays straight-line; a storage failure instead **latches** the
    /// structured error here and serves an **empty leaf** in its place
    /// (visit callbacks still run, so arenas are never left holding a stale
    /// node). The rule ([crate docs](crate)): **whoever hands a reader to a
    /// latching kernel takes its error before it reports** — `Some` means
    /// every output produced since the previous poll is suspect and must be
    /// discarded wholesale. Streams poll at chunk boundaries and fail the one
    /// query; blocking callers (`fm_cij`, `pm_cij`, `compute_diagram`,
    /// [`RTree::leaf_pages_hilbert_order`]) poll per kernel call and panic.
    /// The default is the infallible case: no error source, always `None`.
    fn take_error(&mut self) -> Option<PageIoError> {
        None
    }
}

impl<D: RTreeObject> NodeReader<D> for RTree<D> {
    fn root_page(&self) -> PageId {
        RTree::root_page(self)
    }

    fn is_empty(&self) -> bool {
        RTree::is_empty(self)
    }

    fn read(&mut self, page: PageId) -> Node<D> {
        match self.try_read_node(page) {
            Ok(node) => node,
            Err(e) => {
                self.set_io_error(e);
                Node::new_leaf()
            }
        }
    }

    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        if let Err(e) = self.try_visit_node(page, f) {
            self.set_io_error(e);
            f(&Node::new_leaf());
        }
    }

    fn take_error(&mut self) -> Option<PageIoError> {
        self.take_io_error()
    }
}

/// Leaf page ids in the Hilbert-ordered depth-first traversal of
/// Section III-C: at every non-leaf node, children are visited in ascending
/// Hilbert value of their MBR centroid, so that consecutive leaves are
/// spatially close and buffer locality is maximised.
///
/// The one walk body behind [`RTree::leaf_pages_hilbert_order`] (counted)
/// and [`SnapshotReader::leaf_pages_hilbert_order`] (snapshot): it reads
/// every *non-leaf* node once through `reader` — leaf pages themselves are
/// not read here; callers read them when processing. A failed read latches
/// in the reader like any other (the failed node contributes no children),
/// so callers must poll [`NodeReader::take_error`] before trusting the
/// order.
pub fn leaf_pages_hilbert_order<D, R>(reader: &mut R, root_level: u32, domain: &Rect) -> Vec<PageId>
where
    D: RTreeObject,
    R: NodeReader<D>,
{
    let mut out = Vec::new();
    // (page, level) stack; children pushed in descending Hilbert order so
    // the smallest is popped first.
    let mut stack = vec![(reader.root_page(), root_level)];
    let mut kids: Vec<(u64, PageId)> = Vec::new();
    while let Some((page, level)) = stack.pop() {
        if level == 0 {
            out.push(page);
            continue;
        }
        reader.visit(page, &mut |node| {
            kids.clear();
            kids.extend(
                node.children
                    .iter()
                    .map(|c| (hilbert::hilbert_value(&c.mbr.center(), domain), c.page)),
            );
        });
        // Stable, like the walk it replaces: equal keys keep child order.
        kids.sort_by_key(|&(h, _)| std::cmp::Reverse(h));
        stack.extend(kids.iter().map(|&(_, child)| (child, level - 1)));
    }
    out
}

/// What a finished [`SnapshotReader`] hands back: the deferred accounting
/// of every read it served.
#[derive(Debug)]
pub struct ReadLog<D: RTreeObject> {
    /// Number of successful node reads (failed reads are not counted).
    pub reads: u64,
    /// The guard of every page read, in access order — filled only by a
    /// [`SnapshotReader::traced`] reader (then `trace.len() == reads`),
    /// empty otherwise. Each guard pins its page until the log drops, so
    /// [`RTree::replay_read`] admits the payload the read already decoded.
    pub trace: Vec<PageRef<Node<D>>>,
    /// The first storage error the reader latched and nobody
    /// [took](NodeReader::take_error), if any. A log that carries an error
    /// describes a traversal that produced garbage (failed reads serve
    /// empty leaves): discard its outputs.
    pub error: Option<PageIoError>,
}

impl<D: RTreeObject> Default for ReadLog<D> {
    fn default() -> Self {
        ReadLog {
            reads: 0,
            trace: Vec::new(),
            error: None,
        }
    }
}

/// A [`NodeReader`] over a shared tree snapshot: reads touch neither the
/// buffer nor any shared counter, are **counted** in a local integer and —
/// when the reader was built [`traced`](SnapshotReader::traced) — also
/// **kept** as a trace of pinned pages that preserves the exact access
/// order of the traversal.
///
/// Requires only `&RTree`, so any number of readers can traverse one tree
/// concurrently. The count is the number of *logical snapshot reads*: with
/// no buffer in the loop there is no hit/miss distinction to simulate;
/// replaying a kept trace through [`RTree::replay_read`] performs that
/// simulation after the fact.
#[derive(Debug)]
pub struct SnapshotReader<'a, D: RTreeObject> {
    tree: &'a RTree<D>,
    traced: bool,
    log: ReadLog<D>,
}

impl<'a, D: RTreeObject> SnapshotReader<'a, D> {
    /// Creates a counting snapshot reader over `tree` (no trace).
    pub fn new(tree: &'a RTree<D>) -> Self {
        SnapshotReader {
            tree,
            traced: false,
            log: ReadLog::default(),
        }
    }

    /// Creates a snapshot reader over `tree` that also keeps the guard of
    /// every read, in order, for a later [`RTree::replay_read`].
    pub fn traced(tree: &'a RTree<D>) -> Self {
        SnapshotReader {
            traced: true,
            ..SnapshotReader::new(tree)
        }
    }

    /// Number of node reads performed so far.
    pub fn reads(&self) -> u64 {
        self.log.reads
    }

    /// Consumes the reader, returning its [`ReadLog`].
    pub fn finish(self) -> ReadLog<D> {
        self.log
    }

    /// The tree's Hilbert leaf order walked over the snapshot (see
    /// [`leaf_pages_hilbert_order`]): the non-leaf reads land in this
    /// reader's log, a failed one in its error latch.
    pub fn leaf_pages_hilbert_order(&mut self, domain: &Rect) -> Vec<PageId> {
        leaf_pages_hilbert_order(self, self.tree.root_level(), domain)
    }

    /// The one read path: pin the page, serve it to `f`, account for it —
    /// a traced reader keeps the guard — or latch the error and serve an
    /// empty leaf. A failed read is neither counted nor traced: there is
    /// nothing to replay, and the executor discards the whole failed chunk
    /// (log included) anyway.
    fn serve<R>(&mut self, page: PageId, f: impl FnOnce(&Node<D>) -> R) -> R {
        match self.tree.try_peek_node(page) {
            Ok(guard) => {
                self.log.reads += 1;
                let served = f(&guard);
                if self.traced {
                    probe::note_trace_record();
                    self.log.trace.push(guard);
                }
                served
            }
            Err(e) => {
                self.log.error.get_or_insert(e);
                f(&Node::new_leaf())
            }
        }
    }
}

impl<D: RTreeObject> NodeReader<D> for SnapshotReader<'_, D> {
    fn root_page(&self) -> PageId {
        self.tree.root_page()
    }

    fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn read(&mut self, page: PageId) -> Node<D> {
        self.serve(page, Node::clone)
    }

    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        self.serve(page, f)
    }

    fn take_error(&mut self) -> Option<PageIoError> {
        self.log.error.take()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::object::PointObject;
    use crate::tree::RTreeConfig;
    use cij_geom::Point;
    use cij_pagestore::{FaultKind, FaultProfile};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The probes are process-wide: tests that assert on their deltas (here
    /// and in `arena`) hold this lock so no other traced read interleaves.
    pub(crate) fn probe_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sample_tree() -> RTree<PointObject> {
        let config = RTreeConfig {
            page_size: 128,
            max_entries: 64,
        };
        let point = |i: u64| Point::new(i as f64 * 7.0 % 100.0, i as f64);
        let objects = (0..200).map(|i| PointObject::new(i, point(i)));
        RTree::bulk_load(config, objects.collect())
    }

    /// The pages a log's trace pins, in access order.
    pub(crate) fn pages(log: &ReadLog<PointObject>) -> Vec<PageId> {
        log.trace.iter().map(PageRef::id).collect()
    }

    /// Root, every child of it, then the root again (a buffer hit).
    fn access_pattern(tree: &RTree<PointObject>) -> Vec<PageId> {
        let root = tree.root_page();
        let mut pattern = vec![root];
        pattern.extend(
            tree.try_peek_node(root)
                .unwrap()
                .children
                .iter()
                .map(|c| c.page),
        );
        pattern.push(root);
        pattern
    }

    #[test]
    fn untraced_reader_counts_locally_and_moves_nothing_shared() {
        let _probes = probe_guard();
        let mut tree = sample_tree();
        tree.drop_buffer();
        tree.stats().reset();
        let root = tree.root_page();
        let (traces, replays) = (probe::trace_records(), probe::replays());

        let mut reader = SnapshotReader::new(&tree);
        let node = NodeReader::read(&mut reader, root);
        let mut visited = 0usize;
        reader.visit(root, &mut |n| visited = n.children.len());
        assert_eq!(reader.reads(), 2, "both accesses counted locally");
        let log = reader.finish();
        assert_eq!((log.reads, log.trace.len(), log.error), (2, 0, None));
        // No shared counter and neither parity probe moved — what the fast
        // path's "zero trace records / zero replays" verification leans on.
        assert_eq!(tree.stats().snapshot(), Default::default());
        assert_eq!(
            (probe::trace_records(), probe::replays()),
            (traces, replays)
        );
        // Same payload as a counted read.
        assert_eq!(node, tree.try_read_node(root).unwrap());
        assert_eq!(tree.stats().snapshot().logical_reads, 1);
        assert!(visited > 0);
    }

    #[test]
    fn replaying_a_traced_log_reproduces_the_counted_run() {
        // The same access pattern through counted reads on one tree and
        // through trace + replay on an identical one: counters and buffer
        // state must agree exactly.
        let _probes = probe_guard();
        let mut live = sample_tree();
        let mut replayed = sample_tree();
        for t in [&mut live, &mut replayed] {
            t.set_buffer_pages(4);
            t.drop_buffer();
            t.stats().reset();
        }
        let pattern = access_pattern(&live);
        for &page in &pattern {
            live.try_read_node(page).unwrap();
        }

        let (traces, replays) = (probe::trace_records(), probe::replays());
        let mut traced = SnapshotReader::traced(&replayed);
        for (i, &page) in pattern.iter().enumerate() {
            // `read` and `visit` account alike.
            if i % 2 == 0 {
                let _ = NodeReader::read(&mut traced, page);
            } else {
                traced.visit(page, &mut |_| {});
            }
        }
        let log = traced.finish();
        assert_eq!(pages(&log), pattern);
        assert_eq!(log.reads, pattern.len() as u64);
        assert_eq!(replayed.stats().snapshot(), Default::default());
        for page in &log.trace {
            replayed.replay_read(page);
        }
        let n = pattern.len() as u64;
        assert_eq!(probe::trace_records(), traces + n);
        assert_eq!(probe::replays(), replays + n);
        assert_eq!(live.stats().snapshot(), replayed.stats().snapshot());
        // Buffer order, observed: a follow-up that re-reads the pattern
        // backwards through the 4-page buffer hits and evicts identically.
        for &page in pattern.iter().rev() {
            live.try_read_node(page).unwrap();
            replayed.try_read_node(page).unwrap();
            assert_eq!(live.stats().snapshot(), replayed.stats().snapshot());
        }
    }

    #[test]
    fn a_traced_read_transfers_its_page_once_and_pins_it_until_the_log_drops() {
        let _probes = probe_guard();
        let mut tree = sample_tree();
        tree.flush();
        tree.drop_buffer();
        let pattern = access_pattern(&tree);
        let before = tree.backend_io();
        let mut traced = SnapshotReader::traced(&tree);
        for &page in &pattern {
            traced.visit(page, &mut |_| {});
        }
        let log = traced.finish();
        // The root comes twice; the second read is served from its pin.
        let distinct = pattern.len() - 1;
        assert_eq!(tree.pinned_pages(), distinct);
        let moved = tree.backend_io().since(&before);
        let page_size = tree.config().page_size as u64;
        assert_eq!(moved.unmetered_bytes_read, distinct as u64 * page_size);
        assert_eq!(moved.bytes_read, 0);
        drop(log);
        assert_eq!((tree.pinned_pages(), tree.resident_pages()), (0, 0));
    }

    #[test]
    fn leaf_order_walk_is_one_body_counted_and_snapshot() {
        let mut tree = sample_tree();
        tree.drop_buffer();
        tree.stats().reset();
        let domain = Rect::from_coords(0.0, 0.0, 200.0, 200.0);
        let mut reader = SnapshotReader::traced(&tree);
        let snapshot_order = reader.leaf_pages_hilbert_order(&domain);
        let log = reader.finish();
        assert_eq!(tree.stats().snapshot().logical_reads, 0);
        let counted_order = tree.leaf_pages_hilbert_order(&domain);
        assert_eq!(snapshot_order, counted_order);
        assert!(counted_order.len() > 1);
        // Same non-leaf reads, in number and (via the trace) in order.
        assert_eq!(tree.stats().snapshot().logical_reads, log.reads);
        assert_eq!(log.trace[0].id(), tree.root_page());
        assert_eq!(log.error, None);
    }

    #[test]
    fn counted_reader_latches_corrupt_reads_and_serves_an_empty_leaf() {
        let mut tree = sample_tree();
        tree.flush();
        tree.drop_buffer();
        let root = tree.root_page();
        tree.inject_fault(FaultProfile::CorruptFrame(root.0));

        let node = NodeReader::read(&mut tree, root);
        assert!(
            node.is_leaf() && node.is_empty(),
            "failed read must serve an empty leaf, not stale or garbage data"
        );
        let err = NodeReader::take_error(&mut tree).expect("error must latch");
        assert_eq!(err.kind, FaultKind::Corrupt);
        assert_eq!(err.page, Some(root.0));
        assert!(
            NodeReader::take_error(&mut tree).is_none(),
            "take_error drains the latch"
        );
        assert_eq!(tree.quarantined_frames(), vec![root.0]);
    }

    #[test]
    fn failed_snapshot_reads_are_neither_counted_nor_traced() {
        let mut tree = sample_tree();
        tree.flush();
        tree.drop_buffer();
        let root = tree.root_page();
        tree.inject_fault(FaultProfile::CorruptFrame(root.0));

        for traced in [false, true] {
            let mut reader = if traced {
                SnapshotReader::traced(&tree)
            } else {
                SnapshotReader::new(&tree)
            };
            let node = NodeReader::read(&mut reader, root);
            assert!(node.is_leaf() && node.is_empty());
            let mut visited_len = usize::MAX;
            reader.visit(root, &mut |n| visited_len = n.len());
            assert_eq!(visited_len, 0, "visit still runs the callback (empty leaf)");
            assert_eq!(reader.reads(), 0, "failed reads are not counted");
            // The walk latches too: no children, no panic.
            let order = reader.leaf_pages_hilbert_order(&Rect::from_coords(0.0, 0.0, 1.0, 1.0));
            assert!(order.is_empty());

            let log = reader.finish();
            assert!(log.trace.is_empty(), "failed reads must not be replayed");
            let err = log.error.expect("first error latched into the log");
            assert_eq!(err.kind, FaultKind::Corrupt);
        }
        // `take_error` drains the latch before the log sees it.
        let mut reader = SnapshotReader::new(&tree);
        let _ = NodeReader::read(&mut reader, root);
        assert!(reader.take_error().is_some());
        assert!(reader.take_error().is_none());
        assert_eq!(reader.finish().error, None);
    }
}
