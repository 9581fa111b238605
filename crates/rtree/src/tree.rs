//! The disk-based R-tree.

use crate::codec::NODE_HEADER_BYTES;
use crate::node::{ChildEntry, Node};
use crate::object::RTreeObject;
use cij_geom::Rect;
use cij_pagestore::{
    BackendIo, FaultProfile, FaultStats, IoStats, PageId, PageIoError, PageRef, PageStore,
    PageStoreConfig, StorageBackend, FRAME_TRAILER_BYTES,
};

/// Configuration of an R-tree.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Disk page size in bytes (1 KB in the paper).
    pub page_size: usize,
    /// Hard cap on the number of entries per node, applied in addition to
    /// the byte budget (guards against pathological tiny objects).
    pub max_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            page_size: cij_pagestore::DEFAULT_PAGE_SIZE,
            max_entries: 256,
        }
    }
}

impl RTreeConfig {
    /// Byte budget for a node's entries: the page size minus the serialized
    /// node header and the page store's integrity trailer
    /// ([`FRAME_TRAILER_BYTES`] — payload length + checksum, sealed on every
    /// write-back). Packing against this budget (instead of the raw page
    /// size) guarantees every node the tree produces encodes into one page
    /// frame — fanout genuinely respects the paper's 1 KB pages.
    pub fn node_byte_budget(&self) -> usize {
        self.page_size
            .saturating_sub(NODE_HEADER_BYTES + FRAME_TRAILER_BYTES)
            .max(ChildEntry::BYTES)
    }

    /// Maximum number of child entries a non-leaf node can hold.
    pub fn max_children(&self) -> usize {
        (self.node_byte_budget() / ChildEntry::BYTES).clamp(2, self.max_entries)
    }
}

/// A disk-based R-tree over objects of type `D`.
///
/// Every node occupies one page of the underlying [`PageStore`]; every node
/// access during queries, joins and Voronoi-cell computations goes through
/// the store's LRU buffer and is recorded in the shared [`IoStats`] — the
/// cost model of the paper.
#[derive(Debug)]
pub struct RTree<D: RTreeObject> {
    store: PageStore<Node<D>>,
    root: PageId,
    root_level: u32,
    len: usize,
    config: RTreeConfig,
    /// First storage error latched by the infallible
    /// [`NodeReader`](crate::reader::NodeReader) read path; taken via
    /// [`RTree::take_io_error`].
    io_error: Option<PageIoError>,
}

impl<D: RTreeObject> RTree<D> {
    /// Creates an empty tree whose page store shares the given statistics
    /// counters (so that joint operations over several trees report a single
    /// page-access figure, as in the paper) and whose node frames live on
    /// the given [`StorageBackend`] — what every bulk loader starts from.
    pub fn with_stats_on(config: RTreeConfig, stats: IoStats, storage: StorageBackend) -> Self {
        let mut store = PageStore::with_stats(
            PageStoreConfig::default()
                .with_page_size(config.page_size)
                .with_backend(storage),
            stats,
        );
        let root = store.allocate(Node::new_leaf());
        RTree {
            store,
            root,
            root_level: 0,
            len: 0,
            config,
            io_error: None,
        }
    }

    /// The tree configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Handle to the shared I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Which storage backend holds this tree's node frames.
    pub fn storage_backend(&self) -> StorageBackend {
        self.store.backend_kind()
    }

    /// Bytes actually transferred to/from the storage backend — the
    /// physical counterpart of the counted page accesses.
    pub fn backend_io(&self) -> BackendIo {
        self.store.backend_io()
    }

    /// Number of data objects in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page id of the root node.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Level of the root node (0 when the root is a leaf); the tree height
    /// is `root_level() + 1`.
    pub fn root_level(&self) -> u32 {
        self.root_level
    }

    /// Number of pages (nodes) the tree occupies on the simulated disk.
    ///
    /// This is the "LB" traversal lower bound of the paper's experiments:
    /// the I/O cost of reading the whole tree exactly once.
    pub fn num_pages(&self) -> usize {
        self.store.num_pages()
    }

    /// Reads a node, going through the buffer and counting the access —
    /// the **owned** read: it clones a buffered node. For callers that keep
    /// the node; queries visit by reference ([`RTree::try_visit_node`]).
    /// Transient faults are retried by the store; exhausted transients,
    /// persistent failures and checksum mismatches come back as a
    /// structured [`PageIoError`]. A page id that does not exist panics.
    pub fn try_read_node(&mut self, page: PageId) -> Result<Node<D>, PageIoError> {
        self.store.try_read(page)
    }

    /// Visits a node by reference with full read accounting, without cloning
    /// the payload: thin wrapper over [`PageStore::try_read_with`]. Buffer
    /// state, hit/miss counters and backend byte transfers are identical to
    /// [`RTree::try_read_node`], and so is the error contract; this is the
    /// decode path of the SoA [`NodeArena`](crate::arena::NodeArena). On
    /// `Err` the callback was never invoked.
    pub fn try_visit_node(
        &mut self,
        page: PageId,
        f: &mut dyn FnMut(&Node<D>),
    ) -> Result<(), PageIoError> {
        self.store.try_read_with(page, |node| f(node))
    }

    /// Reads a node without counting the access (oracles/tests only, and
    /// the snapshot reads of [`SnapshotReader`](crate::reader::SnapshotReader)
    /// whose accounting is deferred to [`RTree::replay_read`]).
    ///
    /// Returns a [`PageRef`] guard that **pins** the page in the store for
    /// its lifetime: its decoded payload stays resident whatever the LRU
    /// buffer evicts, and a non-resident page is decoded through the
    /// backend as unmetered traffic — no counter, recency or membership the
    /// metered runs observe changes.
    pub fn try_peek_node(&self, page: PageId) -> Result<PageRef<Node<D>>, PageIoError> {
        self.store.try_peek(page)
    }

    /// Replays one recorded page access: thin wrapper over
    /// [`PageStore::note_read`], which carries the authoritative description
    /// of the accounting (buffer touch and hit/miss recording; a miss admits
    /// the payload `page` pins, with no backend transfer).
    ///
    /// Replays the traces kept by a traced
    /// [`SnapshotReader`](crate::reader::SnapshotReader) in sequential
    /// order, so the chunked execution path reports the same page accesses
    /// and leaves the same buffer state as a single-threaded run. The
    /// replay reads nothing, so it cannot fail; a guard of another tree or
    /// of a freed page is trace drift and panics.
    pub fn replay_read(&mut self, page: &PageRef<Node<D>>) {
        crate::reader::probe::note_replay();
        self.store.note_read(page);
    }

    /// Takes the storage error latched by the
    /// [`NodeReader`](crate::reader::NodeReader) impl's infallible read
    /// path, if a node read failed since the last call. `Some` means every
    /// traversal output produced since then is suspect and must be
    /// discarded: whoever hands this tree to a latching kernel calls this
    /// before it reports.
    pub fn take_io_error(&mut self) -> Option<PageIoError> {
        self.io_error.take()
    }

    pub(crate) fn set_io_error(&mut self, error: PageIoError) {
        if self.io_error.is_none() {
            self.io_error = Some(error);
        }
    }

    /// Per-class fault, retry and quarantine counters of the underlying
    /// page store (alongside [`RTree::backend_io`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.store.fault_stats()
    }

    /// Wraps the tree's current storage in a fault-injecting backend with
    /// the given deterministic schedule, its attempts counted from this
    /// call — thin wrapper over [`PageStore::inject_fault`], the one way
    /// fault tests arm a built tree.
    pub fn inject_fault(&mut self, profile: FaultProfile) {
        self.store.inject_fault(profile);
    }

    /// Frame indices quarantined after checksum failures, ascending.
    pub fn quarantined_frames(&self) -> Vec<u32> {
        self.store.quarantined_frames()
    }

    /// Sets the LRU buffer capacity in pages.
    pub fn set_buffer_pages(&mut self, pages: usize) {
        self.store.set_buffer_pages(pages);
    }

    /// Sets the LRU buffer capacity as a fraction of this tree's size.
    pub fn set_buffer_fraction(&mut self, fraction: f64) {
        self.store.set_buffer_fraction(fraction);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_pages(&self) -> usize {
        self.store.buffer_pages()
    }

    /// Pages currently in the LRU buffer, most recently used first (thin
    /// wrapper over [`PageStore::buffered_pages_mru_to_lru`]).
    pub fn buffered_pages_mru_to_lru(&self) -> Vec<PageId> {
        self.store.buffered_pages_mru_to_lru()
    }

    /// Pages currently holding a decoded payload (buffer members + pinned).
    pub fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }

    /// High-water mark of [`RTree::resident_pages`] — bounded by
    /// `buffer capacity + peak pinned`, not by the tree size (no mirror).
    pub fn peak_resident_pages(&self) -> usize {
        self.store.peak_resident_pages()
    }

    /// Pages currently pinned by [`RTree::try_peek_node`] guards.
    pub fn pinned_pages(&self) -> usize {
        self.store.pinned_pages()
    }

    /// High-water mark of [`RTree::pinned_pages`].
    pub fn peak_pinned_pages(&self) -> usize {
        self.store.peak_pinned_pages()
    }

    /// Restarts the residency high-water marks from the current state, so a
    /// measurement phase tracks its own peaks rather than construction's.
    pub fn reset_residency_peaks(&mut self) {
        self.store.reset_residency_peaks()
    }

    /// Empties the buffer without accounting (cold-start measurements).
    pub fn drop_buffer(&mut self) {
        self.store.drop_buffer();
    }

    /// Writes back dirty pages and empties the buffer (accounted).
    pub fn flush(&mut self) {
        self.store.flush();
    }

    pub(crate) fn store_mut(&mut self) -> &mut PageStore<Node<D>> {
        &mut self.store
    }

    pub(crate) fn set_root(&mut self, root: PageId, root_level: u32, len: usize) {
        self.root = root;
        self.root_level = root_level;
        self.len = len;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Returns every object whose MBR intersects the query rectangle.
    ///
    /// Nodes are visited by reference ([`PageStore::try_read_with`]): the
    /// buffer touch and hit/miss accounting of [`RTree::try_read_node`]
    /// without its clone of the node — only matching objects are copied out.
    /// Panics on storage failure (a blocking edge, see the [crate docs](crate)).
    pub fn range_query(&mut self, query: &Rect) -> Vec<D> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            expect_read(self.store.try_read_with(page, |node| {
                if node.is_leaf() {
                    for o in &node.objects {
                        if o.mbr().intersects(query) {
                            out.push(o.clone());
                        }
                    }
                } else {
                    for c in &node.children {
                        if c.mbr.intersects(query) {
                            stack.push(c.page);
                        }
                    }
                }
            }));
        }
        out
    }

    /// Returns every object in the tree (full scan in depth-first order).
    pub fn scan_all(&mut self) -> Vec<D> {
        self.range_query(&Rect::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ))
    }

    /// MBR of the whole dataset (reads only the root node).
    pub fn bounding_rect(&mut self) -> Rect {
        expect_read(self.store.try_read_with(self.root, |node| node.mbr()))
    }

    /// Leaf page ids in the Hilbert-ordered depth-first traversal of
    /// Section III-C, walked through **counted** reads (every non-leaf node
    /// once; leaf pages are read by the caller when it processes them) —
    /// the reader-generic
    /// [`leaf_pages_hilbert_order`](crate::reader::leaf_pages_hilbert_order)
    /// with this tree as its own reader.
    ///
    /// # Panics
    ///
    /// Panics on storage failure: this is the edge for build, oracle and
    /// blocking callers. Fail-stop callers run the generic walk themselves
    /// and poll the reader's error latch.
    pub fn leaf_pages_hilbert_order(&mut self, domain: &Rect) -> Vec<PageId> {
        let root_level = self.root_level;
        let leaves = crate::reader::leaf_pages_hilbert_order(self, root_level, domain);
        if let Some(e) = self.take_io_error() {
            panic!("{e}");
        }
        leaves
    }

    /// Verifies structural invariants of the tree (every child MBR contains
    /// its subtree, levels decrease by one, object count matches `len`).
    /// Intended for tests; does not count I/O, and panics on storage failure.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        self.check_node(self.root, self.root_level, None, &mut count)?;
        if count != self.len {
            return Err(format!("object count mismatch: {} != {}", count, self.len));
        }
        Ok(())
    }

    fn check_node(
        &self,
        page: PageId,
        expected_level: u32,
        expected_mbr: Option<Rect>,
        count: &mut usize,
    ) -> Result<(), String> {
        let node = expect_read(self.store.try_peek(page));
        if node.level != expected_level {
            return Err(format!(
                "node {page:?} has level {} but expected {expected_level}",
                node.level
            ));
        }
        let mbr = node.mbr();
        if let Some(parent_mbr) = expected_mbr {
            if !node.is_empty() && !parent_mbr.contains_rect(&mbr) {
                return Err(format!(
                    "child MBR {mbr} not contained in parent entry {parent_mbr}"
                ));
            }
        }
        if node.is_leaf() {
            *count += node.objects.len();
            if !node.children.is_empty() {
                return Err("leaf with children".into());
            }
        } else {
            if node.children.is_empty() {
                return Err("non-leaf without children".into());
            }
            if !node.objects.is_empty() {
                return Err("non-leaf with objects".into());
            }
            for c in &node.children {
                self.check_node(c.page, expected_level - 1, Some(c.mbr), count)?;
            }
        }
        Ok(())
    }
}

/// The blocking edge of the standalone tree operators: their return types
/// have no error channel, so a storage failure of the read just made panics.
pub(crate) fn expect_read<T>(read: Result<T, PageIoError>) -> T {
    read.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{PointObject, RTreeObject};
    use cij_geom::Point;

    fn small_config() -> RTreeConfig {
        // Tiny pages force deep trees even for small datasets.
        RTreeConfig {
            page_size: 128,
            max_entries: 64,
        }
    }

    fn grid_points(nx: usize, ny: usize, step: f64) -> Vec<PointObject> {
        let mut out = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                out.push(PointObject::new(
                    (i * ny + j) as u64,
                    Point::new(i as f64 * step, j as f64 * step),
                ));
            }
        }
        out
    }

    #[test]
    fn range_query_small() {
        let mut tree = RTree::bulk_load(small_config(), grid_points(10, 10, 1.0));
        assert_eq!(tree.len(), 100);
        tree.check_invariants().unwrap();
        let hits = tree.range_query(&Rect::from_coords(2.5, 2.5, 5.5, 4.5));
        // x in {3,4,5}, y in {3,4}: 6 points.
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn range_query_boundary_inclusive() {
        let mut tree = RTree::bulk_load(small_config(), grid_points(5, 5, 1.0));
        let hits = tree.range_query(&Rect::from_coords(1.0, 1.0, 2.0, 2.0));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn deep_tree_keeps_invariants() {
        let mut tree = RTree::bulk_load(small_config(), grid_points(20, 20, 3.0));
        assert!(tree.root_level() >= 2, "expected a tree of height >= 3");
        tree.check_invariants().unwrap();
        assert_eq!(tree.scan_all().len(), 400);
        assert!(tree.num_pages() > 10);
    }

    #[test]
    fn scan_all_returns_every_object_once() {
        let pts = grid_points(13, 7, 2.0);
        let mut tree = RTree::bulk_load(small_config(), pts.clone());
        let mut ids: Vec<u64> = tree.scan_all().iter().map(|o| o.id().0).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..pts.len() as u64).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let mut tree: RTree<PointObject> = RTree::bulk_load(small_config(), Vec::new());
        assert!(tree.is_empty());
        assert!(tree.range_query(&Rect::DOMAIN).is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn node_accesses_are_counted() {
        let mut tree = RTree::bulk_load(small_config(), grid_points(10, 10, 1.0));
        tree.drop_buffer();
        tree.stats().reset();
        let _ = tree.range_query(&Rect::from_coords(0.0, 0.0, 9.0, 9.0));
        let accesses = tree.stats().snapshot().physical_reads;
        // The full-range query must read every page of the tree exactly once
        // when the buffer is cold and large enough to avoid re-reads.
        assert_eq!(accesses as usize, tree.num_pages());
    }

    #[test]
    fn buffer_reduces_repeated_query_cost() {
        let mut tree = RTree::bulk_load(small_config(), grid_points(10, 10, 1.0));
        tree.set_buffer_pages(tree.num_pages());
        tree.drop_buffer();
        tree.stats().reset();
        let q = Rect::from_coords(1.0, 1.0, 3.0, 3.0);
        let _ = tree.range_query(&q);
        let cold = tree.stats().snapshot().physical_reads;
        let _ = tree.range_query(&q);
        let warm = tree.stats().snapshot().physical_reads - cold;
        assert!(cold > 0);
        assert_eq!(warm, 0, "second identical query must be fully buffered");
    }

    #[test]
    fn hilbert_leaf_order_touches_each_leaf_once() {
        let mut tree = RTree::bulk_load(small_config(), grid_points(16, 16, 1.0));
        let domain = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let leaves = tree.leaf_pages_hilbert_order(&domain);
        // Reading every returned leaf yields every object exactly once.
        let mut ids = Vec::new();
        for page in &leaves {
            let node = tree.try_read_node(*page).unwrap();
            assert!(node.is_leaf());
            ids.extend(node.objects.iter().map(|o| o.id().0));
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..256u64).collect::<Vec<_>>());
    }

    #[test]
    fn node_byte_budget_reserves_header_and_integrity_trailer() {
        let cfg = RTreeConfig::default();
        assert_eq!(
            cfg.node_byte_budget(),
            cij_pagestore::DEFAULT_PAGE_SIZE - NODE_HEADER_BYTES - FRAME_TRAILER_BYTES
        );
        // Degenerate pages still yield a usable (if overflowing) budget.
        let tiny = RTreeConfig {
            page_size: 8,
            ..RTreeConfig::default()
        };
        assert_eq!(tiny.node_byte_budget(), ChildEntry::BYTES);
    }

    #[test]
    fn transient_faults_are_invisible_to_queries_and_counters() {
        use cij_pagestore::FaultKind;
        let q = Rect::from_coords(1.0, 1.0, 9.0, 9.0);
        let query = |fault: Option<FaultProfile>| {
            let mut t = RTree::bulk_load(small_config(), grid_points(12, 12, 1.0));
            t.set_buffer_pages(8);
            t.flush();
            t.drop_buffer();
            t.stats().reset();
            if let Some(profile) = fault {
                t.inject_fault(profile);
            }
            let mut ids: Vec<u64> = t.range_query(&q).iter().map(|o| o.id().0).collect();
            ids.sort_unstable();
            (ids, t)
        };
        let (clean, clean_tree) = query(None);
        assert!(!clean.is_empty());
        // Every read attempt of the query, in turn, fails once.
        for at in 0.. {
            let (ids, mut faulty) = query(Some(FaultProfile::fail_read(at, FaultKind::Transient)));
            let fs = faulty.fault_stats();
            if fs.injected_read_faults == 0 {
                assert!(at > 8, "the query read only {at} pages");
                break;
            }
            assert_eq!(
                ids, clean,
                "attempt {at}: retried reads must not change results"
            );
            assert_eq!(
                clean_tree.stats().snapshot(),
                faulty.stats().snapshot(),
                "attempt {at}: fault injection happens below the accounting layer"
            );
            assert_eq!(clean_tree.backend_io(), faulty.backend_io(), "attempt {at}");
            assert_eq!((fs.retries, fs.recoveries), (1, 1), "attempt {at}");
            assert!(
                faulty.take_io_error().is_none(),
                "attempt {at}: no error surfaced"
            );
        }
    }

    #[test]
    fn duplicate_points_are_allowed() {
        let same_spot = (0..50).map(|i| PointObject::new(i, Point::new(1.0, 1.0)));
        let mut tree = RTree::bulk_load(small_config(), same_spot.collect());
        assert_eq!(tree.len(), 50);
        tree.check_invariants().unwrap();
        assert_eq!(
            tree.range_query(&Rect::from_point(Point::new(1.0, 1.0)))
                .len(),
            50
        );
    }

    #[test]
    fn by_reference_range_queries_account_like_owned_reads() {
        // The walk of `range_query` with every node read owned: same
        // objects in the same order, same counters, same buffer order.
        fn owned_range_query(tree: &mut RTree<PointObject>, query: &Rect) -> Vec<PointObject> {
            let mut out = Vec::new();
            let mut stack = vec![tree.root_page()];
            while let Some(page) = stack.pop() {
                let node = tree.try_read_node(page).unwrap();
                out.extend(node.objects.iter().filter(|o| o.mbr().intersects(query)));
                stack.extend(
                    node.children
                        .iter()
                        .filter(|c| c.mbr.intersects(query))
                        .map(|c| c.page),
                );
            }
            out
        }
        let build = || {
            let mut tree = RTree::bulk_load(small_config(), grid_points(30, 30, 1.0));
            tree.set_buffer_pages(tree.num_pages() / 8);
            tree.flush();
            tree.stats().reset();
            tree
        };
        let (mut by_ref, mut owned) = (build(), build());
        let root = owned.root_page();
        assert_eq!(
            by_ref.bounding_rect(),
            owned.try_read_node(root).unwrap().mbr()
        );
        let everything = Rect::from_coords(-1.0, -1.0, 30.0, 30.0);
        assert_eq!(
            by_ref.scan_all(),
            owned_range_query(&mut owned, &everything)
        );
        for i in 0..60 {
            let (x, y) = ((i * 7 % 29) as f64, (i * 11 % 29) as f64);
            let window = Rect::from_coords(x, y, x + (i % 5) as f64, y + (i % 3) as f64);
            let got = by_ref.range_query(&window);
            assert!(!got.is_empty());
            assert_eq!(got, owned_range_query(&mut owned, &window));
        }
        assert_eq!(by_ref.stats().snapshot(), owned.stats().snapshot());
        assert_eq!(by_ref.backend_io(), owned.backend_io());
        assert_eq!(
            by_ref.buffered_pages_mru_to_lru(),
            owned.buffered_pages_mru_to_lru()
        );
    }
}
