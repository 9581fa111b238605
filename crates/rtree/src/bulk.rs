//! Bottom-up Hilbert-packed bulk loading — in-memory and out-of-core.
//!
//! Section III-C of the paper constructs the Voronoi R-trees `R'P`/`R'Q` by
//! packing Voronoi cells into leaf pages in Hilbert order of their centroids
//! and then building the upper levels bottom-up ("similar to the Hilbert
//! R-tree"). The same loader doubles as a fast way to build the point trees
//! `RP`/`RQ` for the experiments — the paper's input trees are ordinary
//! R-trees, and a Hilbert-packed tree is a well-clustered instance of one.
//!
//! Two loaders share one streaming packer:
//!
//! * [`RTree::bulk_load_with_stats_on`] sorts the objects in memory — fine
//!   whenever the dataset fits in RAM;
//! * [`RTree::bulk_load_external_on`] **external-sorts** the objects by
//!   Hilbert key in bounded-memory runs spilled through a *scratch* backend
//!   of the same [`StorageBackend`] kind, then k-way-merges the runs
//!   straight into the leaf packer. Tree construction never materialises
//!   the full dataset: its memory bound is **`run_capacity` objects plus
//!   one spill frame per run** (and, while a run is being sorted, one
//!   `(key, index)` pair per object of that run). The merge is ordered by
//!   `(hilbert key, run index)` and the runs are contiguous input chunks,
//!   so the merged order equals the in-memory stable sort — the two loaders
//!   produce **byte-identical trees**. Spill traffic goes through a scratch
//!   backend instance (unmetered), never the tree's own store, so the
//!   "construction writes every page exactly once and reads none" property
//!   is preserved. Spill frames are 16 KiB, capped at `run_capacity` pages
//!   and at least one page (`spill_frame_bytes`): they are no page of the
//!   tree, so they are sized for the transfer, while the tree's own pages
//!   stay `page_size`.
//!
//! Both loaders compute each object's Hilbert key **once**, at the price of
//! one `(u64 key, index)` pair per object being sorted — the whole input for
//! the in-memory loader, one run for the external one, so its
//! O(`run_capacity`) bound stands. The in-memory loader sorts with
//! `sort_by_cached_key`; the external one sorts a `(key, index)`
//! permutation of each run (the same footprint), writes the run through it
//! with each key in front of its object's entry, and the merge reads the
//! keys back instead of computing them again. Both orders are stable, like
//! the merge tie-break above, which is what keeps the two loaders
//! byte-identical.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::node::{ChildEntry, Node};
use crate::object::RTreeObject;
use crate::tree::{RTree, RTreeConfig};
use cij_geom::{hilbert, Rect};
use cij_pagestore::{FrameReader, FrameWriter, IoClass, IoStats, PageBackend, StorageBackend};

/// Packing fill factor for bulk loading (fraction of the page byte budget a
/// leaf is filled to before a new leaf is started). The paper packs pages
/// fully.
pub const DEFAULT_FILL: f64 = 1.0;

/// Default in-memory run size of the external sort, in objects. Small
/// enough that a run is a negligible fraction of the paper-scale datasets,
/// large enough that runs span many spill frames.
pub const DEFAULT_RUN_CAPACITY: usize = 8192;

impl<D: RTreeObject> RTree<D> {
    /// Bulk-loads a tree from `objects` with fresh statistics counters, on
    /// the heap backend, packing pages to [`DEFAULT_FILL`].
    pub fn bulk_load(config: RTreeConfig, objects: Vec<D>) -> Self {
        Self::bulk_load_with_stats_on(
            config,
            IoStats::new(),
            objects,
            DEFAULT_FILL,
            StorageBackend::Heap,
        )
    }

    /// Bulk-loads a tree that shares `stats`, packing leaf pages to `fill`
    /// (in `(0, 1]`) of the page byte budget in Hilbert order, its node
    /// frames on the given [`StorageBackend`].
    ///
    /// Construction writes every node page exactly once (the logical writes
    /// become physical when the buffer evicts them or on
    /// [`RTree::flush`]), matching the paper's observation that bulk-loading
    /// costs exactly the sequential write of the new tree.
    pub fn bulk_load_with_stats_on(
        config: RTreeConfig,
        stats: IoStats,
        mut objects: Vec<D>,
        fill: f64,
        storage: StorageBackend,
    ) -> Self {
        let mut tree = RTree::with_stats_on(config, stats, storage);
        if objects.is_empty() {
            return tree;
        }
        // Order objects along the Hilbert curve of their MBR centers.
        let domain = objects
            .iter()
            .fold(Rect::empty(), |acc, o| acc.union(&o.mbr()));
        objects.sort_by_cached_key(|o| hilbert::hilbert_value(&o.mbr().center(), &domain));
        pack_sorted(&mut tree, objects.into_iter(), fill);
        tree
    }

    /// Bulk-loads a tree from an object *stream* in bounded memory: an
    /// external merge sort by Hilbert key with at most `run_capacity`
    /// objects held in RAM at once, spilled through a scratch backend of
    /// the same `storage` kind (so the spill is genuinely out-of-core under
    /// `file`/`mmap`).
    ///
    /// Produces a tree **byte-identical** to
    /// [`RTree::bulk_load_with_stats_on`] on the same input sequence — the
    /// run merge reproduces the in-memory stable sort exactly. Inputs that
    /// fit a single run are delegated to the in-memory loader outright
    /// (zero spill traffic).
    ///
    /// The scratch spill never touches the tree's own store or the shared
    /// `stats`: construction still writes every tree page exactly once and
    /// reads none, and all spill bytes land in the *unmetered* bucket of a
    /// backend that is dropped before this returns.
    pub fn bulk_load_external_on(
        config: RTreeConfig,
        stats: IoStats,
        objects: impl IntoIterator<Item = D>,
        fill: f64,
        storage: StorageBackend,
        run_capacity: usize,
    ) -> Self {
        let run_capacity = run_capacity.max(1);
        let mut input = objects.into_iter();

        // Hybrid fast path: drain one run's worth plus one. If the input
        // ends within a single run, external == in-memory by definition.
        let mut head: Vec<D> = Vec::with_capacity(run_capacity.min(1 << 20) + 1);
        while head.len() <= run_capacity {
            match input.next() {
                Some(o) => head.push(o),
                None => return Self::bulk_load_with_stats_on(config, stats, head, fill, storage),
            }
        }

        // Pass 0: spill everything in arrival order, folding the Hilbert
        // domain over the exact same sequence the in-memory loader folds.
        let mut scratch = storage.create(spill_frame_bytes(config.page_size, run_capacity));
        let mut domain = Rect::empty();
        let mut total = 0usize;
        let mut spill = SpillWriter::new(&mut *scratch);
        for o in head.drain(..).chain(input) {
            domain = domain.union(&o.mbr());
            spill.push(&o);
            total += 1;
        }
        let unsorted = spill.finish();

        // Pass 1: re-read in run-sized chunks, sort each chunk by Hilbert
        // key (stable, like the in-memory loader) and spill the sorted runs
        // with each object's key in front of its entry. The sort orders a
        // `(key, index)` permutation — `sort_by_cached_key`'s footprint —
        // and the run is written through it.
        let mut frame_buf = Vec::new();
        let mut cursor: RunCursor<D> = RunCursor::new(unsorted);
        let mut runs: Vec<Vec<u32>> = Vec::new();
        loop {
            let mut chunk: Vec<D> = Vec::with_capacity(run_capacity);
            while chunk.len() < run_capacity {
                match cursor.next(&mut *scratch, &mut frame_buf) {
                    Some(o) => chunk.push(o),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            let mut order: Vec<(u64, usize)> = (chunk.iter().enumerate())
                .map(|(i, o)| (hilbert::hilbert_value(&o.mbr().center(), &domain), i))
                .collect();
            // Distinct indices make the unstable sort stable.
            order.sort_unstable();
            let mut writer = SpillWriter::new(&mut *scratch);
            for &(key, i) in &order {
                writer.push_keyed(key, &chunk[i]);
            }
            runs.push(writer.finish());
        }
        debug_assert!(runs.len() >= 2, "single-run inputs take the fast path");

        // Merge: k-way by (hilbert key, run index), the keys read back from
        // the runs. Runs are contiguous input chunks in order, so this
        // tie-break makes the merge equal to one global stable sort.
        let mut tree = RTree::with_stats_on(config, stats, storage);
        let mut cursors: Vec<RunCursor<Keyed<D>>> = runs.into_iter().map(RunCursor::new).collect();
        let mut heads: Vec<Option<D>> = Vec::with_capacity(cursors.len());
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, c) in cursors.iter_mut().enumerate() {
            let head = c.next(&mut *scratch, &mut frame_buf).map(|Keyed(key, o)| {
                heap.push(Reverse((key, i)));
                o
            });
            heads.push(head);
        }
        let merged = std::iter::from_fn(move || {
            let Reverse((_, i)) = heap.pop()?;
            let out = heads[i].take().expect("heap entry without a run head");
            if let Some(Keyed(key, next)) = cursors[i].next(&mut *scratch, &mut frame_buf) {
                heap.push(Reverse((key, i)));
                heads[i] = Some(next);
            }
            Some(out)
        });
        let packed = pack_sorted(&mut tree, merged, fill);
        debug_assert_eq!(packed, total, "merge lost or duplicated objects");
        tree
    }
}

/// Streams Hilbert-sorted objects into packed leaves, builds the upper
/// levels bottom-up, frees the placeholder root of the (empty) `tree` and
/// installs the packed root. Returns the number of objects packed — the
/// caller guarantees at least one.
fn pack_sorted<D: RTreeObject>(
    tree: &mut RTree<D>,
    objects: impl Iterator<Item = D>,
    fill: f64,
) -> usize {
    let config = *tree.config();
    let fill = fill.clamp(0.1, 1.0);
    let placeholder_root = tree.root_page();
    let byte_budget = ((config.node_byte_budget() as f64) * fill) as usize;

    // Pack leaves.
    let mut total = 0usize;
    let mut leaf_entries: Vec<ChildEntry> = Vec::new();
    let mut current = Node::new_leaf();
    let mut current_bytes = 0usize;
    for obj in objects {
        total += 1;
        let obj_bytes = obj.entry_bytes();
        let would_overflow = !current.objects.is_empty()
            && (current_bytes + obj_bytes > byte_budget
                || current.objects.len() >= config.max_entries);
        if would_overflow {
            let mbr = current.mbr();
            let page = tree
                .store_mut()
                .allocate(std::mem::replace(&mut current, Node::new_leaf()));
            leaf_entries.push(ChildEntry { mbr, page });
            current_bytes = 0;
        }
        current_bytes += obj_bytes;
        current.objects.push(obj);
    }
    assert!(total > 0, "pack_sorted requires a non-empty object stream");
    if !current.objects.is_empty() {
        let mbr = current.mbr();
        let page = tree.store_mut().allocate(current);
        leaf_entries.push(ChildEntry { mbr, page });
    }

    // Build upper levels bottom-up until a single node remains.
    let max_children = ((config.max_children() as f64) * fill).floor().max(2.0) as usize;
    let mut level = 1u32;
    let mut entries = leaf_entries;
    while entries.len() > 1 {
        let mut next: Vec<ChildEntry> = Vec::with_capacity(entries.len() / max_children + 1);
        for chunk in entries.chunks(max_children) {
            let mut node = Node::new_inner(level);
            node.children.extend_from_slice(chunk);
            let mbr = node.mbr();
            let page = tree.store_mut().allocate(node);
            next.push(ChildEntry { mbr, page });
        }
        entries = next;
        level += 1;
    }

    // The empty-leaf root allocated by `with_stats_on` is replaced by the
    // packed tree; free it so it neither counts towards the tree's page
    // count (the LB of the experiments) nor gets flushed.
    let root_entry = entries[0];
    tree.store_mut().free(placeholder_root);
    tree.set_root(root_entry.page, level - 1, total);
    total
}

/// Bytes of one spill frame of the external sort (see
/// [`spill_frame_bytes`]). The spill is unmetered and lives on its own
/// scratch backend, so its frames need not be tree pages: 16 KiB moves
/// sixteen 1 KiB pages' worth of entries per transfer.
const SPILL_FRAME_BYTES: usize = 16 << 10;

/// The spill frame of an external sort in runs of `run_capacity` objects
/// on `page_size`-byte tree pages: [`SPILL_FRAME_BYTES`], but no more than
/// `run_capacity` pages and no less than one page. A run's last frame is
/// partly empty, so the cap keeps the spill of many tiny runs within what
/// page-sized frames of one object each would take; the floor keeps every
/// record of an object that fits a leaf within a frame.
fn spill_frame_bytes(page_size: usize, run_capacity: usize) -> usize {
    SPILL_FRAME_BYTES
        .min(run_capacity.saturating_mul(page_size))
        .max(page_size)
}

/// Bytes of the `u32` entry count that opens every spill frame.
const SPILL_HEADER_BYTES: usize = 4;

/// Bytes of the Hilbert key in front of each entry of a sorted run.
const KEY_BYTES: usize = 8;

/// Appends self-delimiting records to spill frames of the scratch backend:
/// `[u32 count][records back-to-back]`, zero-padded to the frame size,
/// records never spanning frames. A record is an object entry
/// ([`SpillWriter::push`], the arrival-order spill) or its `u64` Hilbert
/// key followed by the entry ([`SpillWriter::push_keyed`], a sorted run).
/// All traffic is [`IoClass::Unmetered`] — spill is maintenance I/O, not a
/// measured page access.
struct SpillWriter<'a> {
    backend: &'a mut dyn PageBackend,
    /// The frame under assembly, reused across flushes: the count header
    /// (patched in on flush) followed by the entries pushed so far.
    frame: FrameWriter,
    count: u32,
    frames: Vec<u32>,
}

impl<'a> SpillWriter<'a> {
    fn new(backend: &'a mut dyn PageBackend) -> Self {
        assert!(
            backend.frame_size() >= SPILL_HEADER_BYTES,
            "spill frames need room for the count header"
        );
        let mut frame = FrameWriter::with_capacity(backend.frame_size());
        frame.put_u32(0);
        SpillWriter {
            backend,
            frame,
            count: 0,
            frames: Vec::new(),
        }
    }

    fn push<D: RTreeObject>(&mut self, object: &D) {
        self.push_record(object.entry_bytes(), |w| object.encode_entry(w));
    }

    fn push_keyed<D: RTreeObject>(&mut self, key: u64, object: &D) {
        self.push_record(KEY_BYTES + object.entry_bytes(), |w| {
            w.put_u64(key);
            object.encode_entry(w);
        });
    }

    fn push_record(&mut self, bytes: usize, encode: impl FnOnce(&mut FrameWriter)) {
        let frame_size = self.backend.frame_size();
        assert!(
            SPILL_HEADER_BYTES + bytes <= frame_size,
            "spill record ({bytes} B) exceeds a spill frame ({} B)",
            frame_size - SPILL_HEADER_BYTES
        );
        if self.count > 0 && self.frame.len() + bytes > frame_size {
            self.flush_frame();
        }
        encode(&mut self.frame);
        self.count += 1;
    }

    fn flush_frame(&mut self) {
        let mut bytes = std::mem::take(&mut self.frame).into_bytes();
        bytes[..SPILL_HEADER_BYTES].copy_from_slice(&self.count.to_le_bytes());
        bytes.resize(self.backend.frame_size(), 0);
        let index = self.backend.allocate();
        // The scratch backend is never fault-wrapped; a spill failure is a
        // genuine medium failure, service-fatal during construction.
        self.backend
            .write(index, &bytes, IoClass::Unmetered)
            .unwrap_or_else(|e| panic!("bulk-load spill write failed: {e}"));
        self.frames.push(index);
        bytes.clear();
        self.frame = FrameWriter::over(bytes);
        self.frame.put_u32(0);
        self.count = 0;
    }

    /// Flushes the trailing partial frame and returns the frame indices in
    /// write order.
    fn finish(mut self) -> Vec<u32> {
        if self.count > 0 {
            self.flush_frame();
        }
        self.frames
    }
}

/// A record of a spill frame, as [`RunCursor`] decodes it.
trait SpillRecord: Sized {
    fn decode(r: &mut FrameReader<'_>) -> Self;
}

/// An arrival-order record: the object entry alone.
impl<D: RTreeObject> SpillRecord for D {
    fn decode(r: &mut FrameReader<'_>) -> Self {
        D::decode_entry(r)
    }
}

/// A sorted-run record: the object behind the Hilbert key the run sort
/// computed, so the merge orders by it without computing it again.
struct Keyed<D>(u64, D);

impl<D: RTreeObject> SpillRecord for Keyed<D> {
    fn decode(r: &mut FrameReader<'_>) -> Self {
        let key = r.take_u64();
        Keyed(key, D::decode_entry(r))
    }
}

/// Streams the records of one spill back, decoding one frame at a time
/// (the per-run memory bound of the merge) into a pending queue whose
/// allocation is reused from frame to frame, and freeing each frame after
/// its single read.
struct RunCursor<D: SpillRecord> {
    frames: std::vec::IntoIter<u32>,
    pending: VecDeque<D>,
}

impl<D: SpillRecord> RunCursor<D> {
    fn new(frames: Vec<u32>) -> Self {
        RunCursor {
            frames: frames.into_iter(),
            pending: VecDeque::new(),
        }
    }

    fn next(&mut self, backend: &mut dyn PageBackend, frame_buf: &mut Vec<u8>) -> Option<D> {
        loop {
            if let Some(o) = self.pending.pop_front() {
                return Some(o);
            }
            let frame = self.frames.next()?;
            frame_buf.resize(backend.frame_size(), 0);
            backend
                .read(frame, frame_buf, IoClass::Unmetered)
                .unwrap_or_else(|e| panic!("bulk-load spill read failed: {e}"));
            backend.free(frame);
            let mut r = FrameReader::new(frame_buf);
            let count = r.take_u32();
            self.pending.extend((0..count).map(|_| D::decode(&mut r)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{CellObject, ObjectId, PointObject, RTreeObject};
    use cij_geom::{ConvexPolygon, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    fn config() -> RTreeConfig {
        RTreeConfig {
            page_size: 256,
            max_entries: 64,
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    /// Structural equality of two trees, page by page: identical allocation
    /// order makes the page numbering itself part of the contract.
    fn assert_trees_identical<D: RTreeObject + PartialEq + std::fmt::Debug>(
        a: &mut RTree<D>,
        b: &mut RTree<D>,
    ) {
        assert_eq!(a.root_page(), b.root_page());
        assert_eq!(a.root_level(), b.root_level());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_pages(), b.num_pages());
        let mut stack = vec![a.root_page()];
        while let Some(page) = stack.pop() {
            let na = a.try_read_node(page).unwrap();
            let nb = b.try_read_node(page).unwrap();
            assert_eq!(na, nb, "page {page:?} differs");
            if !na.is_leaf() {
                stack.extend(na.children.iter().map(|c| c.page));
            }
        }
    }

    #[test]
    fn bulk_load_preserves_all_objects_and_invariants() {
        let pts = random_points(500, 42);
        let tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        assert_eq!(tree.len(), 500);
        tree.check_invariants().unwrap();
        let mut tree = tree;
        let mut ids: Vec<u64> = tree.scan_all().iter().map(|o| o.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..500u64).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_of_empty_input_gives_empty_tree() {
        let tree: RTree<PointObject> = RTree::bulk_load(config(), Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_single_object() {
        let tree = RTree::bulk_load(config(), vec![PointObject::new(0, Point::new(5.0, 5.0))]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root_level(), 0);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn leaf_pages_respect_byte_budget_for_variable_size_cells() {
        // Build cells with varying vertex counts and check that no leaf page
        // exceeds the page size.
        let mut cells = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..200 {
            let cx = rng.gen_range(100.0..9_900.0);
            let cy = rng.gen_range(100.0..9_900.0);
            let site = Point::new(cx, cy);
            let mut cell = ConvexPolygon::from_rect(&Rect::from_coords(
                cx - 50.0,
                cy - 50.0,
                cx + 50.0,
                cy + 50.0,
            ));
            let sides = rng.gen_range(0..6);
            for _ in 0..sides {
                let other = Point::new(
                    cx + rng.gen_range(-80.0..80.0),
                    cy + rng.gen_range(-80.0..80.0),
                );
                if other.dist(&site) > 1.0 {
                    cell = cell.clip_bisector(&site, &other);
                }
            }
            cells.push(CellObject::new(i, site, cell));
        }
        let cfg = RTreeConfig {
            page_size: 512,
            max_entries: 64,
        };
        let mut tree = RTree::bulk_load(cfg, cells);
        tree.check_invariants().unwrap();
        let root = tree.root_page();
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let node = tree.try_read_node(page).unwrap();
            if node.is_leaf() {
                assert!(
                    node.objects.len() == 1 || node.payload_bytes() <= 512,
                    "leaf exceeds page budget: {} bytes",
                    node.payload_bytes()
                );
            } else {
                stack.extend(node.children.iter().map(|c| c.page));
            }
        }
    }

    #[test]
    fn num_pages_counts_only_reachable_nodes() {
        // Regression test: the placeholder root of the initially-empty tree
        // must not linger in the page count (it would inflate the LB lower
        // bound of the experiments).
        let pts = random_points(700, 21);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        let mut reachable = 0usize;
        let mut stack = vec![tree.root_page()];
        while let Some(page) = stack.pop() {
            reachable += 1;
            let node = tree.try_read_node(page).unwrap();
            if !node.is_leaf() {
                stack.extend(node.children.iter().map(|c| c.page));
            }
        }
        assert_eq!(reachable, tree.num_pages());
    }

    #[test]
    fn a_write_fault_at_every_attempt_of_a_build_is_retried_invisibly_or_panics_naming_the_frame() {
        use cij_pagestore::{FaultKind, FaultProfile, IoOp};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let objects = PointObject::from_points(&random_points(300, 77));
        // Packs through a 4-page buffer, so the build writes pages at
        // eviction and the flush writes the rest; `fault` is armed on the
        // empty tree and counts every write of both.
        let build = |backend, fault: Option<FaultProfile>| {
            let mut tree = RTree::with_stats_on(config(), IoStats::new(), backend);
            tree.set_buffer_pages(4);
            if let Some(profile) = fault {
                tree.inject_fault(profile);
            }
            pack_sorted(&mut tree, objects.iter().cloned(), DEFAULT_FILL);
            tree.flush();
            tree
        };
        for backend in StorageBackend::ALL {
            let mut clean = build(backend, None);
            let (counted, moved) = (clean.stats().snapshot(), clean.backend_io());
            for at in 0.. {
                let label = format!("{backend}, write attempt {at}");
                let profile = FaultProfile::FailAt {
                    op: IoOp::Write,
                    at,
                    kind: FaultKind::Transient,
                };
                let mut faulty = build(backend, Some(profile));
                let fs = faulty.fault_stats();
                assert_eq!(faulty.stats().snapshot(), counted, "{label}");
                assert_eq!(faulty.backend_io(), moved, "{label}");
                if fs.injected_write_faults == 0 {
                    assert!(at > 16, "{label}: the build wrote too little");
                    break;
                }
                assert_eq!(fs.write_retries, 1, "{label}");
                // Cold reads verify every frame's checksum and decode it.
                clean.drop_buffer();
                faulty.drop_buffer();
                assert_trees_identical(&mut clean, &mut faulty);

                let profile = FaultProfile::FailAt {
                    op: IoOp::Write,
                    at,
                    kind: FaultKind::Persistent,
                };
                let payload = catch_unwind(AssertUnwindSafe(|| build(backend, Some(profile))))
                    .expect_err(&label);
                let message = payload.downcast_ref::<String>().expect("a formatted panic");
                let frame = message
                    .strip_prefix("write-back of frame ")
                    .and_then(|rest| rest.split(' ').next())
                    .unwrap_or_else(|| panic!("{label}: {message}"));
                let expected = format!(
                    "write-back of frame {frame} failed: persistent write error on frame \
                     {frame}: injected at write attempt {at}"
                );
                assert_eq!(message, &expected, "{label}");
            }
        }
    }

    #[test]
    fn construction_io_equals_writing_the_tree_once() {
        let pts = random_points(1000, 5);
        let stats = IoStats::new();
        let mut tree = RTree::bulk_load_with_stats_on(
            config(),
            stats.clone(),
            PointObject::from_points(&pts),
            1.0,
            StorageBackend::Heap,
        );
        tree.flush();
        let snap = stats.snapshot();
        // Every node page is written exactly once; with an unbuffered store
        // the discarded placeholder root may account for one extra write.
        let writes = snap.physical_writes as usize;
        assert!(
            writes == tree.num_pages() || writes == tree.num_pages() + 1,
            "bulk load wrote {writes} pages for a {}-page tree",
            tree.num_pages()
        );
        assert_eq!(snap.physical_reads, 0, "bulk load must not read any page");
    }

    #[test]
    fn hilbert_packing_clusters_consecutive_leaves() {
        // Consecutive leaves in a Hilbert-packed tree should be spatially
        // close: the average distance between consecutive leaf centers must
        // be much smaller than the domain diagonal.
        let pts = random_points(3000, 11);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        let domain = Rect::DOMAIN;
        let leaves = tree.leaf_pages_hilbert_order(&domain);
        let mut centers = Vec::new();
        for page in leaves {
            let node = tree.try_read_node(page).unwrap();
            centers.push(node.mbr().center());
        }
        let mut total = 0.0;
        for w in centers.windows(2) {
            total += w[0].dist(&w[1]);
        }
        let avg = total / (centers.len() - 1) as f64;
        let diagonal = domain.lo.dist(&domain.hi);
        assert!(
            avg < diagonal / 10.0,
            "avg consecutive-leaf distance {avg} too large vs diagonal {diagonal}"
        );
    }

    #[test]
    fn external_bulk_load_is_byte_identical_to_in_memory() {
        // Many runs (capacity 100 over 1500 objects), every backend: the
        // external sort must reproduce the in-memory tree exactly, page for
        // page — including page numbering.
        let pts = random_points(1500, 17);
        for backend in StorageBackend::ALL {
            let mut in_memory = RTree::bulk_load_with_stats_on(
                config(),
                IoStats::new(),
                PointObject::from_points(&pts),
                1.0,
                backend,
            );
            let mut external = RTree::bulk_load_external_on(
                config(),
                IoStats::new(),
                PointObject::from_points(&pts),
                1.0,
                backend,
                100,
            );
            external.check_invariants().unwrap();
            assert_trees_identical(&mut in_memory, &mut external);
        }
    }

    /// `n` seeded cells: squares around random sites, cut by a few random
    /// bisectors, so their entries vary in size.
    fn random_cells(n: usize, seed: u64) -> Vec<CellObject> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let site = Point::new(rng.gen_range(100.0..9_900.0), rng.gen_range(100.0..9_900.0));
                let square =
                    Rect::from_coords(site.x - 40.0, site.y - 40.0, site.x + 40.0, site.y + 40.0);
                let mut cell = ConvexPolygon::from_rect(&square);
                for _ in 0..rng.gen_range(0..5) {
                    let dx = rng.gen_range(-70.0..70.0);
                    let other = Point::new(site.x + dx, site.y + rng.gen_range(-70.0..70.0));
                    if other.dist(&site) > 1.0 {
                        cell = cell.clip_bisector(&site, &other);
                    }
                }
                CellObject::new(i, site, cell)
            })
            .collect()
    }

    /// The in-memory tree of `objects` and the external one at each run
    /// capacity, on every backend, compared page by page.
    fn assert_external_equals_in_memory<D>(objects: &[D], run_capacities: &[usize])
    where
        D: RTreeObject + Clone + PartialEq + std::fmt::Debug,
    {
        for storage in StorageBackend::ALL {
            let mut in_memory = RTree::bulk_load_with_stats_on(
                config(),
                IoStats::new(),
                objects.to_vec(),
                1.0,
                storage,
            );
            for &run_capacity in run_capacities {
                let mut external = RTree::bulk_load_external_on(
                    config(),
                    IoStats::new(),
                    objects.iter().cloned(),
                    1.0,
                    storage,
                    run_capacity,
                );
                assert_trees_identical(&mut in_memory, &mut external);
            }
        }
    }

    #[test]
    fn keyed_runs_merge_into_the_in_memory_tree_for_points_and_cells() {
        // Past the default run capacity, so runs of 8 192 spill too (two
        // runs, 16 KiB frames); runs of 1 and 3 spill a frame of one and
        // of three pages per run.
        let n = DEFAULT_RUN_CAPACITY + 1_808;
        let capacities = [1, 3, DEFAULT_RUN_CAPACITY];
        assert_external_equals_in_memory(
            &PointObject::from_points(&random_points(n, 67)),
            &capacities,
        );
        assert_external_equals_in_memory(&random_cells(n, 71), &capacities);
    }

    #[test]
    fn spill_frames_are_16_kib_within_one_page_and_run_capacity_pages() {
        assert_eq!(spill_frame_bytes(1024, DEFAULT_RUN_CAPACITY), 16 << 10);
        assert_eq!(spill_frame_bytes(256, 1), 256);
        assert_eq!(spill_frame_bytes(256, 3), 768);
        assert_eq!(spill_frame_bytes(64 << 10, 2), 64 << 10);
        assert_eq!(spill_frame_bytes(1024, usize::MAX), 16 << 10);
    }

    #[test]
    fn external_bulk_load_small_input_takes_the_in_memory_path() {
        let pts = random_points(300, 23);
        let mut in_memory = RTree::bulk_load(config(), PointObject::from_points(&pts));
        // run_capacity 300 >= input: delegates, still identical.
        let mut external = RTree::bulk_load_external_on(
            config(),
            IoStats::new(),
            PointObject::from_points(&pts),
            DEFAULT_FILL,
            StorageBackend::Heap,
            300,
        );
        assert_trees_identical(&mut in_memory, &mut external);
    }

    #[test]
    fn external_bulk_load_keeps_construction_io_clean() {
        // The spill must not leak into the tree's own store or counters:
        // building externally still writes every tree page exactly once and
        // reads nothing, and the tree's backend carries no unmetered spill
        // bytes.
        let pts = random_points(1200, 31);
        let stats = IoStats::new();
        let mut tree = RTree::bulk_load_external_on(
            config(),
            stats.clone(),
            PointObject::from_points(&pts),
            1.0,
            StorageBackend::Mmap,
            150,
        );
        tree.flush();
        let snap = stats.snapshot();
        let writes = snap.physical_writes as usize;
        assert!(
            writes == tree.num_pages() || writes == tree.num_pages() + 1,
            "external load wrote {writes} pages for a {}-page tree",
            tree.num_pages()
        );
        assert_eq!(snap.physical_reads, 0, "external load read a tree page");
        let io = tree.backend_io();
        assert_eq!(
            io.unmetered_bytes_read, 0,
            "spill leaked into the tree store"
        );
        assert_eq!(
            io.unmetered_bytes_written, 0,
            "spill leaked into the tree store"
        );
    }

    #[test]
    fn external_bulk_load_bounds_resident_pages() {
        // With a genuinely cold scratch path (mmap) and a small run
        // capacity, the tree store never holds more decoded pages than its
        // buffer + pins allow — there is no mirror to hide in.
        let pts = random_points(2000, 37);
        let tree = RTree::bulk_load_external_on(
            config(),
            IoStats::new(),
            PointObject::from_points(&pts),
            1.0,
            StorageBackend::Mmap,
            128,
        );
        assert!(
            tree.peak_resident_pages() <= tree.buffer_pages() + tree.peak_pinned_pages(),
            "peak resident {} exceeds buffer {} + pinned {}",
            tree.peak_resident_pages(),
            tree.buffer_pages(),
            tree.peak_pinned_pages()
        );
    }

    #[test]
    fn spill_frames_roundtrip_variable_size_entries() {
        // The spill codec on its own: variable-size cell entries packed
        // into 512-byte frames and read back in order.
        let mut cells = Vec::new();
        let mut rng = StdRng::seed_from_u64(41);
        for i in 0..120 {
            let cx = rng.gen_range(100.0..9_900.0);
            let cy = rng.gen_range(100.0..9_900.0);
            let site = Point::new(cx, cy);
            let mut cell = ConvexPolygon::from_rect(&Rect::from_coords(
                cx - 40.0,
                cy - 40.0,
                cx + 40.0,
                cy + 40.0,
            ));
            for _ in 0..rng.gen_range(0..5) {
                let other = Point::new(
                    cx + rng.gen_range(-70.0..70.0),
                    cy + rng.gen_range(-70.0..70.0),
                );
                if other.dist(&site) > 1.0 {
                    cell = cell.clip_bisector(&site, &other);
                }
            }
            cells.push(CellObject::new(i, site, cell));
        }
        let mut backend = StorageBackend::Heap.create(512);
        let mut writer = SpillWriter::new(&mut *backend);
        for c in &cells {
            writer.push(c);
        }
        let frames = writer.finish();
        assert!(frames.len() > 1, "spill should span frames");

        // The frame layout, assembled independently: count header, entries
        // back to back while the next one still fits, zero padding.
        let mut buf = Vec::new();
        let mut rest = &cells[..];
        for &frame in &frames {
            let mut expected = FrameWriter::with_capacity(512);
            expected.put_u32(0);
            let mut count = 0u32;
            while let Some((c, tail)) = rest.split_first() {
                if count > 0 && expected.len() + c.entry_bytes() > 512 {
                    break;
                }
                c.encode_entry(&mut expected);
                count += 1;
                rest = tail;
            }
            let mut expected = expected.into_bytes();
            expected[..4].copy_from_slice(&count.to_le_bytes());
            expected.resize(512, 0);
            buf.resize(512, 0);
            backend.read(frame, &mut buf, IoClass::Unmetered).unwrap();
            assert_eq!(buf, expected, "spill frame {frame} layout changed");
        }
        assert!(rest.is_empty());

        let mut cursor: RunCursor<CellObject> = RunCursor::new(frames);
        let mut read_back = Vec::new();
        while let Some(c) = cursor.next(&mut *backend, &mut buf) {
            read_back.push(c);
        }
        assert_eq!(read_back.len(), cells.len());
        for (a, b) in read_back.iter().zip(&cells) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.mbr(), b.mbr());
        }
    }

    thread_local! {
        static MBR_CALLS: Cell<usize> = const { Cell::new(0) };
    }

    /// A point object that counts its `mbr()` calls — the loaders' unit of
    /// key work (domain fold, Hilbert key, leaf MBR), observed without any
    /// instrumentation in the product.
    #[derive(Debug, Clone, PartialEq)]
    struct CountedPoint(PointObject);

    impl RTreeObject for CountedPoint {
        fn mbr(&self) -> Rect {
            MBR_CALLS.with(|c| c.set(c.get() + 1));
            self.0.mbr()
        }
        fn entry_bytes(&self) -> usize {
            self.0.entry_bytes()
        }
        fn id(&self) -> ObjectId {
            self.0.id()
        }
        fn encode_entry(&self, w: &mut FrameWriter) {
            self.0.encode_entry(w)
        }
        fn decode_entry(r: &mut FrameReader<'_>) -> Self {
            CountedPoint(PointObject::decode_entry(r))
        }
    }

    fn counted(points: &[Point]) -> Vec<CountedPoint> {
        PointObject::from_points(points)
            .into_iter()
            .map(CountedPoint)
            .collect()
    }

    #[test]
    fn loaders_compute_each_hilbert_key_once() {
        // 3·n `mbr()` calls on either loader: domain fold, one sort key,
        // the leaf MBR (the merge reads its keys back from the runs). A key
        // function that runs per comparison costs 2·n·log2(n) ≈ 28·n here.
        let n = 20_000;
        let pts = random_points(n, 53);
        let calls_of = |load: &dyn Fn(Vec<CountedPoint>) -> RTree<CountedPoint>| {
            let objects = counted(&pts);
            MBR_CALLS.with(|c| c.set(0));
            let tree = load(objects);
            let calls = MBR_CALLS.with(|c| c.get());
            assert_eq!(tree.len(), n);
            calls
        };
        let in_memory = calls_of(&|o| RTree::bulk_load(config(), o));
        assert!(
            in_memory <= 8 * n,
            "in-memory load: {in_memory} mbr() calls"
        );
        for run_capacity in [1, 7, n / 10, n] {
            let external = calls_of(&|o| {
                let stats = IoStats::new();
                let heap = StorageBackend::Heap;
                RTree::bulk_load_external_on(config(), stats, o, DEFAULT_FILL, heap, run_capacity)
            });
            assert!(
                external <= 8 * n,
                "external load, runs of {run_capacity}: {external} mbr() calls"
            );
        }
    }

    #[test]
    fn tied_hilbert_keys_keep_their_input_order() {
        // Thousands of objects on five locations: almost every comparison
        // is a tie, so the packed order *is* the stability of the sort. The
        // reference sorts with the plain stable `sort_by_key`.
        let spots = random_points(5, 59);
        let mut rng = StdRng::seed_from_u64(61);
        let pts: Vec<Point> = (0..6_000)
            .map(|_| spots[rng.gen_range(0..5usize)])
            .collect();
        let reference = |storage: StorageBackend| {
            let mut objects = counted(&pts);
            let domain = objects
                .iter()
                .fold(Rect::empty(), |acc, o| acc.union(&o.mbr()));
            objects.sort_by_key(|o| hilbert::hilbert_value(&o.mbr().center(), &domain));
            let mut tree = RTree::with_stats_on(config(), IoStats::new(), storage);
            pack_sorted(&mut tree, objects.into_iter(), DEFAULT_FILL);
            tree
        };
        for storage in StorageBackend::ALL {
            let mut expected = reference(storage);
            let mut in_memory = RTree::bulk_load_with_stats_on(
                config(),
                IoStats::new(),
                counted(&pts),
                DEFAULT_FILL,
                storage,
            );
            assert_trees_identical(&mut expected, &mut in_memory);
            for run_capacity in [1, 7, 600, 6_000] {
                let mut external = RTree::bulk_load_external_on(
                    config(),
                    IoStats::new(),
                    counted(&pts),
                    DEFAULT_FILL,
                    storage,
                    run_capacity,
                );
                assert_trees_identical(&mut expected, &mut external);
            }
        }
    }
}
