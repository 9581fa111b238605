//! The product-API adapter of the traced run: every call the ladder and the
//! rungs make into a product crate is in this file, and each uses the most
//! general form of its API (`try_read_node` / `try_visit_node`,
//! `batch_voronoi_cached_with` — with `NoCache` where no cache is wanted —
//! `batch_conditional_filter_scratch`, `StorageBackend::create`). When the
//! product collapses twin entry points or retires a baseline, this is the
//! one file of the benchmark that needs a (mechanical) touch.
//!
//! *Ladder* (part A): Algorithm 6 re-driven by hand over two trees, one span
//! per call into a layer, with both trees wrapped in a [`TimedReader`] that
//! times every node read. *Rungs* (part B): isolated loops over the
//! workload's own pages and cells, for unit costs.

use crate::summary::{median, Fingerprint};
use crate::trace::Tracer;
use cij_core::{
    batch_conditional_filter_scratch, CellCache, CijConfig, FilterOptions, FilterScratch,
    FilterStats, Workload,
};
use cij_geom::{ClipScratch, ConvexPolygon, Rect};
use cij_pagestore::frame::{seal_frame, verify_frame};
use cij_pagestore::{
    IoClass, IoStats, LruBuffer, PageId, PageIoError, PagePayload, PageStore, PageStoreConfig,
    FRAME_TRAILER_BYTES,
};
use cij_rtree::{Node, NodeArena, NodeReader, PointObject, RTree, RTreeObject};
use cij_voronoi::{batch_voronoi_cached_with, NoCache, VorScratch};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

// Span names. A span is charged to the layer its name starts with.
pub const SPAN_LEAF_ORDER: &str = "rtree.leaf_order";
pub const SPAN_NODE_READ: &str = "rtree.node_read";
pub const SPAN_ARENA_FILL: &str = "rtree.arena_fill";
pub const SPAN_Q_CELLS: &str = "voronoi.q_cells";
pub const SPAN_P_CELLS: &str = "voronoi.p_cells";
pub const SPAN_FILTER: &str = "core.filter";
pub const SPAN_INTERSECT: &str = "geom.intersect";
pub const SPAN_SCAN: &str = "rtree.scan";
pub const SPAN_RANGE: &str = "rtree.range_query";
/// The benchmark's own glue around the layer calls of one op.
pub const SPAN_LADDER: &str = "ladder";

/// A `NodeReader` that times every counted read of the tree it wraps, from
/// the outside: one `rtree.node_read` span per `read`/`visit`, with the
/// visit callback (the arena fill) as a child span. Accounting is the
/// wrapped tree's own — buffer, counters and bytes move exactly as in an
/// engine run.
pub struct TimedReader<'a> {
    tree: &'a mut RTree<PointObject>,
    tracer: &'a Tracer,
    error: Option<PageIoError>,
    /// Page ids in access order (replayed by the LRU rung).
    pub pages: Vec<u64>,
}

impl<'a> TimedReader<'a> {
    pub fn new(tree: &'a mut RTree<PointObject>, tracer: &'a Tracer) -> Self {
        TimedReader {
            tree,
            tracer,
            error: None,
            pages: Vec::new(),
        }
    }
}

impl NodeReader<PointObject> for TimedReader<'_> {
    fn root_page(&self) -> PageId {
        self.tree.root_page()
    }

    fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn read(&mut self, page: PageId) -> Node<PointObject> {
        self.pages.push(page.0 as u64);
        let open = self.tracer.enter(SPAN_NODE_READ);
        let node = self.tree.try_read_node(page);
        self.tracer.exit(open);
        node.unwrap_or_else(|e| {
            self.error.get_or_insert(e);
            Node::new_leaf()
        })
    }

    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<PointObject>)) {
        self.pages.push(page.0 as u64);
        let tracer = self.tracer;
        let open = tracer.enter(SPAN_NODE_READ);
        let visited = self
            .tree
            .try_visit_node(page, &mut |node| tracer.span(SPAN_ARENA_FILL, || f(node)));
        tracer.exit(open);
        if let Err(e) = visited {
            self.error.get_or_insert(e);
            f(&Node::new_leaf());
        }
    }

    fn take_error(&mut self) -> Option<PageIoError> {
        self.error.take()
    }
}

/// What the ladder counted on its way.
#[derive(Debug, Clone, Default)]
pub struct LadderCounts {
    pub q_cells: u64,
    pub filter_calls: u64,
    pub filter: FilterStats,
    pub candidates: u64,
    pub true_hits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub intersect_tests: u64,
    pub intersect_hits: u64,
}

#[derive(Debug, Clone)]
pub struct LadderOutcome {
    pub wall: Duration,
    pub rows: u64,
    pub fingerprint: Fingerprint,
    pub page_accesses: u64,
    pub counts: LadderCounts,
    /// Page-access order of the `P` tree (filter + refinement side).
    pub rp_pages: Vec<u64>,
    pub failed: bool,
}

/// Re-drives NM-CIJ (Algorithm 6) by hand over `workload`, sequentially
/// and through the counted buffers — the same calls, in the same order, as
/// the engine's metered single-thread path — so its pair sequence and
/// page-access count must equal the engine's.
pub fn nm_ladder(workload: &mut Workload, config: &CijConfig, tracer: &Tracer) -> LadderOutcome {
    workload.reset_measurement();
    let domain = config.domain;
    let layout = config.leaf_layout;
    let budget = workload.rp.config().node_byte_budget();
    let options = FilterOptions::for_kernel(config.filter_kernel).with_layout(layout);
    let capacity = if config.reuse_cells {
        config.cell_cache_capacity
    } else {
        0
    };
    let mut cache = CellCache::with_stats(capacity, workload.stats.clone());
    let mut vor = VorScratch::for_budget(budget);
    let mut filter = FilterScratch::for_budget(budget);
    let mut counts = LadderCounts::default();
    let mut fingerprint = Fingerprint::default();
    let mut rows = 0u64;
    let mut true_hits: HashSet<u64> = HashSet::new();

    tracer.begin_op();
    let start = Instant::now();
    let ladder = tracer.enter(SPAN_LADDER);
    // The leaf-order walk reads non-leaf nodes inside the tree; it can only
    // be timed as a whole.
    let leaves = tracer.span(SPAN_LEAF_ORDER, || {
        workload.rq.leaf_pages_hilbert_order(&domain)
    });
    let mut rq = TimedReader::new(&mut workload.rq, tracer);
    let mut rp = TimedReader::new(&mut workload.rp, tracer);
    for leaf in leaves {
        let group = rq.read(leaf).objects;
        if group.is_empty() {
            continue;
        }
        let cells_q = tracer.span(SPAN_Q_CELLS, || {
            batch_voronoi_cached_with(&mut rq, &group, &domain, &mut NoCache, layout, &mut vor)
        });
        let (candidates, fstats) = tracer.span(SPAN_FILTER, || {
            batch_conditional_filter_scratch(&mut rp, &cells_q, &domain, &options, &mut filter)
        });
        let cells_p = tracer.span(SPAN_P_CELLS, || {
            batch_voronoi_cached_with(&mut rp, &candidates, &domain, &mut cache, layout, &mut vor)
        });
        true_hits.clear();
        tracer.span(SPAN_INTERSECT, || {
            for (q_obj, q_cell) in group.iter().zip(&cells_q) {
                let q_bbox = q_cell.bbox();
                for (p_obj, p_cell) in candidates.iter().zip(&cells_p) {
                    if p_cell.bbox().intersects(&q_bbox) {
                        counts.intersect_tests += 1;
                        if p_cell.intersects(q_cell) {
                            counts.intersect_hits += 1;
                            true_hits.insert(p_obj.id.0);
                            fingerprint.push(p_obj.id.0);
                            fingerprint.push(q_obj.id.0);
                            rows += 1;
                        }
                    }
                }
            }
        });
        counts.q_cells += group.len() as u64;
        counts.filter_calls += 1;
        counts.filter.absorb(&fstats);
        counts.candidates += candidates.len() as u64;
        counts.true_hits += true_hits.len() as u64;
    }
    let failed = rq.take_error().or_else(|| rp.take_error()).is_some();
    let rp_pages = std::mem::take(&mut rp.pages);
    tracer.exit(ladder);
    let wall = start.elapsed();
    counts.cache_hits = cache.hits();
    counts.cache_misses = cache.misses();
    counts.cache_evictions = cache.evictions();
    LadderOutcome {
        wall,
        rows,
        fingerprint,
        page_accesses: workload.stats.snapshot().page_accesses(),
        counts,
        rp_pages,
        failed,
    }
}

#[derive(Debug, Clone)]
pub struct IndexLadderOutcome {
    pub wall: Duration,
    pub scanned: usize,
    pub range_hits: u64,
    pub physical_reads: u64,
    pub pages: Vec<u64>,
    pub failed: bool,
}

/// The index workload's ladder: the scan and the window queries re-driven
/// by hand (the product's depth-first traversal, node by node) so that
/// every node read of the read path is timed from outside.
pub fn index_ladder(
    tree: &mut RTree<PointObject>,
    windows: &[Rect],
    tracer: &Tracer,
) -> IndexLadderOutcome {
    let stats = tree.stats();
    let before = stats.snapshot().physical_reads;
    let everything = Rect::from_coords(
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    );
    tracer.begin_op();
    let start = Instant::now();
    let ladder = tracer.enter(SPAN_LADDER);
    let mut reader = TimedReader::new(tree, tracer);
    let scanned = tracer.span(SPAN_SCAN, || window_hits(&mut reader, &everything)) as usize;
    let range_hits = windows
        .iter()
        .map(|w| tracer.span(SPAN_RANGE, || window_hits(&mut reader, w)))
        .sum();
    let failed = reader.take_error().is_some();
    let pages = std::mem::take(&mut reader.pages);
    tracer.exit(ladder);
    IndexLadderOutcome {
        wall: start.elapsed(),
        scanned,
        range_hits,
        physical_reads: stats.snapshot().physical_reads - before,
        pages,
        failed,
    }
}

fn window_hits(reader: &mut TimedReader<'_>, window: &Rect) -> u64 {
    let mut hits = 0;
    let mut stack = vec![reader.root_page()];
    while let Some(page) = stack.pop() {
        let node = reader.read(page);
        if node.is_leaf() {
            hits += node
                .objects
                .iter()
                .filter(|o| o.mbr().intersects(window))
                .count() as u64;
        } else {
            stack.extend(
                node.children
                    .iter()
                    .filter(|c| c.mbr.intersects(window))
                    .map(|c| c.page),
            );
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// Rungs
// ---------------------------------------------------------------------------

/// Runs `pass` (which returns how many units it processed) at least three
/// times and until `budget` is spent; the median ns per unit over passes.
fn ns_per_unit(budget: Duration, mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let units = pass();
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples)
}

/// Every node of `tree`, breadth-first from the root, through snapshot
/// reads (no counter or buffer of the tree moves).
fn collect_nodes(tree: &RTree<PointObject>) -> Vec<Node<PointObject>> {
    let mut nodes = Vec::new();
    let mut queue = std::collections::VecDeque::from([tree.root_page()]);
    while let Some(page) = queue.pop_front() {
        let node = tree
            .try_peek_node(page)
            .expect("snapshot read of a healthy tree")
            .clone();
        queue.extend(node.children.iter().map(|c| c.page));
        nodes.push(node);
    }
    nodes
}

/// Unit costs of the layers below the join, over one tree's own pages.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rungs {
    pub clip_ns: f64,
    pub clip_calls: u64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub arena_fill_ns: f64,
    pub checksum_ns: f64,
    pub seal_ns: f64,
    pub backend_read_ns: f64,
    pub backend_write_ns: f64,
    pub lru_touch_ns: f64,
    pub miss_read_ns: f64,
    pub hit_read_ns: f64,
}

/// Times each rung over the pages of `tree`, on its backend kind and at
/// its buffer size; `page_trace` is the page ids the ladder touched in it,
/// in order.
pub fn run_rungs(
    tree: &RTree<PointObject>,
    page_trace: &[u64],
    domain: &Rect,
    budget: Duration,
) -> Rungs {
    let nodes = &collect_nodes(tree)[..];
    let page_size = tree.config().page_size;
    let storage = tree.storage_backend();
    let buffer_pages = tree.buffer_pages();
    const RUNGS: u32 = 11;
    let per_rung = budget / RUNGS;
    let mut rungs = Rungs::default();

    // geom: each leaf point's domain rectangle clipped by its leaf siblings
    // — the shape of work the Voronoi and filter kernels hand to cij_geom.
    let leaves: Vec<&Node<PointObject>> = nodes.iter().filter(|n| n.is_leaf()).collect();
    let mut clip = ClipScratch::new();
    let mut clip_calls = 0;
    let seed = ConvexPolygon::from_rect(domain);
    let mut cell = seed.clone();
    rungs.clip_ns = ns_per_unit(per_rung, || {
        let mut calls = 0u64;
        for leaf in &leaves {
            for (i, site) in leaf.objects.iter().enumerate() {
                cell.clone_from(&seed);
                for (j, other) in leaf.objects.iter().enumerate() {
                    if i != j {
                        cell.clip_bisector_in_place(&site.point, &other.point, &mut clip);
                        calls += 1;
                    }
                }
                black_box(&cell);
            }
        }
        clip_calls = calls;
        calls
    });
    rungs.clip_calls = clip_calls;

    // rtree codec and arena.
    let mut buf = Vec::with_capacity(page_size);
    rungs.encode_ns = ns_per_unit(per_rung, || {
        for node in nodes {
            buf.clear();
            node.encode_into(&mut buf);
            black_box(&buf);
        }
        nodes.len() as u64
    });
    let payloads: Vec<usize> = nodes.iter().map(|n| n.encoded_len()).collect();
    let frames: Vec<Vec<u8>> = nodes
        .iter()
        .zip(&payloads)
        .map(|(node, &payload)| {
            assert!(
                payload + FRAME_TRAILER_BYTES <= page_size,
                "node fits a page"
            );
            let mut frame = node.encode();
            frame.resize(page_size, 0);
            seal_frame(&mut frame, payload);
            frame
        })
        .collect();
    rungs.decode_ns = ns_per_unit(per_rung, || {
        for frame in &frames {
            black_box(Node::<PointObject>::decode(frame));
        }
        frames.len() as u64
    });
    let mut arena = NodeArena::for_budget(page_size);
    rungs.arena_fill_ns = ns_per_unit(per_rung, || {
        for node in nodes {
            arena.fill(node);
            black_box(arena.len());
        }
        nodes.len() as u64
    });

    // pagestore::frame — what every cold decode and write-back pays.
    rungs.checksum_ns = ns_per_unit(per_rung, || {
        for frame in &frames {
            black_box(verify_frame(frame).expect("sealed frame verifies"));
        }
        frames.len() as u64
    });
    let mut scratch = frames.clone();
    rungs.seal_ns = ns_per_unit(per_rung, || {
        for (frame, &payload) in scratch.iter_mut().zip(&payloads) {
            seal_frame(frame, payload);
            black_box(&frame);
        }
        scratch.len() as u64
    });

    // pagestore::{backend,mmap} — raw frame transfers of the workload's
    // backend kind over a tree-sized file, unmetered so no counter moves.
    let mut backend = storage.create(page_size);
    let indices: Vec<u32> = frames.iter().map(|_| backend.allocate()).collect();
    rungs.backend_write_ns = ns_per_unit(per_rung, || {
        for (&index, frame) in indices.iter().zip(&frames) {
            backend
                .write(index, frame, IoClass::Unmetered)
                .expect("scratch backend write");
        }
        indices.len() as u64
    });
    // Strided order, so consecutive reads do not touch adjacent frames.
    let stride = (indices.len() / 2 + 1) | 1;
    let mut frame = vec![0u8; page_size];
    rungs.backend_read_ns = ns_per_unit(per_rung, || {
        let mut at = 0;
        for _ in 0..indices.len() {
            at = (at + stride) % indices.len();
            backend
                .read(indices[at], &mut frame, IoClass::Unmetered)
                .expect("scratch backend read");
            black_box(&frame);
        }
        indices.len() as u64
    });
    drop(backend);

    // pagestore::lru — the ladder's page-id order replayed at the
    // workload's buffer size.
    if !page_trace.is_empty() {
        rungs.lru_touch_ns = ns_per_unit(per_rung, || {
            let mut lru = LruBuffer::new(buffer_pages);
            for &page in page_trace {
                black_box(lru.touch(page, false));
            }
            page_trace.len() as u64
        });
    }

    // pagestore::store — a whole counted read, all misses (one-page
    // buffer) and all hits (buffer as large as the tree).
    let mut store: PageStore<Node<PointObject>> = PageStore::with_stats(
        PageStoreConfig::default()
            .with_page_size(page_size)
            .with_backend(storage)
            .without_faults(),
        IoStats::new(),
    );
    let ids: Vec<PageId> = nodes.iter().map(|n| store.allocate(n.clone())).collect();
    let read_all = |store: &mut PageStore<Node<PointObject>>| {
        for &id in &ids {
            let len = store
                .try_read_with(id, |node| node.len())
                .expect("scratch store read");
            black_box(len);
        }
        ids.len() as u64
    };
    store.set_buffer_pages(1);
    rungs.miss_read_ns = ns_per_unit(per_rung, || read_all(&mut store));
    store.set_buffer_pages(ids.len());
    read_all(&mut store);
    rungs.hit_read_ns = ns_per_unit(per_rung, || read_all(&mut store));
    rungs
}
