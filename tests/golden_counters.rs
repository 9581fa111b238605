//! Golden work counters: every deterministic quantity the public API
//! exposes for a fixed set of small seeded runs, compared line by line with
//! `tests/golden/counters.txt`.
//!
//! A change that claims to preserve every decision — which pages are read
//! and in what order, which cells are computed or reused, which pairs are
//! reported and in what order — keeps this file byte-identical. A change
//! that moves a line on purpose rewrites the file in the same diff with
//!
//! ```text
//! cargo test --test golden_counters -- --ignored bless
//! ```
//!
//! and names each moved line in its change notes.
//!
//! Every case pins its whole configuration — storage backend, execution
//! mode, worker count, buffer size, cache capacity — and the workspace
//! reads no environment variable, so nothing outside the file can move a
//! line. Only
//! quantities that repeat exactly are recorded: counts, byte totals, and an
//! order-sensitive FNV-1a hash of each emitted sequence (pairs, tuples with
//! their region vertices' bits and without them, progress samples,
//! watermarks, k-NN answers, the LRU buffers' final most-recent-first
//! order). Quantities a worker pool's schedule can move — unmetered
//! cold-peek bytes, residency peaks — are recorded for one-worker runs only.

use cij::core::{CellCounts, ProgressSample};
use cij::pagestore::IoSnapshot;
use cij::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Display;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/counters.txt");

#[test]
fn work_counters_match_the_golden_file() {
    let actual = golden_table();
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual == expected {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut diff = String::new();
    for line in old.iter().filter(|l| !new.contains(l)) {
        diff += &format!("- {line}\n");
    }
    for line in new.iter().filter(|l| !old.contains(l)) {
        diff += &format!("+ {line}\n");
    }
    panic!(
        "work counters moved (- golden, + this build); if intended, rerun with \
         `cargo test --test golden_counters -- --ignored bless`:\n{diff}"
    );
}

#[test]
#[ignore = "rewrites tests/golden/counters.txt"]
fn bless() {
    std::fs::write(GOLDEN, golden_table()).expect("write the golden file");
}

/// The sorted `case.metric = value` lines of every case.
fn golden_table() -> String {
    let mut t = Table::default();
    let p = uniform_points(400, &Rect::DOMAIN, 2_601);
    let q = clustered(400, 2_602);
    for (case, config) in [
        ("nm_metered_w1_tight", tight(base())),
        ("nm_metered_w3_tight", tight(base()).with_worker_threads(3)),
        ("nm_metered_w1_default", base()),
        ("nm_metered_w3_default", base().with_worker_threads(3)),
        ("nm_fast_w1", base().with_exec_mode(ExecMode::Fast)),
    ] {
        join_case(&mut t, case, &p, &q, &config, Algorithm::NmCij);
    }
    join_case(&mut t, "fm", &p, &q, &base(), Algorithm::FmCij);
    join_case(&mut t, "pm", &p, &q, &base(), Algorithm::PmCij);
    // P joined with itself: every pair off the diagonal is two cells that
    // only touch, so the touching-cells tolerance decides each of them.
    let s = uniform_points(300, &Rect::DOMAIN, 2_603);
    join_case(&mut t, "nm_self_join", &s, &s, &base(), Algorithm::NmCij);

    let sets = vec![
        uniform_points(250, &Rect::DOMAIN, 2_604),
        clustered(250, 2_605),
        uniform_points(200, &Rect::DOMAIN, 2_606),
    ];
    multiway_case(&mut t, &sets, &tight(base()));

    let locations = uniform_points(2_000, &Rect::DOMAIN, 2_607);
    let counts = QueryEngine::new(base()).grouped_nn(&p, &q, &locations);
    let mut groups: Vec<_> = counts.into_iter().collect();
    groups.sort_unstable();
    let located: u64 = groups.iter().map(|g| g.1).sum();
    t.put("grouped_nn", "groups", groups.len());
    t.put("grouped_nn", "located", located);
    let words = groups.iter().flat_map(|&((a, b), n)| [a, b, n]);
    t.put("grouped_nn", "counts_hash", hash(words));

    index_case(&mut t);
    index_wide_k_case(&mut t);
    served_join_case(&mut t, &[p, q], &base());
    t.render()
}

/// Small pages (about twenty points per leaf), every knob stated.
fn base() -> CijConfig {
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
        .with_storage_backend(StorageBackend::Heap)
        .with_exec_mode(ExecMode::Metered)
        .with_worker_threads(1)
        .with_buffer_fraction(0.02)
        .with_min_buffer_pages(40)
        .with_cell_cache_capacity(1024)
}

/// A 4-page buffer per tree, far below either tree, and a 48-cell reuse
/// buffer, far below either set: every change in the order of counted
/// reads moves a physical read, every change in cache policy a computed
/// cell.
fn tight(config: CijConfig) -> CijConfig {
    config
        .with_buffer_fraction(0.0)
        .with_min_buffer_pages(4)
        .with_cell_cache_capacity(48)
}

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    let spec = ClusterSpec {
        n,
        clusters: 5,
        sigma_fraction: 0.03,
        background_fraction: 0.15,
        size_skew: 0.8,
    };
    clustered_points(&spec, &Rect::DOMAIN, seed)
}

fn join_case(t: &mut Table, case: &str, p: &[Point], q: &[Point], c: &CijConfig, alg: Algorithm) {
    let mut w = Workload::build(p, q, c);
    let out = QueryEngine::new(*c).run(&mut w, alg);
    t.put(case, "pairs", out.pairs.len());
    t.put(case, "pairs_hash", pairs_hash(&out.pairs));
    t.put(case, "page_accesses", out.page_accesses());
    t.io(case, "mat_io", &out.profile.mat_io);
    t.io(case, "join_io", &out.profile.join_io);
    t.samples(case, &out.progress, &out.watermarks);
    let work = &out.profile.work;
    let ([p_cells, q_cells], filter) = ([work.cells[0], work.cells[1]], &work.filter);
    for (metric, value) in [
        ("filter_calls", work.filter_calls),
        ("filter_candidates", work.filter_candidates),
        ("filter_true_hits", work.true_hits),
        ("p_cells_computed", p_cells.computed),
        ("p_cells_reused", p_cells.reused),
        ("q_cells_computed", q_cells.computed),
        ("cell_cache_evictions", p_cells.evicted),
        ("filter_points_examined", filter.points_examined),
        ("filter_entries_pruned", filter.entries_pruned),
        ("filter_clip_ops", filter.clip_ops),
        ("filter_clip_attempts", filter.clip_attempts),
        ("filter_poly_tests_skipped", filter.poly_tests_skipped),
    ] {
        t.put(case, &format!("nm.{metric}"), value);
    }
    t.tree(case, "rp", &w.rp, c.effective_worker_threads() == 1);
    t.tree(case, "rq", &w.rq, c.effective_worker_threads() == 1);
}

fn multiway_case(t: &mut Table, sets: &[Vec<Point>], config: &CijConfig) {
    let case = "multiway_3";
    let engine = QueryEngine::new(*config);
    let mut w = engine.multiway_workload(sets);
    let out = engine.multiway_stream(&mut w).try_into_outcome().unwrap();
    t.put(case, "tuples", out.tuples.len());
    let words = out.tuples.iter().flat_map(|tuple| {
        let corners = tuple.region.vertices().iter();
        let bits = corners.flat_map(|v| [v.x.to_bits(), v.y.to_bits()]);
        tuple.ids.iter().copied().chain(bits)
    });
    t.put(case, "tuples_hash", hash(words));
    // The ids alone, in emission order: what the join decides, without the
    // region vertices' last bits.
    let ids = out
        .tuples
        .iter()
        .flat_map(|tuple| tuple.ids.iter().copied());
    t.put(case, "tuple_ids_hash", hash(ids));
    t.put(case, "page_accesses", out.profile.page_accesses());
    t.put(case, "driver", out.driver);
    t.samples(case, &out.progress, &out.watermarks);
    let (work, filter) = (&out.profile.work, &out.profile.work.filter);
    let list = |count: fn(&CellCounts) -> u64| {
        let counts = work.cells.iter().map(|c| count(c).to_string());
        counts.collect::<Vec<_>>().join(",")
    };
    t.put(case, "cells_computed", list(|c| c.computed));
    t.put(case, "cells_reused", list(|c| c.reused));
    t.put(case, "cell_cache_evictions", list(|c| c.evicted));
    for (metric, value) in [
        ("filter_probes", work.filter_calls),
        ("filter_candidates", work.filter_candidates),
        ("filter_points_examined", filter.points_examined),
        ("filter_entries_pruned", filter.entries_pruned),
        ("filter_clip_ops", filter.clip_ops),
        ("filter_clip_attempts", filter.clip_attempts),
        ("filter_poly_tests_skipped", filter.poly_tests_skipped),
        ("narrowings_skipped", work.narrowings_skipped),
        ("tuples_produced", work.rows),
    ] {
        t.put(case, metric, value);
    }
    t.io(case, "io", &w.stats.snapshot());
    for (i, tree) in w.trees.iter().enumerate() {
        t.tree(case, &format!("tree{i}"), tree, true);
    }
}

/// 8-NN probes and windows on a file-backed lattice tree through a ⅛
/// buffer, probed at lattice points and cell centres: nearly every answer
/// and node key ties, so the order among equal keys shows.
fn index_case(t: &mut Table) {
    let case = "index_file";
    let (mut tree, probes) = lattice_index();
    let built = tree.backend_io();
    let knn = probes.iter().flat_map(|q| tree.k_nearest(*q, 8));
    let knn: Vec<u64> = knn.flat_map(|(d, o)| [d.to_bits(), o.id.0]).collect();
    t.put(case, "knn_hash", hash(knn));
    t.io(case, "knn_io", &tree.stats().snapshot());
    tree.stats().reset();
    let windows = probes
        .iter()
        .map(|c| Rect::from_coords(c.x, c.y, c.x + 700.0, c.y + 400.0));
    let found: Vec<u64> = windows
        .flat_map(|r| tree.range_query(&r))
        .map(|o| o.id.0)
        .collect();
    t.put(case, "range_found", found.len());
    t.put(case, "range_hash", hash(found));
    t.io(case, "range_io", &tree.stats().snapshot());
    let io = tree.backend_io().since(&built);
    t.put(case, "bytes_read", io.bytes_read);
    t.put(case, "bytes_written", io.bytes_written);
    t.put(case, "buffer_mru_hash", mru_hash(&tree));
}

/// The same tree and probes at `k` wider than a leaf: 1, one more than a
/// leaf's 20 points, and three leaves' worth, in turn. At the two wide
/// ones the first leaf read holds fewer than `k` objects, so the walk goes
/// on with nothing yet to bound it.
fn index_wide_k_case(t: &mut Table) {
    let case = "index_wide_k";
    let (mut tree, probes) = lattice_index();
    let built = tree.backend_io();
    let widths = [1, 21, 60].into_iter().cycle();
    let knn = probes
        .iter()
        .zip(widths)
        .flat_map(|(q, k)| tree.k_nearest(*q, k));
    let knn: Vec<u64> = knn.flat_map(|(d, o)| [d.to_bits(), o.id.0]).collect();
    t.put(case, "knn_answers", knn.len() / 2);
    t.put(case, "knn_hash", hash(knn));
    t.io(case, "knn_io", &tree.stats().snapshot());
    let io = tree.backend_io().since(&built);
    t.put(case, "bytes_read", io.bytes_read);
    t.put(case, "buffer_mru_hash", mru_hash(&tree));
}

/// A 30 × 30 lattice on the file backend, 512-byte pages (20 points a
/// leaf), a ⅛ buffer and counters reset — and 100 probes at lattice points
/// and cell centres.
fn lattice_index() -> (RTree<PointObject>, Vec<Point>) {
    let lattice: Vec<Point> = (0..30 * 30)
        .map(|i| {
            Point::new(
                200.0 + (i / 30) as f64 * 300.0,
                200.0 + (i % 30) as f64 * 300.0,
            )
        })
        .collect();
    let config = RTreeConfig {
        page_size: 512,
        max_entries: 64,
    };
    let objects = PointObject::from_points(&lattice);
    let mut tree =
        RTree::bulk_load_with_stats_on(config, IoStats::new(), objects, 1.0, StorageBackend::File);
    tree.set_buffer_pages(tree.num_pages() / 8);
    tree.flush();
    tree.stats().reset();
    let probes: Vec<Point> = (0..100u32)
        .map(|i| {
            let half = f64::from(i % 2) * 150.0;
            let (x, y) = (f64::from(i * 7 % 30), f64::from(i * 13 % 30));
            Point::new(200.0 + x * 300.0 + half, 200.0 + y * 300.0 + half)
        })
        .collect();
    (tree, probes)
}

fn served_join_case(t: &mut Table, sets: &[Vec<Point>], config: &CijConfig) {
    let case = "served_join";
    let service = QueryEngine::new(*config).serve(
        sets,
        ServiceConfig {
            queue_depth: 4,
            workers: 1,
            cache_budget_cells: 4096,
            query_cache_quota: 512,
        },
    );
    let handle = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
    let mut batches = 0;
    let mut pairs = Vec::new();
    while let Some(batch) = handle.next_batch() {
        batches += 1;
        match batch {
            Batch::Pairs(batch) => pairs.extend(batch),
            other => panic!("a join streams pairs only, got {other:?}"),
        }
    }
    let done = handle.completion();
    service.shutdown();
    t.put(case, "batches", batches);
    t.put(case, "pairs", pairs.len());
    t.put(case, "pairs_hash", pairs_hash(&pairs));
    t.put(case, "rows", done.rows);
    t.put(case, "page_accesses", done.page_accesses);
    t.put(case, "watermarks", done.watermarks);
    t.put(case, "failed", done.failed);
}

/// `case.metric → value`, rendered sorted.
#[derive(Default)]
struct Table(BTreeMap<String, String>);

impl Table {
    fn put(&mut self, case: &str, metric: &str, value: impl Display) {
        let old = self.0.insert(format!("{case}.{metric}"), value.to_string());
        assert!(old.is_none(), "{case}.{metric} recorded twice");
    }

    fn io(&mut self, case: &str, what: &str, io: &IoSnapshot) {
        for (metric, value) in [
            ("physical_reads", io.physical_reads),
            ("physical_writes", io.physical_writes),
            ("logical_reads", io.logical_reads),
            ("logical_writes", io.logical_writes),
            ("buffer_hits", io.buffer_hits),
        ] {
            self.put(case, &format!("{what}.{metric}"), value);
        }
    }

    fn samples(&mut self, case: &str, progress: &[ProgressSample], marks: &[LeafWatermark]) {
        self.put(case, "progress", progress.len());
        let words = progress.iter().flat_map(|s| [s.page_accesses, s.pairs]);
        self.put(case, "progress_hash", hash(words));
        self.put(case, "watermarks", marks.len());
        let words = marks
            .iter()
            .flat_map(|m| [m.leaf_index as u64, m.rows, m.page_accesses]);
        self.put(case, "watermarks_hash", hash(words));
    }

    /// One input tree's transfers and final buffer order; the unmetered
    /// cold-peek bytes and residency peak only when `one_worker` (a pool's
    /// schedule decides which pins overlap).
    fn tree(&mut self, case: &str, name: &str, tree: &RTree<PointObject>, one_worker: bool) {
        let io = tree.backend_io();
        self.put(case, &format!("{name}.bytes_read"), io.bytes_read);
        self.put(case, &format!("{name}.bytes_written"), io.bytes_written);
        self.put(case, &format!("{name}.buffer_mru_hash"), mru_hash(tree));
        if one_worker {
            let unmetered = io.unmetered_bytes_read;
            self.put(case, &format!("{name}.unmetered_bytes_read"), unmetered);
            let peak = tree.peak_resident_pages();
            self.put(case, &format!("{name}.peak_resident_pages"), peak);
        }
    }

    fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} = {v}\n")).collect()
    }
}

fn pairs_hash(pairs: &[(u64, u64)]) -> String {
    hash(pairs.iter().flat_map(|&(p, q)| [p, q]))
}

fn mru_hash(tree: &RTree<PointObject>) -> String {
    hash(
        tree.buffered_pages_mru_to_lru()
            .iter()
            .map(|p| u64::from(p.0)),
    )
}

/// 64-bit FNV-1a over the little-endian bytes of `words`: order-sensitive
/// and the same on every platform and toolchain.
fn hash(words: impl IntoIterator<Item = u64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}
