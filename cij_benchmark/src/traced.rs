//! The traced run: per-layer metrics for one workload.
//!
//! Three parts, all observing the product from outside. *(A) Ladder*: the
//! sequential algorithm re-driven by hand with a span around each call into
//! a layer ([`crate::layers`]), checked against the engine's own answer.
//! *(B) Rungs*: unit costs of the storage and geometry layers over the
//! workload's own pages. *(C) Outside deltas*: the untraced op (or its
//! binary-join core) re-run once per cell of a small mode × threads grid,
//! and counter deltas around one untraced op.

use crate::layers::{
    index_ladder, nm_ladder, run_rungs, Rungs, SPAN_ARENA_FILL, SPAN_FILTER, SPAN_INTERSECT,
    SPAN_LADDER, SPAN_LEAF_ORDER, SPAN_NODE_READ, SPAN_P_CELLS, SPAN_Q_CELLS,
};
use crate::metrics::MetricSet;
use crate::run::RunOpts;
use crate::summary::{median, tail_percentile};
use crate::trace::{Layer, Tracer};
use crate::workloads::{
    run_binary, run_multiway, Expected, IndexIoFile, JoinRun, MwClustered, NmUniform, ServeMixed,
    StorageCounters, TINY_SETS,
};
use cij_core::service::Request;
use cij_core::{CijConfig, ExecMode, QueryEngine};
use cij_geom::{Point, Rect};
use cij_pagestore::IoStats;
use cij_rtree::probe;
use std::time::{Duration, Instant};

/// A workload that can produce its per-layer metrics.
pub trait Traced {
    /// Fills `m` with every per-layer metric this workload exercises and
    /// returns how many ops the traced run attempted. `Err` means an
    /// output differed from its reference.
    fn trace(&mut self, m: &mut MetricSet, opts: &RunOpts, tracer: &Tracer) -> Result<u64, String>;
}

fn rung_budget(opts: &RunOpts) -> Duration {
    Duration::from_secs_f64(if opts.quick { 0.05 } else { opts.seconds * 0.2 })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn set_rungs(m: &mut MetricSet, r: &Rungs) {
    m.set("geom.clip_ns", r.clip_ns);
    m.set("geom.clip_calls", r.clip_calls as f64);
    m.set("rtree.decode_ns_per_node", r.decode_ns);
    m.set("rtree.encode_ns_per_node", r.encode_ns);
    m.set("rtree.arena_fill_ns", r.arena_fill_ns);
    m.set("pagestore.checksum_ns_per_page", r.checksum_ns);
    m.set("pagestore.seal_ns_per_page", r.seal_ns);
    m.set("pagestore.backend_read_ns", r.backend_read_ns);
    m.set("pagestore.backend_write_ns", r.backend_write_ns);
    m.set("pagestore.lru_touch_ns", r.lru_touch_ns);
    m.set("pagestore.miss_read_ns", r.miss_read_ns);
    m.set("pagestore.hit_read_ns", r.hit_read_ns);
}

fn set_storage(m: &mut MetricSet, delta: &StorageCounters) {
    m.set("pagestore.physical_reads", delta.io.physical_reads as f64);
    m.set("pagestore.physical_writes", delta.io.physical_writes as f64);
    m.set("pagestore.logical_reads", delta.io.logical_reads as f64);
    m.set("pagestore.buffer_hit_ratio", delta.io.hit_ratio());
    // Every byte the backend moved, metered or not: fast-mode snapshot
    // reads are unmetered but real.
    let b = &delta.backend;
    m.set(
        "pagestore.bytes_read",
        (b.bytes_read + b.unmetered_bytes_read) as f64,
    );
    m.set(
        "pagestore.bytes_written",
        (b.bytes_written + b.unmetered_bytes_written) as f64,
    );
    m.set("pagestore.retries", delta.retries as f64);
    m.set(
        "pagestore.peak_resident_pages",
        delta.peak_resident_pages as f64,
    );
}

/// Parts A–C for a workload whose core is a binary NM-CIJ over `p`, `q`
/// under `config` (the workload's storage, cache quota, mode and threads).
fn trace_join(
    m: &mut MetricSet,
    p: &[Point],
    q: &[Point],
    config: CijConfig,
    opts: &RunOpts,
    tracer: &Tracer,
) -> Result<u64, String> {
    let sequential = config
        .with_exec_mode(ExecMode::Metered)
        .with_worker_threads(1);
    let engine = QueryEngine::new(sequential);
    let mut workload = engine.build_workload(p, q);

    // (A) engine, ladder, engine: the second engine run is compared, so
    // both sides run warm.
    let warm = run_binary(&engine, &mut workload, &Expected::default());
    let expected = Expected::of(&warm);
    let ladder = nm_ladder(&mut workload, &sequential, tracer);
    let reference = run_binary(&engine, &mut workload, &expected);
    if ladder.failed || reference.failed {
        return Err("ladder or engine hit a storage error".into());
    }
    if (ladder.rows, ladder.fingerprint) != (reference.rows, reference.fingerprint) {
        return Err(format!(
            "ladder pair sequence ({} rows) differs from the engine's ({} rows)",
            ladder.rows, reference.rows
        ));
    }
    if ladder.page_accesses != reference.page_accesses {
        return Err(format!(
            "ladder made {} page accesses, the engine {}",
            ladder.page_accesses, reference.page_accesses
        ));
    }

    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let c = &ladder.counts;
    let (q_cells, p_cells) = (layer(SPAN_Q_CELLS), layer(SPAN_P_CELLS));
    m.set("geom.intersect_s", layer(SPAN_INTERSECT).self_s());
    m.set("geom.intersect_tests", c.intersect_tests as f64);
    m.set(
        "geom.intersect_hit_ratio",
        ratio(c.intersect_hits as f64, c.intersect_tests as f64),
    );
    m.set("voronoi.q_cells_s", q_cells.self_s());
    m.set("voronoi.q_cells", c.q_cells as f64);
    m.set("voronoi.p_cells_s", p_cells.self_s());
    m.set("voronoi.p_cells_computed", c.cache_misses as f64);
    m.set(
        "voronoi.cell_ns",
        ratio(
            (q_cells.self_ns + p_cells.self_ns) as f64,
            (c.q_cells + c.cache_misses) as f64,
        ),
    );
    m.set("core.filter.busy_s", layer(SPAN_FILTER).self_s());
    m.set("core.filter.calls", c.filter_calls as f64);
    m.set("core.filter.clip_ops", c.filter.clip_ops as f64);
    m.set(
        "core.filter.points_examined",
        c.filter.points_examined as f64,
    );
    m.set("core.filter.entries_pruned", c.filter.entries_pruned as f64);
    m.set("core.filter.candidates", c.candidates as f64);
    m.set(
        "core.filter.true_hit_ratio",
        ratio(c.true_hits as f64, c.candidates as f64),
    );
    m.set(
        "core.cell_cache.hit_ratio",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
    );
    m.set("core.cell_cache.evictions", c.cache_evictions as f64);
    set_ladder_shares(
        m,
        &layers,
        &[SPAN_NODE_READ, SPAN_ARENA_FILL, SPAN_LEAF_ORDER],
    );
    m.set("rtree.arena_fill_s", layer(SPAN_ARENA_FILL).self_s());
    m.set("rtree.leaf_order_s", layer(SPAN_LEAF_ORDER).self_s());
    m.set(
        "trace.ladder_over_engine",
        ratio(ladder.wall.as_secs_f64(), reference.wall.as_secs_f64()),
    );

    // (B) over the P tree: the one the filter and the refinement read.
    let rungs = run_rungs(
        &workload.rp,
        &ladder.rp_pages,
        &config.domain,
        rung_budget(opts),
    );
    set_rungs(m, &rungs);

    // (C) the same join at {metered, fast} × {1, 2 threads}.
    let mut cell = |mode: ExecMode, threads: usize| -> Result<JoinRun, String> {
        let engine = QueryEngine::new(config.with_exec_mode(mode).with_worker_threads(threads));
        let run = run_binary(&engine, &mut workload, &expected);
        if run.failed || (run.rows, run.fingerprint) != (reference.rows, reference.fingerprint) {
            return Err(format!(
                "{} × {threads} threads changed the pairs",
                mode.name()
            ));
        }
        Ok(run)
    };
    let (records, replays) = (probe::trace_records(), probe::replays());
    let metered_2 = cell(ExecMode::Metered, 2)?;
    m.set(
        "core.pipeline.trace_records",
        (probe::trace_records() - records) as f64,
    );
    m.set("core.pipeline.replays", (probe::replays() - replays) as f64);
    let fast_1 = cell(ExecMode::Fast, 1)?;
    let fast_2 = cell(ExecMode::Fast, 2)?;
    let secs = |run: &JoinRun| run.wall.as_secs_f64();
    let (own_1, own_2) = match config.exec_mode {
        ExecMode::Metered => (&reference, &metered_2),
        ExecMode::Fast => (&fast_1, &fast_2),
    };
    m.set(
        "core.pipeline.metered_over_fast",
        ratio(secs(&reference), secs(&fast_1)),
    );
    m.set("core.pipeline.t2_speedup", ratio(secs(own_1), secs(own_2)));
    m.set("core.pipeline.first_row_s", own_1.first_row.as_secs_f64());
    // What the workload's own execution mode costs beyond the plain
    // sequential algorithm, at one thread (about −tracing cost when the
    // mode *is* the sequential one).
    m.set(
        "core.pipeline.overhead_s",
        secs(own_1) - ladder.wall.as_secs_f64(),
    );
    // Warm-up, ladder, reference and the three other grid cells.
    Ok(6)
}

/// `rtree.node_reads`, `rtree.node_read_s`, the storage layers' share of
/// the ladder's wall and how much of that wall named spans cover.
fn set_ladder_shares(
    m: &mut MetricSet,
    layers: &std::collections::BTreeMap<&'static str, Layer>,
    storage_spans: &[&str],
) {
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let ladder = layer(SPAN_LADDER);
    let storage_ns: u64 = storage_spans.iter().map(|s| layer(s).self_ns).sum();
    m.set("rtree.node_reads", layer(SPAN_NODE_READ).calls as f64);
    m.set("rtree.node_read_s", layer(SPAN_NODE_READ).self_s());
    m.set(
        "layers.storage_share",
        ratio(storage_ns as f64, ladder.total_ns as f64),
    );
    m.set(
        "trace.span_coverage",
        1.0 - ratio(ladder.self_ns as f64, ladder.total_ns as f64),
    );
}

/// Counter deltas around one untraced op.
fn around_op<R>(m: &mut MetricSet, ops: u64, op: impl FnOnce() -> R) -> R {
    let allocs = cij_bench::allocations();
    let out = op();
    m.set(
        "core.pipeline.allocs_per_op",
        (cij_bench::allocations() - allocs) as f64 / ops as f64,
    );
    out
}

impl Traced for NmUniform {
    fn trace(&mut self, m: &mut MetricSet, opts: &RunOpts, tracer: &Tracer) -> Result<u64, String> {
        let ops = trace_join(m, &self.p, &self.q, *self.engine.config(), opts, tracer)?;
        for tree in [&mut self.workload.rp, &mut self.workload.rq] {
            tree.reset_residency_peaks();
        }
        let trees = |w: &cij_core::Workload| StorageCounters::of([&w.rp, &w.rq]);
        // The op zeroes the shared counters when it starts; zero them
        // before the first reading too, so the delta is the op's own.
        self.workload.reset_measurement();
        let before = trees(&self.workload);
        let run = around_op(m, 1, || {
            run_binary(&self.engine, &mut self.workload, &self.expected)
        });
        set_storage(m, &trees(&self.workload).since(&before));
        m.set("core.pipeline.watermarks", run.watermarks as f64);
        m.set("core.pipeline.first_row_s", run.first_row.as_secs_f64());
        Ok(ops + 1)
    }
}

impl Traced for MwClustered {
    fn trace(&mut self, m: &mut MetricSet, opts: &RunOpts, tracer: &Tracer) -> Result<u64, String> {
        let config = *self.engine.config();
        let ops = trace_join(m, &self.sets[0], &self.sets[1], config, opts, tracer)?;
        for tree in &mut self.workload.trees {
            tree.reset_residency_peaks();
        }
        self.workload.reset_measurement();
        let before = StorageCounters::of(&self.workload.trees);
        let run = around_op(m, 1, || {
            run_multiway(&self.engine, &mut self.workload, &self.expected)
        });
        set_storage(m, &StorageCounters::of(&self.workload.trees).since(&before));
        m.set("core.pipeline.watermarks", run.watermarks as f64);
        m.set("core.pipeline.first_row_s", run.first_row.as_secs_f64());
        Ok(ops + 1)
    }
}

impl Traced for ServeMixed {
    fn trace(&mut self, m: &mut MetricSet, opts: &RunOpts, tracer: &Tracer) -> Result<u64, String> {
        // The ladder runs the join of the cycle's first request the way a
        // worker does: fast mode, one thread, the per-query cache quota.
        let quota = crate::workloads::serve_config().query_cache_quota;
        let config = self.engine.config().with_cell_cache_capacity(quota);
        let mut ops = trace_join(m, &self.sets[0], &self.sets[1], config, opts, tracer)?;

        let snapshot = std::sync::Arc::clone(self.service.snapshot());
        let trees = || StorageCounters::of((0..snapshot.k()).map(|i| snapshot.tree(i)));
        let before = trees();
        let cycle = self.cycle.len();
        let served = around_op(m, cycle as u64, || {
            (0..cycle)
                .map(|slot| self.request(slot))
                .collect::<Vec<_>>()
        });
        set_storage(m, &trees().since(&before));
        if served.iter().any(|s| !s.sample.ok) {
            return Err("a served request differed from its reference".into());
        }
        m.set(
            "core.pipeline.watermarks",
            served.iter().map(|s| s.watermarks as f64).sum::<f64>() / cycle as f64,
        );
        ops += cycle as u64;

        // The service's fixed cost: a join of two 8-point sets.
        let tiny = Request::Join {
            p: TINY_SETS.0,
            q: TINY_SETS.1,
        };
        let round_trips: Vec<f64> = (0..if opts.quick { 20 } else { 400 })
            .map(|_| {
                let t = Instant::now();
                let handle = self.service.submit(tiny.clone()).expect("idle service");
                handle.completion();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        m.set("core.service.roundtrip_ns", median(&round_trips));

        // The service tax: one join through the idle service over the same
        // join through the engine.
        let repeats = if opts.quick { 2 } else { 7 };
        let solo: Vec<f64> = (0..repeats)
            .map(|_| self.request(0).sample.wall_s)
            .collect();
        let mut direct_workload = self.engine.build_workload(&self.sets[0], &self.sets[1]);
        let direct: Vec<f64> = (0..repeats)
            .map(|_| {
                run_binary(&self.engine, &mut direct_workload, &self.expected[0].0)
                    .wall
                    .as_secs_f64()
            })
            .collect();
        m.set(
            "core.service.solo_over_direct",
            ratio(median(&solo), median(&direct)),
        );

        // Contention: the mix at one client and at two, on a service with
        // two workers. The two-client leg is the long one: its p95 needs
        // 200 requests behind it.
        let (seconds, min_ops) = if opts.quick {
            (0.0, cycle)
        } else {
            (opts.seconds * 0.15, cycle)
        };
        let mean = |samples: &[crate::workloads::OpSample]| {
            samples.iter().map(|s| s.wall_s).sum::<f64>() / samples.len() as f64
        };
        let contended = self.contended_service();
        let (one, _) = self.run_clients(&contended, 1, seconds, min_ops);
        let (two, served) = self.run_clients(&contended, 2, seconds * 5.0, 2 * min_ops);
        if one.samples.iter().chain(&two.samples).any(|s| !s.ok) {
            return Err("a served request differed from its reference under load".into());
        }
        ops += (one.samples.len() + two.samples.len()) as u64;
        m.set(
            "core.service.c2_over_c1",
            ratio(mean(&two.samples), mean(&one.samples)),
        );
        let walls: Vec<f64> = two.samples.iter().map(|s| s.wall_s).collect();
        m.set(
            "core.service.op_p95_s",
            tail_percentile(&walls, 0.95).unwrap_or(0.0),
        );
        m.set(
            "core.service.batches_per_op",
            served.iter().map(|s| s.batches as f64).sum::<f64>() / served.len() as f64,
        );
        m.set(
            "core.service.queue_full_rejects",
            served.iter().filter(|s| s.refused).count() as f64,
        );
        m.set(
            "core.service.budget_high_water",
            contended.budget().high_water() as f64,
        );
        Ok(ops)
    }
}

impl Traced for IndexIoFile {
    fn trace(&mut self, m: &mut MetricSet, opts: &RunOpts, tracer: &Tracer) -> Result<u64, String> {
        // (C) one untraced op: phase times and whole-op storage counters.
        let run = around_op(m, 1, || self.run());
        if run.answers != self.reference || !run.bytes_match_reads {
            return Err("file-backed answers differ from the heap reference".into());
        }
        let queries = self.windows.len() as f64;
        m.set("rtree.bulk_load_s", run.build.as_secs_f64());
        m.set("rtree.scan_s", run.scan.as_secs_f64());
        m.set(
            "rtree.range_query_ns",
            run.range.as_nanos() as f64 / queries,
        );
        m.set("rtree.knn_ns", run.knn.as_nanos() as f64 / queries);
        set_storage(m, &run.storage);

        // (A) the read path by hand: scan and windows, node by node,
        // against the product's own scan and windows on a twin tree.
        let mut twin = self.cold_tree(IoStats::new());
        let start = Instant::now();
        let scanned = twin.scan_all().len();
        let hits: u64 = self
            .windows
            .iter()
            .map(|w| twin.range_query(w).len() as u64)
            .sum();
        let engine_wall = start.elapsed();
        let engine_reads = twin.stats().snapshot().physical_reads;
        drop(twin);
        let mut tree = self.cold_tree(IoStats::new());
        let ladder = index_ladder(&mut tree, &self.windows, tracer);
        if ladder.failed
            || (ladder.scanned, ladder.range_hits) != (scanned, hits)
            || hits != self.reference.range_hits
        {
            return Err("index ladder answers differ from the product's".into());
        }
        if ladder.physical_reads != engine_reads {
            return Err(format!(
                "index ladder made {} physical reads, the product {engine_reads}",
                ladder.physical_reads
            ));
        }
        set_ladder_shares(m, &tracer.layers(), &[SPAN_NODE_READ]);
        m.set(
            "trace.ladder_over_engine",
            ratio(ladder.wall.as_secs_f64(), engine_wall.as_secs_f64()),
        );

        // (B) over the file-backed tree's own pages.
        let rungs = run_rungs(&tree, &ladder.pages, &Rect::DOMAIN, rung_budget(opts));
        set_rungs(m, &rungs);
        Ok(3)
    }
}
