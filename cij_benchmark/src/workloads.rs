//! The four workloads, end to end.
//!
//! Everything here goes through the product's front doors only —
//! `QueryEngine`, `Workload`, `MultiwayWorkload`, `CijService` and the
//! `RTree` build/query methods — the way a user of the system would. The
//! seed is the only input to data generation; the program under test
//! receives only the generated points. All loops are closed: a client sends
//! its next op only after the previous one completed.

use crate::hostref::HostRef;
use crate::summary::Fingerprint;
use cij_core::service::{Batch, Request, ServiceConfig};
use cij_core::{
    brute_force_cij, Algorithm, CijConfig, CijService, ExecMode, LeafWatermark, MultiwayWorkload,
    QueryEngine, StorageBackend, Workload,
};
use cij_datagen::{clustered_points, uniform_points, ClusterSpec};
use cij_geom::{Point, Rect};
use cij_pagestore::{BackendIo, IoSnapshot, IoStats};
use cij_rtree::{PointObject, RTree, RTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NmUniform,
    MwClustered,
    ServeMixed,
    IndexIoFile,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::NmUniform,
        Kind::MwClustered,
        Kind::ServeMixed,
        Kind::IndexIoFile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NmUniform => "nm_uniform",
            Kind::MwClustered => "mw_clustered",
            Kind::ServeMixed => "serve_mixed",
            Kind::IndexIoFile => "index_io_file",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What one completed (or refused) op reports.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Which kind of op this was: the cycle slot of a request mix, 0 where
    /// every op is the same.
    pub kind: usize,
    pub wall_s: f64,
    /// Op start → the first [`FIRST_ROWS_SHARE`] of the op's rows visible
    /// to the caller.
    pub first_rows_s: f64,
    pub page_accesses: u64,
    /// Completed, was not refused, and its rows passed the correctness check.
    pub ok: bool,
    /// Wall seconds → reference seconds, from the host-reference readings
    /// taken around the op ([`HostRef::scale`]); 1 until the loop sets it.
    pub scale: f64,
}

impl OpSample {
    fn failed(kind: usize, wall: Duration) -> Self {
        OpSample {
            kind,
            wall_s: wall.as_secs_f64(),
            first_rows_s: wall.as_secs_f64(),
            page_accesses: 0,
            ok: false,
            scale: 1.0,
        }
    }

    pub fn ref_wall_s(&self) -> f64 {
        self.wall_s * self.scale
    }

    pub fn ref_first_rows_s(&self) -> f64 {
        self.first_rows_s * self.scale
    }
}

/// The measured section of one run.
#[derive(Debug, Default)]
pub struct Measured {
    pub samples: Vec<OpSample>,
    pub wall_s: f64,
    /// Page accesses of one op. Every op of a single-kind workload reads
    /// the same count; a request mix reports the mean over one whole cycle,
    /// so the figure does not depend on where the clock cut the last cycle.
    pub accesses_per_op: f64,
}

/// One workload: built from a seed, prepared once, then measured.
pub trait Bench: Sized {
    /// Generates the inputs from `seed` and builds everything the first op
    /// needs. This is what `setup_s` times; it runs several times per run.
    fn build(seed: u64, quick: bool) -> Self;

    /// Computes reference answers through a second, independent path and
    /// checks them against a first warm-up op. `Err` means the program's
    /// outputs are wrong and the run must not report timings as correct.
    fn prepare(&mut self) -> Result<(), String>;

    /// Runs ops for `seconds` (and at least `min_ops`), closed loop.
    fn measure(&mut self, seconds: f64, min_ops: usize) -> Measured;
}

/// Single-client closed loop: op after op until the time is up, with one
/// pass of the host reference between ops. An op is scaled by the readings on
/// either side of it; the passes are the client's think time and count
/// towards no op.
fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut() -> OpSample) -> Measured {
    let host = HostRef::default();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut before = host.read();
    while samples.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let mut sample = op();
        let after = host.read();
        sample.scale = HostRef::scale(before, after);
        before = after;
        samples.push(sample);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let accesses: u64 = samples.iter().map(|s| s.page_accesses).sum();
    Measured {
        accesses_per_op: accesses as f64 / samples.len() as f64,
        samples,
        wall_s,
    }
}

/// The share of an op's rows that must be out before its "first rows"
/// clock stops. The very first row costs one leaf of the driving tree, and
/// how expensive that one leaf is depends on where the seed happened to put
/// a handful of points (it varied 2× across seeds on uniform data, 50× on
/// clustered); a tenth of the rows averages over a few dozen leaves and
/// still stops long before a blocking operator would deliver anything.
pub const FIRST_ROWS_SHARE: f64 = 0.10;

/// How many rows make up the first share of `rows`.
fn first_rows_of(rows: u64) -> u64 {
    ((rows as f64 * FIRST_ROWS_SHARE).ceil() as u64).max(1)
}

/// Draws `n` points from a fixed clustered population: the cluster layout
/// (set `layout`) is the same on every seed, the seed picks which points of
/// it the program sees. Clustered inputs whose *layout* moved with the seed
/// made op time a property of the seed (±13 %), not of the program.
fn clustered_sample(n: usize, layout: u64, seed: u64) -> Vec<Point> {
    const POOL_FACTOR: usize = 4;
    let mut pool = clustered_points(&ClusterSpec::new(POOL_FACTOR * n), &Rect::DOMAIN, layout);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

fn scaled(n: usize, quick: bool) -> usize {
    if quick {
        (n / 20).max(8)
    } else {
        n
    }
}

// ---------------------------------------------------------------------------
// Streaming joins through the engine (shared by nm_uniform, mw_clustered,
// the serve_mixed references and the traced run's outside deltas)
// ---------------------------------------------------------------------------

/// One drained result stream.
#[derive(Debug, Clone, Copy)]
pub struct JoinRun {
    pub wall: Duration,
    pub first_row: Duration,
    /// Until `first_rows` rows (the caller's threshold) were out.
    pub first_rows: Duration,
    pub rows: u64,
    pub fingerprint: Fingerprint,
    /// The stream's last watermark: metered physical accesses or fast-mode
    /// logical snapshot reads.
    pub page_accesses: u64,
    pub watermarks: usize,
    pub failed: bool,
}

/// Row-arrival clock and fingerprint of one result stream being drained.
struct Arrivals {
    start: Instant,
    threshold: u64,
    rows: u64,
    first_row: Option<Duration>,
    first_rows: Option<Duration>,
    fingerprint: Fingerprint,
}

impl Arrivals {
    /// Starts the op's clock; `expected` sets the first-rows threshold (and
    /// nothing else).
    fn start(expected: &Expected) -> Self {
        Arrivals {
            start: Instant::now(),
            threshold: first_rows_of(expected.rows),
            rows: 0,
            first_row: None,
            first_rows: None,
            fingerprint: Fingerprint::default(),
        }
    }

    /// `n` more rows became visible to the caller.
    fn arrive(&mut self, n: u64) {
        let before = self.rows;
        self.rows += n;
        if before == 0 && n > 0 {
            self.first_row = Some(self.start.elapsed());
        }
        if before < self.threshold && self.rows >= self.threshold {
            self.first_rows = Some(self.start.elapsed());
        }
    }

    fn finish(self, watermarks: &[LeafWatermark], failed: bool) -> JoinRun {
        let wall = self.start.elapsed();
        JoinRun {
            wall,
            first_row: self.first_row.unwrap_or(wall),
            first_rows: self.first_rows.unwrap_or(wall),
            rows: self.rows,
            fingerprint: self.fingerprint,
            page_accesses: watermarks.last().map_or(0, |w| w.page_accesses),
            watermarks: watermarks.len(),
            failed,
        }
    }
}

/// Runs binary NM-CIJ over `workload` from a cold buffer and drains it.
pub fn run_binary(engine: &QueryEngine, workload: &mut Workload, expected: &Expected) -> JoinRun {
    workload.reset_measurement();
    let mut arrivals = Arrivals::start(expected);
    let mut stream = engine.stream(workload, Algorithm::NmCij);
    for (p, q) in stream.by_ref() {
        arrivals.arrive(1);
        arrivals.fingerprint.push(p);
        arrivals.fingerprint.push(q);
    }
    arrivals.finish(&stream.watermarks_so_far(), stream.io_error().is_some())
}

/// Runs the multiway CIJ over `workload` from a cold buffer and drains it.
pub fn run_multiway(
    engine: &QueryEngine,
    workload: &mut MultiwayWorkload,
    expected: &Expected,
) -> JoinRun {
    workload.reset_measurement();
    let mut arrivals = Arrivals::start(expected);
    let mut stream = engine.multiway_stream(workload);
    for tuple in stream.by_ref() {
        arrivals.arrive(1);
        tuple
            .ids
            .iter()
            .for_each(|&id| arrivals.fingerprint.push(id));
    }
    arrivals.finish(&stream.watermarks_so_far(), stream.io_error().is_some())
}

impl JoinRun {
    fn sample(&self, kind: usize, expected: &Expected) -> OpSample {
        OpSample {
            kind,
            wall_s: self.wall.as_secs_f64(),
            first_rows_s: self.first_rows.as_secs_f64(),
            page_accesses: self.page_accesses,
            ok: !self.failed && expected.matches(self.rows, self.fingerprint),
            scale: 1.0,
        }
    }
}

/// The reference answer of one op kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    pub rows: u64,
    pub fingerprint: Fingerprint,
}

impl Expected {
    pub fn of(run: &JoinRun) -> Self {
        Expected {
            rows: run.rows,
            fingerprint: run.fingerprint,
        }
    }

    pub fn matches(&self, rows: u64, fingerprint: Fingerprint) -> bool {
        self.rows == rows && self.fingerprint == fingerprint
    }
}

/// Storage-layer counters of a set of trees, read from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCounters {
    pub io: IoSnapshot,
    pub backend: BackendIo,
    pub retries: u64,
    pub peak_resident_pages: usize,
}

impl StorageCounters {
    /// Sums the counters of `trees`, which share one `IoStats`.
    pub fn of<'a>(trees: impl IntoIterator<Item = &'a RTree<PointObject>>) -> Self {
        let mut out = StorageCounters::default();
        for tree in trees {
            out.io = tree.stats().snapshot();
            out.backend = out.backend.plus(&tree.backend_io());
            let faults = tree.fault_stats();
            out.retries += faults.retries + faults.write_retries;
            out.peak_resident_pages += tree.peak_resident_pages();
        }
        out
    }

    pub fn since(&self, earlier: &StorageCounters) -> StorageCounters {
        StorageCounters {
            io: self.io.since(&earlier.io),
            backend: self.backend.since(&earlier.backend),
            retries: self.retries - earlier.retries,
            peak_resident_pages: self.peak_resident_pages,
        }
    }
}

// ---------------------------------------------------------------------------
// nm_uniform
// ---------------------------------------------------------------------------

/// Binary NM-CIJ over two uniform sets: the paper's default experiment.
/// Metered, heap, one thread, buffers dropped before each op.
pub struct NmUniform {
    pub engine: QueryEngine,
    pub p: Vec<Point>,
    pub q: Vec<Point>,
    pub workload: Workload,
    pub expected: Expected,
}

const NM_POINTS: usize = 20_000;
const NM_ORACLE_POINTS: usize = 400;

impl Bench for NmUniform {
    fn build(seed: u64, quick: bool) -> Self {
        let n = scaled(NM_POINTS, quick);
        let p = uniform_points(n, &Rect::DOMAIN, seed.wrapping_mul(2));
        let q = uniform_points(n, &Rect::DOMAIN, seed.wrapping_mul(2) + 1);
        let engine = QueryEngine::new(CijConfig::default());
        let workload = engine.build_workload(&p, &q);
        NmUniform {
            engine,
            p,
            q,
            workload,
            expected: Expected::default(),
        }
    }

    fn prepare(&mut self) -> Result<(), String> {
        // Independent truth on a subsample: the engine against the O(n²)
        // definition.
        let k = NM_ORACLE_POINTS.min(self.p.len());
        let (sub_p, sub_q) = (&self.p[..k], &self.q[..k]);
        let joined = self
            .engine
            .join(sub_p, sub_q, Algorithm::NmCij)
            .sorted_pairs();
        if joined != brute_force_cij(sub_p, sub_q, &Rect::DOMAIN) {
            return Err(format!("NM-CIJ disagrees with brute force on {k} points"));
        }
        // Second path at full size: the fast executor must emit the same
        // pairs in the same order as the metered one that is measured.
        let fast = QueryEngine::new(self.engine.config().with_exec_mode(ExecMode::Fast));
        let unknown = Expected::default();
        let reference = run_binary(&fast, &mut self.workload, &unknown);
        let metered = run_binary(&self.engine, &mut self.workload, &unknown);
        if reference.failed || metered.failed || reference.rows == 0 {
            return Err("reference join failed or was empty".into());
        }
        self.expected = Expected::of(&reference);
        if !self.expected.matches(metered.rows, metered.fingerprint) {
            return Err("metered and fast pair sequences differ".into());
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64, min_ops: usize) -> Measured {
        closed_loop(seconds, min_ops, || {
            run_binary(&self.engine, &mut self.workload, &self.expected).sample(0, &self.expected)
        })
    }
}

// ---------------------------------------------------------------------------
// mw_clustered
// ---------------------------------------------------------------------------

/// Three-way multiway CIJ over clustered sets: fast mode, mmap — the chunked
/// protocol over snapshot readers, at one worker thread. The host's two
/// hardware threads share one core's resources (two threads of the reference
/// kernel finish two passes in the time one thread finishes two), so a
/// two-thread op measured how the hypervisor placed them, not the program;
/// the traced run still reports `core.pipeline.t2_speedup`.
pub struct MwClustered {
    pub engine: QueryEngine,
    pub sets: Vec<Vec<Point>>,
    pub workload: MultiwayWorkload,
    pub expected: Expected,
}

const MW_POINTS: usize = 8_000;
const MW_THREADS: usize = 1;

impl Bench for MwClustered {
    fn build(seed: u64, quick: bool) -> Self {
        let n = scaled(MW_POINTS, quick);
        let sets: Vec<Vec<Point>> = (0..3)
            .map(|i| clustered_sample(n, i, seed.wrapping_mul(3) + i))
            .collect();
        let engine = QueryEngine::new(
            CijConfig::default()
                .with_storage_backend(StorageBackend::Mmap)
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(MW_THREADS),
        );
        let workload = engine.multiway_workload(&sets);
        MwClustered {
            engine,
            sets,
            workload,
            expected: Expected::default(),
        }
    }

    fn prepare(&mut self) -> Result<(), String> {
        let metered = QueryEngine::new(
            self.engine
                .config()
                .with_exec_mode(ExecMode::Metered)
                .with_worker_threads(1),
        );
        let unknown = Expected::default();
        let reference = run_multiway(&metered, &mut self.workload, &unknown);
        let fast = run_multiway(&self.engine, &mut self.workload, &unknown);
        if reference.failed || fast.failed || reference.rows == 0 {
            return Err("reference multiway join failed or was empty".into());
        }
        self.expected = Expected::of(&reference);
        if !self.expected.matches(fast.rows, fast.fingerprint) {
            return Err("metered and fast tuple sequences differ".into());
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64, min_ops: usize) -> Measured {
        closed_loop(seconds, min_ops, || {
            run_multiway(&self.engine, &mut self.workload, &self.expected).sample(0, &self.expected)
        })
    }
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// A fixed six-request cycle through `CijService`: one shared snapshot, one
/// closed-loop client and one worker, so one request computes at a time and
/// the same two threads hand every batch over (with a second, idle worker it
/// was the wake-up order that chose which thread — and which allocator arena
/// — served a request, and peak memory read 9.2–11.6 MiB). The traced run
/// sets two clients against one on two workers, `core.service.c2_over_c1`.
pub struct ServeMixed {
    pub engine: QueryEngine,
    pub sets: Vec<Vec<Point>>,
    pub service: CijService,
    pub cycle: Vec<Request>,
    /// Reference answer and page-access figure per cycle slot. The direct
    /// grouped-NN plan reports no read count; that slot's figure is pinned
    /// by the service's own first answer (and must then repeat).
    pub expected: Vec<(Expected, Option<u64>)>,
}

const SERVE_POINTS: usize = 2_000;
const SERVE_WORKERS: usize = 1;
/// Workers (and clients) of the traced run's contention legs.
pub const CONTENDED_WORKERS: usize = 2;
const SERVE_LOCATIONS: usize = 500;
/// Two 8-point sets held in the snapshot only so the traced run can time a
/// near-empty request (the service's fixed cost).
pub const TINY_SETS: (usize, usize) = (3, 4);

pub fn serve_config() -> ServiceConfig {
    ServiceConfig {
        workers: SERVE_WORKERS,
        ..ServiceConfig::default()
    }
}

impl ServeMixed {
    /// A second service over the same sets with [`CONTENDED_WORKERS`]
    /// workers, for the traced run's contention legs.
    pub fn contended_service(&self) -> CijService {
        let config = ServiceConfig {
            workers: CONTENDED_WORKERS,
            ..serve_config()
        };
        self.engine.serve(&self.sets, config)
    }
}

/// What a client saw of one request.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub sample: OpSample,
    pub batches: u64,
    pub watermarks: usize,
    pub refused: bool,
}

impl ServeMixed {
    /// Submits cycle slot `slot` to the workload's own service.
    pub fn request(&self, slot: usize) -> Served {
        self.request_on(&self.service, slot)
    }

    /// Submits cycle slot `slot` to `service`, drains its batches and checks
    /// the rows.
    pub fn request_on(&self, service: &CijService, slot: usize) -> Served {
        let (expected, accesses) = &self.expected[slot];
        let mut arrivals = Arrivals::start(expected);
        let Ok(handle) = service.submit(self.cycle[slot].clone()) else {
            return Served {
                sample: OpSample::failed(slot, arrivals.start.elapsed()),
                batches: 0,
                watermarks: 0,
                refused: true,
            };
        };
        let (mut batches, mut errored) = (0u64, false);
        while let Some(batch) = handle.next_batch() {
            batches += 1;
            match batch {
                Batch::Pairs(pairs) => {
                    for &(p, q) in &pairs {
                        arrivals.fingerprint.push(p);
                        arrivals.fingerprint.push(q);
                    }
                    arrivals.arrive(pairs.len() as u64);
                }
                Batch::Tuples(tuples) => {
                    for &id in tuples.iter().flat_map(|t| &t.ids) {
                        arrivals.fingerprint.push(id);
                    }
                    arrivals.arrive(tuples.len() as u64);
                }
                Batch::Groups(groups) => {
                    arrivals.fingerprint = fingerprint_groups(&groups);
                    arrivals.arrive(groups.len() as u64);
                }
                Batch::Error(_) => errored = true,
            }
        }
        let completion = handle.completion();
        let run = arrivals.finish(&[], errored || completion.failed);
        let mut sample = run.sample(slot, expected);
        sample.page_accesses = completion.page_accesses;
        sample.ok &=
            completion.rows == run.rows && accesses.is_none_or(|a| a == completion.page_accesses);
        Served {
            sample,
            batches,
            watermarks: completion.watermarks,
            refused: false,
        }
    }

    /// The traced run's contention legs: `clients` closed-loop threads walk
    /// the cycle (client `c` starts at slot `3c`, so both halves of the mix
    /// are always in flight) until the time is up and each has sent at least
    /// `min_ops / clients` requests. Wall seconds, no host reference.
    pub fn run_clients(
        &self,
        service: &CijService,
        clients: usize,
        seconds: f64,
        min_ops: usize,
    ) -> (Measured, Vec<Served>) {
        let per_client_min = min_ops.div_ceil(clients);
        let start = Instant::now();
        let served: Vec<Served> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while mine.len() < per_client_min || start.elapsed().as_secs_f64() < seconds
                        {
                            let slot = (3 * c + mine.len()) % self.cycle.len();
                            mine.push(self.request_on(service, slot));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let measured = Measured {
            samples: served.iter().map(|s| s.sample).collect(),
            wall_s: start.elapsed().as_secs_f64(),
            accesses_per_op: self.cycle_accesses_per_op(),
        };
        (measured, served)
    }

    /// Mean page accesses over one whole cycle: a figure that does not
    /// depend on where the clock cut the last cycle.
    fn cycle_accesses_per_op(&self) -> f64 {
        let cycle: u64 = self.expected.iter().filter_map(|(_, a)| *a).sum();
        cycle as f64 / self.cycle.len() as f64
    }
}

fn fingerprint_groups(groups: &cij_core::GroupCounts) -> Fingerprint {
    let mut entries: Vec<(&(u64, u64), &u64)> = groups.iter().collect();
    entries.sort_unstable();
    let mut f = Fingerprint::default();
    for (&(p, q), &count) in entries {
        f.push(p);
        f.push(q);
        f.push(count);
    }
    f
}

impl Bench for ServeMixed {
    fn build(seed: u64, quick: bool) -> Self {
        let n = scaled(SERVE_POINTS, quick);
        let base = seed.wrapping_mul(7);
        let sets = vec![
            uniform_points(n, &Rect::DOMAIN, base),
            uniform_points(n, &Rect::DOMAIN, base + 1),
            clustered_sample(n, 0, base + 2),
            uniform_points(8, &Rect::DOMAIN, base + 3),
            uniform_points(8, &Rect::DOMAIN, base + 4),
        ];
        let locations = uniform_points(scaled(SERVE_LOCATIONS, quick), &Rect::DOMAIN, base + 5);
        let cycle = vec![
            Request::Join { p: 0, q: 1 },
            Request::Multiway {
                sets: vec![0, 1, 2],
            },
            Request::Join { p: 1, q: 2 },
            Request::GroupedNn {
                p: 0,
                q: 1,
                locations,
            },
            Request::Join { p: 2, q: 0 },
            Request::Multiway { sets: vec![2, 0] },
        ];
        let engine = QueryEngine::new(CijConfig::default().with_exec_mode(ExecMode::Fast));
        let service = engine.serve(&sets, serve_config());
        ServeMixed {
            engine,
            sets,
            service,
            cycle,
            expected: Vec::new(),
        }
    }

    fn prepare(&mut self) -> Result<(), String> {
        // Every request kind's rows — and its read count — must equal a
        // direct engine run holding the cell-cache quota a worker gets.
        let quota = serve_config().query_cache_quota;
        let direct =
            |cells: usize| QueryEngine::new(self.engine.config().with_cell_cache_capacity(cells));
        let expected = self
            .cycle
            .iter()
            .map(|request| match request {
                Request::Join { p, q } => {
                    let engine = direct(quota);
                    let mut w = engine.build_workload(&self.sets[*p], &self.sets[*q]);
                    let run = run_binary(&engine, &mut w, &Expected::default());
                    (Expected::of(&run), Some(run.page_accesses))
                }
                Request::Multiway { sets } => {
                    let picked: Vec<Vec<Point>> =
                        sets.iter().map(|&s| self.sets[s].clone()).collect();
                    // A worker splits its quota evenly over the sets.
                    let engine = direct(quota / sets.len());
                    let mut w = engine.multiway_workload(&picked);
                    let run = run_multiway(&engine, &mut w, &Expected::default());
                    (Expected::of(&run), Some(run.page_accesses))
                }
                Request::GroupedNn { p, q, locations } => {
                    let groups = self
                        .engine
                        .grouped_nn(&self.sets[*p], &self.sets[*q], locations);
                    let expected = Expected {
                        rows: groups.len() as u64,
                        fingerprint: fingerprint_groups(&groups),
                    };
                    (expected, None)
                }
            })
            .collect();
        self.expected = expected;
        // Warm-up: two cycles; the first pins the grouped-NN read count.
        for round in 0..2 {
            for slot in 0..self.cycle.len() {
                let served = self.request(slot).sample;
                if !served.ok {
                    return Err(format!(
                        "served request {slot} (round {round}) differs from the direct engine run"
                    ));
                }
                self.expected[slot].1.get_or_insert(served.page_accesses);
            }
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64, min_ops: usize) -> Measured {
        let mut sent = 0;
        let mut measured = closed_loop(seconds, min_ops, || {
            sent += 1;
            self.request((sent - 1) % self.cycle.len()).sample
        });
        measured.accesses_per_op = self.cycle_accesses_per_op();
        measured
    }
}

// ---------------------------------------------------------------------------
// index_io_file
// ---------------------------------------------------------------------------

/// Out-of-core bulk load onto the file backend (write path), then a cold
/// scan, window queries and k-NN probes through a small buffer (read path).
pub struct IndexIoFile {
    pub objects: Vec<PointObject>,
    pub windows: Vec<Rect>,
    pub probes: Vec<Point>,
    pub reference: IndexAnswers,
}

const INDEX_POINTS: usize = 100_000;
const INDEX_QUERIES: usize = 20_000;
const WINDOW_SIDE: f64 = 100.0;
const KNN_K: usize = 8;

/// What the query phase of one op answers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexAnswers {
    pub scanned: usize,
    pub range_hits: u64,
    pub knn_dist_sum: f64,
}

/// Where one op's time went and what it moved.
#[derive(Debug, Clone, Copy)]
pub struct IndexRun {
    pub build: Duration,
    pub scan: Duration,
    pub range: Duration,
    pub knn: Duration,
    pub answers: IndexAnswers,
    pub page_accesses: u64,
    /// `backend bytes_read == physical_reads × page_size` over the queries.
    pub bytes_match_reads: bool,
    /// Whole-op storage counters (build included), for the traced run.
    pub storage: StorageCounters,
}

impl IndexIoFile {
    /// Builds the tree the way the op does: external sort in runs of n/10.
    fn build_tree(&self, storage: StorageBackend, stats: IoStats) -> RTree<PointObject> {
        RTree::bulk_load_external_on(
            RTreeConfig::default(),
            stats,
            self.objects.iter().copied(),
            1.0,
            storage,
            (self.objects.len() / 10).max(1),
        )
    }

    /// The tree as the read path meets it: built on the file backend, buffer
    /// an eighth of the tree, dropped.
    pub fn cold_tree(&self, stats: IoStats) -> RTree<PointObject> {
        let mut tree = self.build_tree(StorageBackend::File, stats);
        tree.set_buffer_pages((tree.num_pages() / 8).max(1));
        tree.drop_buffer();
        tree
    }

    fn query(&self, tree: &mut RTree<PointObject>) -> (IndexAnswers, [Duration; 3]) {
        let t0 = Instant::now();
        let scanned = tree.scan_all().len();
        let t1 = Instant::now();
        let range_hits = self
            .windows
            .iter()
            .map(|w| tree.range_query(w).len() as u64)
            .sum();
        let t2 = Instant::now();
        let knn_dist_sum = self
            .probes
            .iter()
            .flat_map(|p| tree.k_nearest(*p, KNN_K))
            .map(|(dist, _)| dist)
            .sum();
        let t3 = Instant::now();
        let answers = IndexAnswers {
            scanned,
            range_hits,
            knn_dist_sum,
        };
        (answers, [t1 - t0, t2 - t1, t3 - t2])
    }

    /// One whole op: the cold file-backed tree, then scan, windows and
    /// probes.
    pub fn run(&self) -> IndexRun {
        let stats = IoStats::new();
        let start = Instant::now();
        let mut tree = self.cold_tree(stats.clone());
        let build = start.elapsed();
        let (io_before, reads_before) = (tree.backend_io(), stats.snapshot().physical_reads);
        let (answers, [scan, range, knn]) = self.query(&mut tree);
        let bytes = tree.backend_io().since(&io_before).bytes_read;
        let reads = stats.snapshot().physical_reads - reads_before;
        IndexRun {
            build,
            scan,
            range,
            knn,
            answers,
            page_accesses: stats.snapshot().page_accesses(),
            bytes_match_reads: bytes == reads * tree.config().page_size as u64,
            storage: StorageCounters::of([&tree]),
        }
    }
}

impl Bench for IndexIoFile {
    fn build(seed: u64, quick: bool) -> Self {
        let base = seed.wrapping_mul(5);
        let points = uniform_points(scaled(INDEX_POINTS, quick), &Rect::DOMAIN, base);
        let queries = scaled(INDEX_QUERIES, quick);
        let mut rng = StdRng::seed_from_u64(base + 1);
        let hi = Rect::DOMAIN.hi.x - WINDOW_SIDE;
        let windows = (0..queries)
            .map(|_| {
                let (x, y) = (rng.gen_range(0.0..hi), rng.gen_range(0.0..hi));
                Rect::from_coords(x, y, x + WINDOW_SIDE, y + WINDOW_SIDE)
            })
            .collect();
        let mut this = IndexIoFile {
            objects: PointObject::from_points(&points),
            windows,
            probes: uniform_points(queries, &Rect::DOMAIN, base + 2),
            reference: IndexAnswers::default(),
        };
        // Reference answers from a heap-backed tree that fits its buffer:
        // no file, no eviction, no cold decode on the way.
        let mut heap = this.build_tree(StorageBackend::Heap, IoStats::new());
        heap.set_buffer_pages(heap.num_pages());
        this.reference = this.query(&mut heap).0;
        this
    }

    fn prepare(&mut self) -> Result<(), String> {
        if self.reference.scanned != self.objects.len() || self.reference.range_hits == 0 {
            return Err("heap reference scan or windows came back empty".into());
        }
        let warm = self.run();
        if warm.answers != self.reference {
            return Err(format!(
                "file-backed answers {:?} differ from the heap reference {:?}",
                warm.answers, self.reference
            ));
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64, min_ops: usize) -> Measured {
        closed_loop(seconds, min_ops, || {
            let run = self.run();
            OpSample {
                kind: 0,
                wall_s: (run.build + run.scan + run.range + run.knn).as_secs_f64(),
                // The scan hands all its rows over at once, when it returns.
                first_rows_s: (run.build + run.scan).as_secs_f64(),
                page_accesses: run.page_accesses,
                ok: run.answers == self.reference && run.bytes_match_reads,
                scale: 1.0,
            }
        })
    }
}
