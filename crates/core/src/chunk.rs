//! The chunk protocol: what the binary NM-CIJ stream ([`crate::nm`]) and the
//! multiway tuple stream ([`crate::multiway`]) share.
//!
//! Both streams walk the Hilbert-ordered leaves of a driving tree and turn
//! each leaf into result rows through tree traversals (BatchVoronoi, the
//! batch conditional filter) and lookups in a bounded [`CellCache`]. Leaf
//! units are independent given read access to the trees, so a stream runs
//! them in bounded **chunks** on a [`std::thread::scope`] worker pool —
//! **without changing any observable result**. This module owns the parts
//! of that protocol that do not care whether a unit reports pairs or
//! extends tuples; the streams keep only their unit-specific work.
//!
//! # Phases of one chunk
//!
//! Two stages hold every step both streams take; the streams keep only
//! their own kernel and the order they call the stages in (nm: seed `RQ`,
//! probe `RP`, report pairs; multiway: seed the driver, then per extension
//! set probe it and narrow the tuples).
//!
//! 1. **Seed** ([`seed_leaves`], parallel, per leaf) — read the leaf of the
//!    driving tree and compute its points' exact cells without the reuse
//!    buffer: every point of the driving tree lies in exactly one leaf, so a
//!    buffer there would never hit.
//! 2. **Probe** ([`probe_round`], once per probed set) — the leaves' regions
//!    against one more tree. The regions are the seed cells, in both
//!    streams; from its second extension round on, a multiway leaf adds
//!    its live partial regions as their pieces:
//!    * *filter* (parallel, per leaf with regions, or with pieces when it
//!      has any) — one batch conditional filter call carrying all of the
//!      leaf's regions and pieces (`crates/core/src/filter.rs`, "Regions
//!      and their pieces");
//!    * *cache policy* (coordinator, leaf order) — [`policy_pass`] decides
//!      every hit, miss and eviction on the set's real [`CellCache`] from
//!      the candidate *ids* alone, which fixes the exact set of cells each
//!      leaf must compute;
//!    * *refine* (parallel) — [`refine_missing`] computes those cells;
//!    * *resolve* (coordinator, leaf order) — [`resolve_unit`] aligns each
//!      leaf's candidate cells (hits read from their cache slots, misses
//!      from the leaf's own refinement) and fills the slots its puts
//!      claimed.
//! 3. **Report** (parallel) — the stream's own kernel (pair reporting,
//!    tuple extension).
//! 4. **Settle + emit** (coordinator, leaf order) — each leaf's deferred
//!    read accounting is settled ([`Accounting::settle`]), its work counts
//!    folded (a seed's cells all computed, [`LeafProbe::fold`]) and its
//!    checkpoint recorded ([`StreamLedger::record_leaf`]), and its rows
//!    enqueued.
//!
//! Both streams hold one [`StreamLedger`] by value — progress samples,
//! watermarks, the query's [`QueryProfile`], the fail-stop latch — and
//! `record_leaf` is the one place every completed leaf of either pipeline
//! passes through: the per-leaf fold point of the profile's [`WorkCounts`].
//! Consumers that only need that ledger, like the request server's drive
//! loop, take either stream as a [`LeafStream`].
//!
//! Each stage's time goes to a [`Phase`] of the profile through a `Lap`:
//! the coordinator laps its own stages; across a parallel stage it drops
//! its lap and adds what each unit lapped itself.
//!
//! Chunk widths ramp `1 → workers → workers × 4` ([`LeafCursor`]), so the
//! first rows cost exactly one leaf's page accesses — the non-blocking
//! contract — while later chunks amortise the per-chunk barriers.
//!
//! # Why the result cannot depend on the schedule
//!
//! Naive concurrency would perturb three kinds of sequential state: the LRU
//! page buffers (physical reads depend on access order), the cell reuse
//! buffer (hits depend on which leaf ran first) and the emission order. The
//! protocol decouples *computation* from *accounting*:
//!
//! * **Workers never touch a buffer.** During a join the trees are
//!   read-only, so every parallel phase reads through a
//!   [`SnapshotReader`] handed out by [`Accounting::reader`] and returns a
//!   [`ReadLog`]. What the log is worth is decided once, at stream
//!   construction: [`Accounting::Metered`] readers keep the pinned page of
//!   every read and the coordinator **replays** them through the real
//!   buffer + shared [`IoStats`] in leaf order — the exact access sequence
//!   of a one-leaf-at-a-time run, hence identical page-access totals,
//!   buffer state and per-leaf samples at any worker count, with each page
//!   read once, by the worker; [`Accounting::Fast`] readers only count, and
//!   the coordinator adds the count to a per-query-local counter — no
//!   trace, no replay, no shared-counter traffic, and only `&RTree` needed,
//!   which is what lets concurrent queries share one snapshot
//!   ([`crate::service`]). Rows, their order and every counter are
//!   identical in both states; only the currency of "page accesses" differs
//!   (buffer-simulated physical accesses vs logical snapshot reads).
//! * **Cache policy is sequential on ids, payloads are computed in
//!   parallel.** Which candidates hit depends only on the id sequence in
//!   leaf order, never on the polygons, so the policy pass reproduces the
//!   sequential hit/miss/evict sequence and the refine computes the same
//!   cells (through the same traversals, hence the same logs) a sequential
//!   run would.
//! * **Ordered reassembly.** [`run_ordered_units`] returns results in
//!   unit order and the emit walks leaves in order.
//!
//! # Fail-stop gates
//!
//! Readers never return errors: a failed read latches into the reader's
//! log and serves an empty leaf, so whatever the traversal computed after
//! it is garbage. Every parallel phase is therefore followed by a gate
//! ([`gate`], built into both stages) that turns the first latched
//! error in leaf order into `Err` *before* its outputs feed the next
//! phase. Settling a log reads nothing and cannot fail, so a join's storage
//! errors arise only at a worker's read, behind a gate. On `Err` the stream
//! latches the error ([`StreamLedger::fail`]), abandons its remaining
//! leaves and ends: everything emitted is covered by a watermark, nothing
//! of the failing chunk was emitted — no row and, in a grouped-NN run, no
//! settled claim — and the reuse buffer, whose slots the failing chunk's
//! puts may have claimed without filling, ends with the stream: nothing
//! hands it on. The leaf-order walk at construction goes through the same
//! latch ([`StreamLedger::start`] over [`Accounting::leaf_order`]), so a
//! stream whose walk fails is born fail-stopped instead of panicking.
//!
//! # Per-worker scratch
//!
//! A stream owns one [`UnitScratch`] per pool worker for its whole life and
//! lends the set to every parallel phase ([`run_ordered_units`]): decode
//! arenas, clip buffers, the filter's traversal heap and grids, the edge
//! table and box-kernel hits of both joins' candidate × region scans grow
//! to their high-water mark during the first
//! leaves and are then reused by every later phase, round and chunk. A
//! scratch carries no information from one unit to the next — contents
//! between calls are unspecified — so which worker picks up which unit
//! stays unobservable.
//!
//! Units are handed out through a mutex-guarded iterator (one lock per
//! unit, released before the unit runs), which is also what lets a unit
//! carry its own `&mut` slot into the phase; completed results are handed
//! back through the join.

use crate::cell_cache::CellCache;
use crate::config::{CijConfig, ExecMode};
use crate::filter::{two_level_filter, FilterScratch, FilterStats, Pieces};
use crate::stats::{
    CellCounts, Lap, LeafWatermark, Phase, ProgressSample, QueryProfile, WorkCounts,
};
use cij_geom::{ClipScratch, ConvexPolygon, EdgeTable, Rect};
use cij_pagestore::{IoSnapshot, IoStats, PageId, PageIoError};
use cij_rtree::reader::leaf_pages_hilbert_order;
use cij_rtree::{NodeReader, PointObject, RTree, ReadLog, SnapshotReader};
use cij_voronoi::{batch_voronoi, NoCache, VorScratch};
use std::sync::Mutex;
use std::time::Duration;

/// The deferred read accounting of one reader over a stream's trees.
pub(crate) type Log = ReadLog<PointObject>;

/// Steady-state chunk width, as a multiple of the worker count (see
/// [`LeafCursor::next_chunk`]).
const CHUNK_RAMP: usize = 4;

/// How a stream's tree reads are paid for — chosen once, at stream
/// construction, together with the access to the trees that choice needs.
pub(crate) enum Accounting<'a> {
    /// Byte-exact: parallel phases keep page traces which
    /// [`settle`](Accounting::settle) replays through the real LRU buffers
    /// and the shared [`IoStats`]. Needs the trees exclusively.
    Metered {
        trees: Vec<&'a mut RTree<PointObject>>,
        stats: IoStats,
        /// `stats` as of stream construction: the stream's cost is the
        /// delta since.
        start: IoSnapshot,
    },
    /// Lock-light: readers only count, `settle` adds the count to the
    /// per-query-local `reads`; no shared counter or buffer is touched, so
    /// shared trees suffice.
    Fast {
        trees: Vec<&'a RTree<PointObject>>,
        reads: u64,
    },
}

impl<'a> Accounting<'a> {
    /// Accounting over exclusively held `trees` in the configured `mode`;
    /// `stats` is the [`IoStats`] the trees' stores report into.
    pub(crate) fn exclusive(
        mode: ExecMode,
        trees: Vec<&'a mut RTree<PointObject>>,
        stats: &IoStats,
    ) -> Self {
        match mode {
            ExecMode::Metered => Accounting::Metered {
                trees,
                stats: stats.clone(),
                start: stats.snapshot(),
            },
            ExecMode::Fast => Accounting::shared(trees.into_iter().map(|t| &*t).collect()),
        }
    }

    /// Fast accounting over shared `trees`.
    pub(crate) fn shared(trees: Vec<&'a RTree<PointObject>>) -> Self {
        Accounting::Fast { trees, reads: 0 }
    }

    /// Tree `i`, for reading.
    pub(crate) fn tree(&self, i: usize) -> &RTree<PointObject> {
        match self {
            Accounting::Metered { trees, .. } => &*trees[i],
            Accounting::Fast { trees, .. } => trees[i],
        }
    }

    /// Number of trees.
    pub(crate) fn k(&self) -> usize {
        match self {
            Accounting::Metered { trees, .. } => trees.len(),
            Accounting::Fast { trees, .. } => trees.len(),
        }
    }

    /// A snapshot reader over tree `i` whose finished [`ReadLog`] carries
    /// what [`settle`](Accounting::settle) needs: the pinned page trace
    /// (metered) or just the count (fast).
    pub(crate) fn reader(&self, i: usize) -> SnapshotReader<'_, PointObject> {
        match self {
            Accounting::Metered { trees, .. } => SnapshotReader::traced(&*trees[i]),
            Accounting::Fast { trees, .. } => SnapshotReader::new(trees[i]),
        }
    }

    /// Settles the deferred accounting of one finished reader over tree
    /// `i`: replays the trace through the tree's real buffer (metered — a
    /// replayed miss admits the page the trace pins, reading nothing), or
    /// adds the read count to the local counter (fast). Neither can fail.
    /// The log is consumed: its pins are released as soon as it is settled.
    pub(crate) fn settle(&mut self, i: usize, log: Log) {
        match self {
            Accounting::Metered { trees, .. } => {
                log.trace.iter().for_each(|page| trees[i].replay_read(page));
            }
            Accounting::Fast { reads, .. } => *reads += log.reads,
        }
    }

    /// The Hilbert leaf order of tree `i`, paid for in this accounting's
    /// currency — counted reads through the buffer (metered) or snapshot
    /// reads charged to the local counter (fast) — over the one walk body
    /// [`leaf_pages_hilbert_order`]. A failed non-leaf read is an `Err`,
    /// not a panic.
    pub(crate) fn leaf_order(
        &mut self,
        i: usize,
        domain: &Rect,
    ) -> Result<Vec<PageId>, PageIoError> {
        let (leaves, error) = match self {
            Accounting::Metered { trees, .. } => {
                let tree = &mut *trees[i];
                let root_level = tree.root_level();
                let leaves = leaf_pages_hilbert_order(tree, root_level, domain);
                (leaves, tree.take_error())
            }
            Accounting::Fast { trees, reads } => {
                let mut reader = SnapshotReader::new(trees[i]);
                let leaves = reader.leaf_pages_hilbert_order(domain);
                let log = reader.finish();
                *reads += log.reads;
                (leaves, log.error)
            }
        };
        error.map_or(Ok(leaves), Err)
    }

    /// The stream's I/O so far: the shared-stats delta since construction
    /// (metered: buffer-simulated page accesses), or the local read count as
    /// physical + logical reads (fast: logical snapshot reads).
    pub(crate) fn join_io(&self) -> IoSnapshot {
        match self {
            Accounting::Metered { stats, start, .. } => stats.snapshot().since(start),
            Accounting::Fast { reads, .. } => IoSnapshot {
                physical_reads: *reads,
                logical_reads: *reads,
                ..IoSnapshot::default()
            },
        }
    }
}

/// The per-stream constants every unit needs, derived from the config once
/// at construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitEnv {
    /// Worker pool width ([`CijConfig::effective_worker_threads`]).
    pub(crate) workers: usize,
    pub(crate) domain: Rect,
    /// Node byte budget the per-worker scratches are pre-sized for.
    pub(crate) budget: usize,
}

impl UnitEnv {
    pub(crate) fn new(config: &CijConfig, budget: usize) -> Self {
        UnitEnv {
            workers: config.effective_worker_threads(),
            domain: config.domain,
            budget,
        }
    }
}

/// A stream's position in its Hilbert leaf order, and the chunk ramp.
#[derive(Debug, Default)]
pub(crate) struct LeafCursor {
    leaves: Vec<PageId>,
    next: usize,
    chunks_done: usize,
}

impl LeafCursor {
    pub(crate) fn new(leaves: Vec<PageId>) -> Self {
        LeafCursor {
            leaves,
            next: 0,
            chunks_done: 0,
        }
    }

    /// Whether every leaf has been handed out (or abandoned).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.next >= self.leaves.len()
    }

    /// Hands out the leaf pages of the next bounded chunk. Widths ramp 1 →
    /// `workers` → `workers * CHUNK_RAMP`:
    /// the first chunk covers a single leaf so the first row costs exactly
    /// the page accesses a sequential run pays for it, later chunks widen
    /// to amortise the per-chunk barriers, and in-flight leaves stay
    /// bounded by `workers * CHUNK_RAMP`.
    pub(crate) fn next_chunk(&mut self, workers: usize) -> Vec<PageId> {
        let width = match self.chunks_done {
            0 => 1,
            1 => workers,
            _ => workers * CHUNK_RAMP,
        };
        let first = self.next;
        self.next = (first + width).min(self.leaves.len());
        self.chunks_done += 1;
        self.leaves[first..self.next].to_vec()
    }

    /// Abandons every leaf not handed out yet (fail-stop).
    pub(crate) fn abandon(&mut self) {
        self.next = self.leaves.len();
    }
}

/// A stream's books on its leaves, kept by value by the pair stream and the
/// tuple stream alike: the leaves still to come, a progress sample per
/// productive leaf done, a watermark per leaf done, the query's profile and
/// the fail-stop latch.
#[derive(Debug, Default)]
pub(crate) struct StreamLedger {
    pub(crate) cursor: LeafCursor,
    pub(crate) progress: Vec<ProgressSample>,
    pub(crate) watermarks: Vec<LeafWatermark>,
    /// Work counts and I/O as of the last watermark, and the time charged
    /// so far.
    pub(crate) profile: QueryProfile,
    error: Option<PageIoError>,
}

impl StreamLedger {
    /// Starts a stream: walks the leaf order of its driving tree `driver` in
    /// `acct`'s currency (the first of its [`Phase::Scan`] time). A failed
    /// walk yields a stream that is born fail-stopped — no leaves, the error
    /// latched.
    pub(crate) fn start(acct: &mut Accounting<'_>, driver: usize, domain: &Rect) -> Self {
        let mut lap = Lap::start();
        let mut ledger = StreamLedger::default();
        ledger.profile.work = WorkCounts::for_sets(acct.k());
        match acct.leaf_order(driver, domain) {
            Ok(leaves) => ledger.cursor = LeafCursor::new(leaves),
            Err(e) => ledger.fail(e),
        }
        lap.charge(Phase::Scan);
        ledger.profile.elapsed = lap.times;
        ledger
    }

    /// Checkpoints the next leaf at its sequential emit position: folds its
    /// work counts `leaf` into the profile, with `join_io` all I/O so far —
    /// everything the stream has produced is final — and records one
    /// watermark per leaf, empty ones included, so `leaf_index` is dense; a
    /// sample only when the leaf was `productive`.
    pub(crate) fn record_leaf(&mut self, join_io: IoSnapshot, productive: bool, leaf: &WorkCounts) {
        self.profile.work.absorb(leaf);
        self.profile.join_io = join_io;
        let (rows, page_accesses) = (self.profile.work.rows, join_io.page_accesses());
        if productive {
            self.progress.push(ProgressSample {
                page_accesses,
                pairs: rows,
            });
        }
        self.watermarks.push(LeafWatermark {
            leaf_index: self.watermarks.len(),
            rows,
            page_accesses,
        });
    }

    /// Fail-stops the stream: latches the storage error (the first one
    /// wins) and abandons every leaf not handed out yet. Everything emitted
    /// is covered by a watermark; the caller emits nothing of the failing
    /// chunk.
    pub(crate) fn fail(&mut self, error: PageIoError) {
        self.error.get_or_insert(error);
        self.cursor.abandon();
    }

    /// The error that fail-stopped the stream, if any.
    pub(crate) fn error(&self) -> Option<&PageIoError> {
        self.error.as_ref()
    }

    /// The samples, watermarks and profile of a drained stream — or the
    /// error that cut it short.
    pub(crate) fn finish(
        self,
    ) -> Result<(Vec<ProgressSample>, Vec<LeafWatermark>, QueryProfile), PageIoError> {
        let done = (self.progress, self.watermarks, self.profile);
        self.error.map_or(Ok(done), Err)
    }
}

/// A lazy stream of join rows that checkpoints per leaf: what the request
/// server's drive loop needs from the pair stream and the tuple stream.
pub(crate) trait LeafStream: Iterator {
    fn ledger(&self) -> &StreamLedger;
}

/// The per-worker scratch of one join unit: the Voronoi traversal's decode
/// arena + clip buffers, the conditional filter's, the clip buffers of the
/// unit's own polygon work (multiway narrowing), and the one edge table
/// and box-kernel hits both joins' leaf scans share, with the binary
/// report's join marks. A stream allocates **one per pool worker at
/// construction** ([`UnitScratch::per_worker`]) and lends them to every
/// parallel phase, so the SoA hot loops run allocation-free at steady state.
#[derive(Debug, Default)]
pub(crate) struct UnitScratch {
    pub(crate) vor: VorScratch,
    pub(crate) filter: FilterScratch,
    pub(crate) clip: ClipScratch,
    /// One row per cell of the leaf being reported (`crate::nm`), or one
    /// box-only row per candidate cell a leaf's partial regions are
    /// narrowed by (`crate::multiway`).
    pub(crate) edges: EdgeTable,
    /// The rows [`EdgeTable::overlapping`] returned for the last query box.
    pub(crate) hits: Vec<u32>,
    /// Per candidate of that leaf: whether it has joined yet.
    pub(crate) marked: Vec<bool>,
}

impl UnitScratch {
    /// Scratch pre-sized for nodes of the given byte budget.
    pub(crate) fn for_budget(node_byte_budget: usize) -> Self {
        UnitScratch {
            vor: VorScratch::for_budget(node_byte_budget),
            filter: FilterScratch::for_budget(node_byte_budget),
            clip: ClipScratch::new(),
            ..UnitScratch::default()
        }
    }

    /// One scratch per pool worker of `env`.
    pub(crate) fn per_worker(env: &UnitEnv) -> Vec<Self> {
        (0..env.workers)
            .map(|_| UnitScratch::for_budget(env.budget))
            .collect()
    }
}

/// Runs `f(i, scratch)` for `i` in `0..n` on a scoped pool of at most
/// `scratches.len()` threads and returns the results in index order —
/// [`run_ordered_units`] for phases whose units carry no slot of their own.
pub(crate) fn run_ordered_scratch<S, T, F>(scratches: &mut [S], n: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    run_ordered_units(scratches, &mut vec![(); n], |i, (), scratch| f(i, scratch))
}

/// Runs `f(i, &mut units[i], scratch)` for every unit on a scoped pool of
/// at most `scratches.len()` threads and returns the results in unit order.
/// Each pool thread owns one of the caller's scratches for the whole call
/// (the per-worker reuse that keeps the SoA hot loops allocation-free — the
/// caller keeps the scratches alive across calls); units are handed out
/// one at a time from a shared queue, so uneven units balance across the
/// pool, and each unit's `&mut` slot goes to exactly the thread that runs
/// it. At one scratch (or one unit) the pool degenerates to inline calls.
/// Worker panics propagate to the caller.
///
/// # Panics
///
/// Panics if `scratches` is empty while `units` is not.
pub(crate) fn run_ordered_units<U, S, T, F>(scratches: &mut [S], units: &mut [U], f: F) -> Vec<T>
where
    U: Send,
    S: Send,
    T: Send,
    F: Fn(usize, &mut U, &mut S) -> T + Sync,
{
    let n = units.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = scratches.len().min(n);
    if threads <= 1 {
        let scratch = scratches.first_mut().expect("one scratch per pool worker");
        return units
            .iter_mut()
            .enumerate()
            .map(|(i, unit)| f(i, unit, scratch))
            .collect();
    }
    let queue = Mutex::new(units.iter_mut().enumerate());
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let (queue, f) = (&queue, &f);
        let handles: Vec<_> = scratches[..threads]
            .iter_mut()
            .map(|scratch| {
                scope.spawn(move || {
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Only the hand-out runs under the lock; it cannot
                        // panic, so the lock is never poisoned.
                        let next = queue.lock().expect("unit queue lock").next();
                        let Some((i, unit)) = next else {
                            break;
                        };
                        produced.push((i, f(i, unit, scratch)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("chunk worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every unit produces a result"))
        .collect()
}

/// The fail-stop gate after a parallel phase: the first error latched in
/// any of the phase's logs (in the given — leaf — order), as `Err`.
pub(crate) fn gate<'l>(logs: impl IntoIterator<Item = &'l Log>) -> Result<(), PageIoError> {
    logs.into_iter()
        .find_map(|log| log.error.clone())
        .map_or(Ok(()), Err)
}

/// The coordinator's replacement-policy verdict for one unit: which
/// candidates hit the reuse buffer and in which slot, which must be computed
/// (`missing`, in candidate order — exactly the cells a one-unit-at-a-time
/// run would compute), and the slot each of those is kept in.
struct UnitPlan {
    /// Aligned with the unit's candidates: the slot of a hit, `None` for a
    /// miss.
    hit: Vec<Option<u32>>,
    /// Candidates whose exact cells this unit computes, in candidate order.
    missing: Vec<PointObject>,
    /// Aligned with `missing`: the slot its put claimed (`None` at capacity
    /// 0).
    puts: Vec<Option<u32>>,
    /// What the unit's candidates did to the cache.
    counts: CellCounts,
}

/// Cache policy: runs the replacement policy of one unit over `candidates` on
/// the real cache (coordinator only, unit order) — the exact
/// hit/miss/eviction sequence a one-unit-at-a-time run would produce.
fn policy_pass(cache: &mut CellCache, candidates: &[PointObject]) -> UnitPlan {
    let evictions = cache.evictions();
    let hit: Vec<Option<u32>> = (candidates.iter())
        .map(|cand| cache.policy_get(cand.id.0))
        .collect();
    let missing: Vec<PointObject> = (candidates.iter().zip(&hit))
        .filter(|(_, hit)| hit.is_none())
        .map(|(cand, _)| *cand)
        .collect();
    let puts = (missing.iter())
        .map(|cand| cache.policy_put(cand.id.0))
        .collect();
    let counts = CellCounts {
        computed: missing.len() as u64,
        reused: (candidates.len() - missing.len()) as u64,
        evicted: cache.evictions() - evictions,
    };
    UnitPlan {
        hit,
        missing,
        puts,
        counts,
    }
}

/// Refine: the exact cells of every unit's `missing` candidates, computed
/// in parallel over snapshot readers of tree `tree` (each worker on its own
/// Voronoi scratch), each with the unit's time, and the phase's fail-stop
/// gate: cells refined from an error-empty read would be geometrically
/// wrong, so any latched error fails the whole phase.
fn refine_missing(
    acct: &Accounting<'_>,
    tree: usize,
    plans: &[UnitPlan],
    env: &UnitEnv,
    scratches: &mut [UnitScratch],
) -> Result<Vec<(Vec<ConvexPolygon>, Log, Duration)>, PageIoError> {
    let refined = run_ordered_scratch(scratches, plans.len(), |u, scratch| {
        let missing = &plans[u].missing;
        if missing.is_empty() {
            return Default::default();
        }
        let mut lap = Lap::start();
        let mut reader = acct.reader(tree);
        let vor = &mut scratch.vor;
        let cells = batch_voronoi(&mut reader, missing, &env.domain, &mut NoCache, vor);
        (cells, reader.finish(), lap.lap())
    });
    gate(refined.iter().map(|(_, log, _)| log))?;
    Ok(refined)
}

/// Resolve: one unit's aligned candidate cells — hits from their
/// cache slots, misses from the unit's freshly refined cells, each of which
/// is also filled into its put's slot (coordinator only, unit order).
fn resolve_unit(
    cache: &mut CellCache,
    plan: &UnitPlan,
    refined: Vec<ConvexPolygon>,
) -> Vec<ConvexPolygon> {
    // Hits first: sequential gets all happen before any put, so a slot this
    // unit's own puts claim must still serve the hits recorded before them.
    let hits: Vec<Option<ConvexPolygon>> = (plan.hit.iter())
        .map(|hit| hit.map(|slot| cache.cell(slot).clone()))
        .collect();
    // Then each miss fills its put's slot and takes its fresh cell — moved,
    // not cloned.
    let mut fresh = refined.into_iter().zip(&plan.puts).map(|(cell, put)| {
        if let Some(slot) = *put {
            cache.fill(slot, &cell);
        }
        cell
    });
    hits.into_iter()
        .map(|hit| hit.unwrap_or_else(|| fresh.next().expect("one refined cell per miss")))
        .collect()
}

/// One leaf of a driving tree after [`seed_leaves`].
pub(crate) struct Seed {
    /// The leaf's points.
    pub(crate) group: Vec<PointObject>,
    /// Their exact cells, aligned with `group`.
    pub(crate) cells: Vec<ConvexPolygon>,
    /// Deferred read accounting of the leaf read and the cells.
    pub(crate) log: Log,
    time: Duration,
}

/// The seed stage: reads each leaf of `chunk` from tree `tree` and computes
/// its points' exact cells with [`NoCache`], in parallel, then the gate.
/// Every point of a driving tree lies in exactly one leaf, so a reuse
/// buffer would never hit. Its time goes to `lap` as [`Phase::Scan`].
pub(crate) fn seed_leaves(
    acct: &Accounting<'_>,
    tree: usize,
    chunk: &[PageId],
    env: &UnitEnv,
    scratches: &mut [UnitScratch],
    lap: &mut Lap,
) -> Result<Vec<Seed>, PageIoError> {
    let seeds: Vec<Seed> = run_ordered_scratch(scratches, chunk.len(), |i, scratch| {
        let mut unit = Lap::start();
        let mut reader = acct.reader(tree);
        let group = reader.read(chunk[i]).objects;
        let cells = if group.is_empty() {
            Vec::new()
        } else {
            batch_voronoi(
                &mut reader,
                &group,
                &env.domain,
                &mut NoCache,
                &mut scratch.vor,
            )
        };
        Seed {
            group,
            cells,
            log: reader.finish(),
            time: unit.lap(),
        }
    });
    lap.lap();
    seeds
        .iter()
        .for_each(|seed| lap.times[Phase::Scan] += seed.time);
    gate(seeds.iter().map(|seed| &seed.log))?;
    Ok(seeds)
}

/// One leaf's probe of one set ([`probe_round`]).
#[derive(Default)]
pub(crate) struct LeafProbe {
    /// Whether the leaf had regions, and so made a filter call.
    probed: bool,
    /// The filter's candidates.
    pub(crate) candidates: Vec<PointObject>,
    /// Their exact cells, aligned with `candidates`.
    pub(crate) cells: Vec<ConvexPolygon>,
    filter: FilterStats,
    /// What the candidates did to the set's reuse buffer.
    counts: CellCounts,
    /// Deferred read accounting of the filter call, then of the refinement.
    pub(crate) filter_log: Log,
    pub(crate) refine_log: Log,
    time: Duration,
}

impl LeafProbe {
    /// Folds the probe into the work counts of its leaf as set `set`'s.
    pub(crate) fn fold(&self, set: usize, work: &mut WorkCounts) {
        work.filter_calls += u64::from(self.probed);
        work.filter_candidates += self.candidates.len() as u64;
        work.filter.absorb(&self.filter);
        work.cells[set] = self.counts;
    }
}

/// The probe stage: one batch conditional filter call per leaf that has
/// `regions` — or pieces, when it passes any (each entry aligned with the
/// chunk's leaves) — against tree `tree`, in parallel, then the gate; then
/// the candidates' exact cells through `cache` — cache policy, refine,
/// resolve — with the hit/miss/eviction sequence, and so the set of cells
/// computed, of a one-leaf-at-a-time run.
/// Its time goes to `lap` as [`Phase::Filter`] and [`Phase::Refine`].
pub(crate) fn probe_round(
    acct: &Accounting<'_>,
    tree: usize,
    cache: &mut CellCache,
    regions: &[(&[ConvexPolygon], Option<Pieces<'_>>)],
    env: &UnitEnv,
    scratches: &mut [UnitScratch],
    lap: &mut Lap,
) -> Result<Vec<LeafProbe>, PageIoError> {
    let mut probes: Vec<LeafProbe> = run_ordered_scratch(scratches, regions.len(), |i, scratch| {
        let (leaf_regions, pieces) = regions[i];
        if pieces.map_or(leaf_regions, |p| p.polys).is_empty() {
            return LeafProbe::default();
        }
        let mut unit = Lap::start();
        let mut reader = acct.reader(tree);
        let (candidates, filter) = two_level_filter(
            &mut reader,
            leaf_regions,
            pieces,
            &env.domain,
            &mut scratch.filter,
        );
        LeafProbe {
            probed: true,
            candidates,
            filter,
            filter_log: reader.finish(),
            time: unit.lap(),
            ..LeafProbe::default()
        }
    });
    lap.lap();
    probes
        .iter()
        .for_each(|probe| lap.times[Phase::Filter] += probe.time);
    gate(probes.iter().map(|probe| &probe.filter_log))?;

    let plans: Vec<UnitPlan> = (probes.iter())
        .map(|probe| policy_pass(cache, &probe.candidates))
        .collect();
    lap.charge(Phase::Refine);
    let refined = refine_missing(acct, tree, &plans, env, scratches)?;
    lap.lap();
    for ((probe, plan), (fresh, log, time)) in probes.iter_mut().zip(plans).zip(refined) {
        lap.times[Phase::Refine] += time;
        probe.cells = resolve_unit(cache, &plan, fresh);
        probe.counts = plan.counts;
        probe.refine_log = log;
    }
    lap.charge(Phase::Refine);
    Ok(probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::MultiwayWorkload;
    use cij_geom::Point;
    use cij_pagestore::{FaultKind, FaultProfile};
    use cij_rtree::RTreeConfig;
    use cij_voronoi::CellStore;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> CijConfig {
        CijConfig::default().with_rtree(RTreeConfig {
            page_size: 256,
            max_entries: 64,
        })
    }

    /// A one-tree workload over 400 seeded points, cold, with a 4-page
    /// buffer (so the access pattern below both hits and evicts).
    fn workload() -> MultiwayWorkload {
        let mut rng = StdRng::seed_from_u64(77);
        let points: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect();
        let mut w = MultiwayWorkload::build(&[points], &config());
        w.trees[0].flush();
        w.trees[0].set_buffer_pages(4);
        w.reset_measurement();
        w
    }

    /// Root, the first leaves, the root again, the same leaves backwards.
    fn access_pattern(tree: &RTree<PointObject>) -> Vec<PageId> {
        let root = tree.root_page();
        let leaves = SnapshotReader::new(tree).leaf_pages_hilbert_order(&config().domain);
        assert!(leaves.len() > 8, "the pattern must overflow the buffer");
        let mut pattern = vec![root];
        pattern.extend(&leaves[..8]);
        pattern.push(root);
        pattern.extend(leaves[..8].iter().rev());
        pattern
    }

    /// Counted reads of `pattern` on one workload, and a metered settle of
    /// a traced reader's log of the same reads on another; `arm` runs on
    /// the second workload's tree between finishing the reader and
    /// settling. The settle must pay exactly what the direct reads paid —
    /// the same `IoStats` and buffer MRU order — transfer nothing, and
    /// release the log's pins.
    fn settle_against_direct_reads(arm: impl FnOnce(&mut RTree<PointObject>)) {
        let mut live = workload();
        let mut deferred = workload();
        let pattern = access_pattern(&live.trees[0]);
        for &page in &pattern {
            live.trees[0].try_read_node(page).unwrap();
        }

        let mut reader = SnapshotReader::traced(&deferred.trees[0]);
        for &page in &pattern {
            reader.visit(page, &mut |_| {});
        }
        let log = reader.finish();
        let traced: Vec<PageId> = log.trace.iter().map(|page| page.id()).collect();
        assert_eq!(traced, pattern);
        arm(&mut deferred.trees[0]);
        let io_before = deferred.backend_io();
        let stats = deferred.stats.clone();
        let trees = deferred.trees.iter_mut().collect();
        let mut acct = Accounting::exclusive(ExecMode::Metered, trees, &stats);
        assert_eq!(
            acct.join_io().page_accesses(),
            0,
            "nothing is paid before settling"
        );
        acct.settle(0, log);
        assert_eq!(
            acct.tree(0).pinned_pages(),
            0,
            "the settled log kept its pins"
        );
        assert_eq!(live.stats.snapshot(), stats.snapshot());
        assert_eq!(acct.join_io(), stats.snapshot());
        drop(acct);

        assert_eq!(
            live.trees[0].buffered_pages_mru_to_lru(),
            deferred.trees[0].buffered_pages_mru_to_lru()
        );
        let moved = deferred.backend_io().since(&io_before);
        assert_eq!(
            moved,
            Default::default(),
            "the settle transferred {moved:?}"
        );
        assert_eq!(deferred.trees[0].fault_stats().injected_read_faults, 0);
    }

    #[test]
    fn metered_settle_equals_performing_the_reads_directly() {
        settle_against_direct_reads(|_| {});
    }

    #[test]
    fn a_metered_settle_reads_nothing_so_a_fault_armed_after_the_reads_cannot_fail_it() {
        settle_against_direct_reads(|tree| {
            tree.inject_fault(FaultProfile::fail_read(0, FaultKind::Persistent));
        });
    }

    #[test]
    fn fast_settle_adds_to_the_local_counter_and_touches_no_io_stats() {
        let mut w = workload();
        let pattern = access_pattern(&w.trees[0]);
        let stats = w.stats.clone();
        // Exclusive trees in fast mode and shared trees account alike.
        for shared in [false, true] {
            let mut acct = if shared {
                Accounting::shared(w.trees.iter().collect())
            } else {
                Accounting::exclusive(ExecMode::Fast, w.trees.iter_mut().collect(), &stats)
            };
            let mut reader = acct.reader(0);
            for &page in &pattern {
                reader.visit(page, &mut |_| {});
            }
            let log = reader.finish();
            assert!(log.trace.is_empty(), "fast readers keep no trace");
            acct.settle(0, log);
            let expected = pattern.len() as u64;
            assert_eq!(acct.join_io().page_accesses(), expected);
            assert_eq!(acct.join_io().logical_reads, expected);
            assert_eq!(stats.snapshot(), Default::default());
        }
    }

    #[test]
    fn leaf_order_is_one_walk_in_both_currencies() {
        let domain = config().domain;
        let mut metered = workload();
        let stats = metered.stats.clone();
        let trees = metered.trees.iter_mut().collect();
        let mut acct = Accounting::exclusive(ExecMode::Metered, trees, &stats);
        let counted = acct.leaf_order(0, &domain).unwrap();
        assert!(counted.len() > 4);
        let counted_reads = stats.snapshot().logical_reads;
        assert_eq!(acct.join_io().logical_reads, counted_reads);

        let fast = workload();
        let mut acct = Accounting::shared(fast.trees.iter().collect());
        assert_eq!(acct.leaf_order(0, &domain).unwrap(), counted);
        assert_eq!(acct.join_io().page_accesses(), counted_reads);
        assert_eq!(fast.stats.snapshot(), Default::default());
    }

    #[test]
    fn leaf_order_and_the_gate_surface_storage_errors_instead_of_panicking() {
        let domain = config().domain;
        let mut w = workload();
        let root = w.trees[0].root_page();
        let stats = w.stats.clone();
        w.trees[0].inject_fault(FaultProfile::CorruptFrame(root.0));
        let trees = w.trees.iter_mut().collect();
        let mut acct = Accounting::exclusive(ExecMode::Metered, trees, &stats);
        let err = acct.leaf_order(0, &domain).unwrap_err();
        assert_eq!((err.kind, err.page), (FaultKind::Corrupt, Some(root.0)));
        // Same walk, fast currency.
        let mut acct = Accounting::shared(w.trees.iter().collect());
        assert_eq!(
            acct.leaf_order(0, &domain).unwrap_err().kind,
            FaultKind::Corrupt
        );
        // And the gate reports the first latched error in log order.
        let (clean, failed) = (
            Log::default(),
            Log {
                error: Some(err.clone()),
                ..Log::default()
            },
        );
        assert_eq!(gate([&clean, &failed, &clean]), Err(err));
        assert_eq!(gate([&clean, &clean]), Ok(()));
    }

    #[test]
    fn chunk_widths_ramp_and_cover_every_leaf_once() {
        let leaves: Vec<PageId> = (0..30).map(PageId).collect();
        let mut cursor = LeafCursor::new(leaves.clone());
        let mut seen = Vec::new();
        let mut widths = Vec::new();
        while !cursor.is_exhausted() {
            let chunk = cursor.next_chunk(3);
            widths.push(chunk.len());
            seen.extend(chunk);
        }
        assert_eq!(seen, leaves);
        assert_eq!(widths, [1, 3, 12, 12, 2]);
        let mut cursor = LeafCursor::new(leaves);
        assert_eq!(cursor.next_chunk(3), [PageId(0)]);
        cursor.abandon();
        assert!(cursor.is_exhausted());
    }

    /// A cell that names its point: the square of side `id + 1`.
    fn tagged(id: u64) -> ConvexPolygon {
        let side = (id + 1) as f64;
        ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, side, side))
    }

    proptest! {
        /// One chunk — every unit's policy pass, then every unit resolved in
        /// order — serves each candidate its own cell and counts exactly
        /// what units run one at a time through `CellStore` get/put count.
        /// Small caches over 16 ids reach the cross-unit cases: a hit whose
        /// id a later unit of the chunk evicts, and a unit whose own put
        /// reclaims the slot one of its hits reads.
        #[test]
        fn a_chunk_serves_every_candidate_its_own_cell_and_counts_like_get_put(
            capacity in 0usize..=5,
            ids in proptest::collection::vec(proptest::collection::vec(0u64..16, 0..8), 1..7),
        ) {
            let units: Vec<Vec<PointObject>> = ids
                .iter()
                .map(|unit| unit.iter().map(|&id| PointObject::new(id, Point::new(0.0, 0.0))).collect())
                .collect();
            let mut chunked = CellCache::new(capacity);
            let plans: Vec<UnitPlan> = units.iter().map(|unit| policy_pass(&mut chunked, unit)).collect();
            let mut one_at_a_time = CellCache::new(capacity);
            for (u, (unit, plan)) in units.iter().zip(&plans).enumerate() {
                let refined = plan.missing.iter().map(|cand| tagged(cand.id.0)).collect();
                let cells = resolve_unit(&mut chunked, plan, refined);
                prop_assert_eq!(cells.len(), unit.len());
                for (cand, cell) in unit.iter().zip(&cells) {
                    prop_assert_eq!(cell, &tagged(cand.id.0), "unit {}, id {}", u, cand.id.0);
                }

                let before = (one_at_a_time.hits(), one_at_a_time.misses(), one_at_a_time.evictions());
                let missing: Vec<u64> = unit
                    .iter()
                    .map(|cand| cand.id.0)
                    .filter(|&id| one_at_a_time.get(id).is_none())
                    .collect();
                for id in missing {
                    one_at_a_time.put(id, &tagged(id));
                }
                let counts = CellCounts {
                    reused: one_at_a_time.hits() - before.0,
                    computed: one_at_a_time.misses() - before.1,
                    evicted: one_at_a_time.evictions() - before.2,
                };
                prop_assert_eq!(plan.counts, counts, "unit {}", u);
            }
            prop_assert_eq!(chunked.len(), one_at_a_time.len());
        }
    }
}
