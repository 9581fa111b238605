//! Multiway common influence join — the extension the paper lists as future
//! work ("we plan to generalize CIJ computation for multiple pointsets and
//! develop multiway CIJ algorithms") — implemented as a first-class engine
//! component: leaf-batched, streaming and optionally parallel.
//!
//! Given pointsets `S1, …, Sk`, the multiway CIJ returns every tuple
//! `(s1, …, sk)` with `si ∈ Si` such that **one common location** exists that
//! is simultaneously inside the influence region (Voronoi cell) of every
//! `si`, i.e. `⋂ᵢ V(si, Si) ≠ ∅`. Note that pairwise intersection is *not*
//! sufficient for `k ≥ 3`: three convex cells can pairwise intersect yet
//! share no common point, so the join must track the running intersection
//! region explicitly.
//!
//! # Leaf-batched, cost-planned evaluation
//!
//! Evaluation is driven by the leaves of the **driver** set's R-tree,
//! walked in Hilbert order exactly like the outer loop of binary NM-CIJ.
//! The driver is picked by a cost model over tree metadata —
//! [`pick_driver`], estimated leaves of the driver × summed fan-out of the
//! extension sets; cost ties fall to the lowest set index. The remaining
//! sets are probed in input order. One leaf unit flows through `k` rounds:
//!
//! * **Seed (round 0)**: the Voronoi cells of the leaf's points are computed
//!   with BatchVoronoi once, without a reuse buffer, like NM-CIJ's `Q`
//!   cells: every driver point lies in exactly one leaf, so a buffer would
//!   never hit. The driver's `cells[i].computed` is its point count, and it
//!   reuses and evicts nothing.
//! * **Extend (rounds 1 … k−1)**: each leaf with live partial tuples issues
//!   *one* [`batch_conditional_filter`] call for all of them — the same
//!   redundant-traversal cut that batching the cells of one `RQ` leaf gives
//!   binary NM-CIJ (probing once per partial tuple instead costs 8–44× the
//!   page accesses at k = 2…4). The call's regions are the leaf's seed
//!   cells. In round 1 they are the partial regions themselves; from round
//!   2 on, the live partial regions ride along as the **pieces** of the
//!   seed cells of the members that lead them. A member's pieces cover its
//!   seed cell, so the filter asks the few seed cells what it asked the
//!   many partial regions, and keeps the pieces' traversal order and
//!   shield decisions (`crates/core/src/filter.rs`, "Regions and their
//!   pieces"). Candidate cells are then resolved through the set's
//!   [`CellCache`] and each partial region is narrowed by polygon
//!   intersection with the candidate cells whose boxes meet its own — one
//!   box-kernel call per region, below — and empty intersections drop the
//!   candidate tuple.
//!
//! The candidate×partial narrowing of every extension round goes
//! **box-first**: the leaf's candidate cells are box-only rows of the
//! worker's [`EdgeTable`], and one call of its branch-free box kernel
//! ([`EdgeTable::overlapping`], the one NM's report runs too) per partial
//! region returns the candidates whose boxes meet the region's, ascending.
//! Only those are clipped; the **bbox-disjoint** rest — boxes farther
//! apart than their tolerance ([`cij_geom::tolerance::widened`]), whose
//! polygon intersection would be empty anyway — are skipped outright,
//! observable as [`WorkCounts::narrowings_skipped`]. The kernel lets
//! through exactly the combinations a per-pair box test did, in the same
//! order, so tuples and counts are those of the per-pair loop (held to it
//! by this module's tests).
//!
//! The partial tuples of one leaf stay spatially close through every round
//! (they are intersections of neighbouring cells), which is what makes the
//! per-leaf batch probe effective.
//!
//! # Partial tuples
//!
//! Between two rounds the live partial tuples of one leaf are one
//! struct-of-arrays table (`Partials`): the ids flat in one `Vec<u64>` with
//! stride = rounds done, the regions in one `Vec<ConvexPolygon>`. Narrowing
//! keeps the tuples of one driver member together, in member order, and
//! the table records per member where its run of tuples ends: the runs
//! that make the regions the pieces of their seed cells. A round costs per
//! region what it does per region, not per region × use:
//!
//! * the filter phase **borrows** the seed table's regions as the probe's
//!   regions and the current table's as their pieces — nothing is cloned
//!   to call it;
//! * narrowing ([`ConvexPolygon::intersection_into`]) clips in the worker's
//!   [`ClipScratch`] and copies only a non-empty result into the next
//!   table's next outline buffer, so an attempt that comes out empty costs
//!   no allocation and no copy, and an outline buffer only ever grows to
//!   the largest *result* it has held;
//! * the tables themselves are recycled. The stream owns a free list: a
//!   round takes its output tables from it, a table goes back — outline
//!   buffers and all — once the round that read it is done or the consumer
//!   has pulled its last tuple, trimmed to the buffers its last use filled
//!   so the list tracks what recent leaves needed rather than the largest
//!   leaf ever seen. At most two tables per leaf of a chunk are in flight,
//!   so the list is bounded by the chunk width. Seed tables are the one
//!   exception: their regions are the exact-size cells the seed stage
//!   returned, and they live through every round of their leaf, as the
//!   regions of its probes, and are dropped after its last;
//! * each leaf's work counts and read logs are kept in a stream-owned book,
//!   one per leaf of the widest chunk, rewritten per leaf.
//!
//! A tuple's region bits depend on the candidate set the filter returned,
//! not only on its ids: BatchVoronoi computes a candidate group's cells
//! together, so one extra false hit can round a neighbour's cell — and so
//! a region — differently in its last bits. A parity test across a change
//! to the *filter* therefore compares tuple ids, not region bits (the
//! two-level probe's stress range does). A change that leaves every
//! candidate set as it was, such as the box kernel in front of the
//! narrowing, must keep the region bits too.
//!
//! An owned [`MultiwayTuple`] — two heap objects by its public shape — is
//! built in exactly one place, [`Iterator::next`]: a finished leaf queues
//! its final *table*, and each pull copies one row out (ids permuted back to
//! input order, the region an exact-size copy of its outline). Tuples the
//! consumer never pulls are never built, a buffered chunk is held once
//! rather than once as tables and once as tuples, and the outline buffers
//! stay with the stream.
//!
//! # Streaming
//!
//! [`TupleStream`] is the multiway analogue of
//! [`PairStream`](crate::engine::PairStream): a lazy pull-based iterator of
//! [`MultiwayTuple`]s. Leaf units are processed only as the consumer
//! demands tuples, progress samples accumulate per productive leaf, and a
//! [`LeafWatermark`] is recorded per completed leaf — everything emitted up
//! to a watermark is final, so downstream operators can checkpoint at leaf
//! granularity. The blocking
//! [`QueryEngine::multiway`](crate::engine::QueryEngine::multiway) drains
//! the stream, and
//! [`QueryEngine::multiway_stream`](crate::engine::QueryEngine::multiway_stream)
//! exposes it directly.
//!
//! # One execution path
//!
//! Every run — any [`CijConfig::worker_threads`], either
//! [`CijConfig::exec_mode`](crate::config::CijConfig::exec_mode) — is the
//! chunk protocol of the crate-private `chunk` module (described once, in
//! `crates/core/src/chunk.rs`), over `k` trees and `k − 1` caches: round 0
//! is its seed stage over the driver, and each extension round its probe
//! stage over one more set followed by the per-leaf narrowing — the same
//! two stages NM-CIJ runs — with every read's deferred accounting settled
//! leaf-major at emit time. The sequential run is that protocol at worker
//! count 1 (the pool degenerates to inline calls), so tuples (set *and*
//! order), the profile's [`WorkCounts`], page-access totals, progress samples
//! and watermarks are identical at any thread count by construction — and
//! asserted by `tests/multiway.rs`.
//! The determinism argument, the fail-stop gates and what the two
//! accounting states mean for "page accesses" are described there; a fast
//! stream over a shared tree slice (no exclusive workload at all) backs the
//! concurrent request server in [`crate::service`].
//!
//! [`batch_conditional_filter`]: crate::filter::batch_conditional_filter_scratch
//! [`CellCache`]: crate::cell_cache::CellCache
//! [`ClipScratch`]: cij_geom::ClipScratch
//! [`EdgeTable`]: cij_geom::EdgeTable
//! [`EdgeTable::overlapping`]: cij_geom::EdgeTable::overlapping
//! [`CijConfig::worker_threads`]: crate::config::CijConfig::worker_threads
//! [`pick_driver`]: crate::workload::pick_driver

use crate::cell_cache::CellCache;
use crate::chunk::{
    probe_round, run_ordered_units, seed_leaves, Accounting, LeafStream, Log, StreamLedger,
    UnitEnv, UnitScratch,
};
use crate::config::CijConfig;
use crate::filter::Pieces;
use crate::stats::{Lap, LeafWatermark, Phase, ProgressSample, QueryProfile, WorkCounts};
use crate::workload::{pick_driver, MultiwayWorkload};
use cij_geom::tolerance::widened;
use cij_geom::{ConvexPolygon, Point, Rect};
use cij_pagestore::PageIoError;
use cij_rtree::{PointObject, RTree};
use cij_voronoi::brute_force_diagram;
use std::collections::VecDeque;
use std::time::Duration;

/// One result tuple of a multiway CIJ: the ids of the joined points (one per
/// input set, in input order) and the common influence region they share.
#[derive(Debug, Clone)]
pub struct MultiwayTuple {
    /// Point ids, one per input pointset, in the order the sets were given.
    pub ids: Vec<u64>,
    /// The common influence region `⋂ᵢ V(sᵢ, Sᵢ)`.
    pub region: ConvexPolygon,
}

/// Result of a multiway CIJ evaluation.
#[derive(Debug, Clone, Default)]
pub struct MultiwayOutcome {
    /// All result tuples, in emission order (leaf-major, deterministic).
    pub tuples: Vec<MultiwayTuple>,
    /// What the evaluation cost and did; its cells are per input set.
    pub profile: QueryProfile,
    /// Progressive-output samples, one per productive leaf of the driving
    /// tree (`pairs` counts result *tuples* here).
    pub progress: Vec<ProgressSample>,
    /// Per-leaf watermarks, one per leaf of the driving tree.
    pub watermarks: Vec<LeafWatermark>,
    /// The input-set index whose tree drove the evaluation (see
    /// [`pick_driver`]).
    pub driver: usize,
}

impl MultiwayOutcome {
    /// The id tuples, sorted lexicographically (for comparisons in tests).
    ///
    /// Deliberately does **not** dedup: the stream must never emit the same
    /// id tuple twice (each first-set point lives in exactly one leaf and
    /// each filter call returns distinct candidates), so a duplicate is a
    /// bug that should surface in comparisons — and trips the debug
    /// assertion here and in the stream — rather than be papered over.
    pub fn sorted_ids(&self) -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = self.tuples.iter().map(|t| t.ids.clone()).collect();
        v.sort();
        debug_assert!(
            v.windows(2).all(|w| w[0] != w[1]),
            "duplicate multiway tuples must never be emitted"
        );
        v
    }
}

/// The live partial tuples of one leaf between two rounds, as a struct of
/// arrays (module docs, "Partial tuples"): the filter borrows
/// [`Partials::regions`] as they are, narrowing writes the next round's
/// regions into the outline buffers a recycled table brings along, and no
/// per-tuple heap object exists before emission.
#[derive(Debug, Default)]
struct Partials {
    /// Ids per tuple: the rounds done so far, seeding included.
    stride: usize,
    /// Live tuples.
    len: usize,
    /// `len × stride` point ids, tuple-major, in evaluation order.
    ids: Vec<u64>,
    /// `[..len]` are the live regions; the rest are outline buffers left
    /// from the table's earlier use, which narrowing overwrites.
    outlines: Vec<ConvexPolygon>,
    /// The tuples of one driver member are contiguous: per member with
    /// live tuples, in order, its position in the leaf's seed table and
    /// the end of its tuples. Empty in a seed table, where tuple `j` is
    /// member `j`'s ([`Partials::runs`]).
    runs: Vec<(u32, u32)>,
}

impl Partials {
    /// Round 0: one single-id tuple per point of `group`, its region the
    /// point's cell (`cells` aligned with `group`).
    fn seeded(group: &[PointObject], cells: Vec<ConvexPolygon>) -> Self {
        debug_assert_eq!(group.len(), cells.len());
        Partials {
            stride: 1,
            len: group.len(),
            ids: group.iter().map(|obj| obj.id.0).collect(),
            outlines: cells,
            runs: Vec::new(),
        }
    }

    /// The live regions, tuple order.
    fn regions(&self) -> &[ConvexPolygon] {
        &self.outlines[..self.len]
    }

    /// Per driver member with live tuples, in order: its position in the
    /// leaf's seed table and the end of its run of tuples.
    fn runs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let seeded = if self.stride == 1 { self.len as u32 } else { 0 };
        (1..=seeded)
            .map(|j| (j - 1, j))
            .chain(self.runs.iter().copied())
    }

    /// This table's regions as the pieces of the leaf's seed cells, for a
    /// two-level probe (module docs, "Extend").
    fn pieces(&self) -> Pieces<'_> {
        debug_assert!(self.stride > 1, "a seed table's regions are the seed cells");
        Pieces {
            polys: self.regions(),
            runs: &self.runs,
        }
    }

    /// The ids of tuple `j`, evaluation order.
    fn ids_of(&self, j: usize) -> &[u64] {
        &self.ids[j * self.stride..(j + 1) * self.stride]
    }
}

/// One leaf's extension step: narrows each region of `cur` by every
/// candidate cell (`cells` aligned with `candidates`), keeping the non-empty
/// intersections as the tuples of `next` — whatever `next` held is
/// overwritten, its outline buffers reused — and returns the number of
/// narrowings skipped: bbox-disjoint combinations, whose polygon
/// intersection would be empty anyway (the boxes are widened by their
/// tolerance, so degenerate contacts take the clipping path).
///
/// Box-first: the candidate cells go into the scratch's
/// [`EdgeTable`](cij_geom::EdgeTable) as box-only rows, its kernel returns
/// per region the candidates whose boxes meet the region's, ascending, and
/// only those are clipped — the combinations, in the order, that the
/// per-pair box test let through.
fn extend_into(
    cur: &Partials,
    candidates: &[PointObject],
    cells: &[ConvexPolygon],
    scratch: &mut UnitScratch,
    next: &mut Partials,
) -> u64 {
    next.stride = cur.stride + 1;
    next.len = 0;
    next.ids.clear();
    next.runs.clear();
    let UnitScratch {
        clip, edges, hits, ..
    } = scratch;
    edges.clear();
    for cell in cells {
        edges.push_bounds(cell);
    }
    let mut skipped = 0u64;
    let mut start = 0;
    for (member, end) in cur.runs() {
        let before = next.len;
        for j in start as usize..end as usize {
            let region = &cur.outlines[j];
            edges.overlapping(&widened(&region.bbox()), 0..cells.len(), hits);
            skipped += (cells.len() - hits.len()) as u64;
            for &c in hits.iter() {
                if next.outlines.len() == next.len {
                    next.outlines.push(ConvexPolygon::empty());
                }
                // A narrowing that comes out empty leaves its buffer to the
                // next attempt.
                let out = &mut next.outlines[next.len];
                region.intersection_into(&cells[c as usize], clip, out);
                if !out.is_empty() {
                    next.ids.extend_from_slice(cur.ids_of(j));
                    next.ids.push(candidates[c as usize].id.0);
                    next.len += 1;
                }
            }
        }
        if next.len > before {
            next.runs.push((member, next.len as u32));
        }
        start = end;
    }
    skipped
}

/// One leaf's records through a chunk: its work counts, and its deferred
/// read accounting as `(tree index, log)` in the sequential interleaving.
/// The stream keeps one per leaf of its widest chunk and rewrites them, as
/// NM rewrites its one `WorkCounts`.
struct LeafBook {
    work: WorkCounts,
    logs: Vec<(usize, Log)>,
}

/// A lazy pull-based stream of multiway CIJ result tuples — the k-way
/// analogue of [`PairStream`](crate::engine::PairStream).
///
/// Obtained from
/// [`QueryEngine::multiway_stream`](crate::engine::QueryEngine::multiway_stream).
/// The driver set is chosen by the cost model when the stream is created;
/// [`TupleStream::driver`] exposes the choice.
/// Leaf units of the driver set's tree are processed only as tuples are
/// demanded; [`TupleStream::progress_so_far`],
/// [`TupleStream::profile_so_far`] and [`TupleStream::watermarks_so_far`]
/// expose the incremental measurements, and
/// [`TupleStream::try_into_outcome`] drains the remainder into a
/// [`MultiwayOutcome`] or the storage error that stopped it (for the
/// classic collect-all case call
/// [`QueryEngine::multiway`](crate::engine::QueryEngine::multiway)).
pub struct TupleStream<'a> {
    /// The `k` trees (input order) and how their reads are paid for —
    /// fixed at construction (a snapshot source is always fast).
    acct: Accounting<'a>,
    env: UnitEnv,
    /// Evaluation order of the input sets: the driver first, then the
    /// extension sets in input order. Tuple ids are permuted back to input
    /// order on emission.
    eval_order: Vec<usize>,
    /// One reuse buffer per extension set, aligned with
    /// `eval_order[1..]`: the driver's cells are computed once each and
    /// need none.
    caches: Vec<CellCache>,
    /// One unit scratch per pool worker, lent to every parallel phase of
    /// every chunk.
    scratches: Vec<UnitScratch>,
    /// Free list of partial-tuple tables: emitted or superseded tables wait
    /// here, outline buffers and all, for the next extension round. At most
    /// two tables per leaf of a chunk are ever in flight, so the list stops
    /// growing after the first full-width chunk.
    spare: Vec<Partials>,
    /// The final tables of completed leaves, leaf order; the consumer's
    /// pulls build the owned tuples off the front one.
    pending: VecDeque<Partials>,
    /// Tuples of `pending`'s front table already pulled.
    pulled: usize,
    /// One book per leaf of the widest chunk so far, rewritten per leaf.
    books: Vec<LeafBook>,
    /// Leaves to come, progress samples, watermarks, the profile and the
    /// fail-stop latch: once an error is latched no further leaves run,
    /// nothing from the failing leaf or chunk was emitted, and everything
    /// emitted stays valid.
    ledger: StreamLedger,
    /// Debug-build guard: every emitted id tuple must be unique.
    /// Membership-only (the `insert` return value is the whole check; never
    /// iterated), so `HashSet` order cannot leak (allowlisted CIJ-D102).
    #[cfg(debug_assertions)]
    seen_ids: std::collections::HashSet<Vec<u64>>,
}

impl std::fmt::Debug for TupleStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleStream")
            .field("k", &self.acct.k())
            .finish_non_exhaustive()
    }
}

impl<'a> TupleStream<'a> {
    /// Stream over an exclusive workload, in the configured execution mode,
    /// driven by the cost model's pick.
    pub(crate) fn new(workload: &'a mut MultiwayWorkload, config: CijConfig) -> Self {
        let driver = pick_driver(&workload.trees.iter().collect::<Vec<_>>());
        Self::with_driver(workload, driver, config)
    }

    /// [`TupleStream::new`] at a given driver set — also the pin for tests
    /// that compare plans.
    fn with_driver(workload: &'a mut MultiwayWorkload, driver: usize, config: CijConfig) -> Self {
        let stats = workload.stats.clone();
        let trees = workload.trees.iter_mut().collect();
        let acct = Accounting::exclusive(config.exec_mode, trees, &stats);
        Self::start(acct, driver, config.cell_cache_capacity, &config)
    }

    /// Fast-mode stream over shared read-only `trees` — the constructor the
    /// concurrent request server uses: many queries can hold streams over
    /// the same snapshot simultaneously. Each extension set gets a reuse
    /// buffer of `capacity` cells (typically a share of a
    /// [`CacheBudget`](crate::cell_cache::CacheBudget) lease).
    ///
    /// Accounting is fast regardless of `config.exec_mode`: metered
    /// accounting needs exclusive tree access.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty.
    pub(crate) fn over_snapshot(
        trees: Vec<&'a RTree<PointObject>>,
        capacity: usize,
        config: CijConfig,
    ) -> Self {
        assert!(
            !trees.is_empty(),
            "multiway CIJ needs at least one pointset"
        );
        let driver = pick_driver(&trees);
        Self::start(Accounting::shared(trees), driver, capacity, &config)
    }

    /// The one constructor body: walks the driver's leaf order in the
    /// accounting's currency (a failed walk yields a stream that is born
    /// fail-stopped: no leaves, the error latched) and gives each extension
    /// set a reuse buffer of `capacity` cells.
    fn start(mut acct: Accounting<'a>, driver: usize, capacity: usize, config: &CijConfig) -> Self {
        let k = acct.k();
        let mut eval_order = vec![driver];
        eval_order.extend((0..k).filter(|&s| s != driver));
        let ledger = StreamLedger::start(&mut acct, driver, &config.domain);
        let env = UnitEnv::new(config, acct.tree(driver).config().node_byte_budget());
        TupleStream {
            env,
            acct,
            eval_order,
            caches: (1..k).map(|_| CellCache::new(capacity)).collect(),
            scratches: UnitScratch::per_worker(&env),
            spare: Vec::new(),
            pending: VecDeque::new(),
            pulled: 0,
            books: Vec::new(),
            ledger,
            #[cfg(debug_assertions)]
            seen_ids: std::collections::HashSet::new(),
        }
    }

    /// The input-set index whose tree drives this evaluation.
    pub fn driver(&self) -> usize {
        self.eval_order[0]
    }

    /// The progressive-output samples recorded so far (one per productive
    /// leaf of the driving tree; `pairs` counts tuples).
    pub fn progress_so_far(&self) -> Vec<ProgressSample> {
        self.ledger.progress.clone()
    }

    /// The profile so far: its work counts are exact at leaf boundaries and
    /// count rows ahead of what the consumer has pulled by the buffered
    /// tuples.
    pub fn profile_so_far(&self) -> QueryProfile {
        self.ledger.profile.clone()
    }

    /// The per-leaf watermarks recorded so far. Everything up to the last
    /// watermark is final: no later leaf can add or change those tuples.
    pub fn watermarks_so_far(&self) -> Vec<LeafWatermark> {
        self.ledger.watermarks.clone()
    }

    /// The first storage error this stream hit, if any. The stream is
    /// **fail-stop**: when a page read fails irrecoverably the error
    /// latches, nothing from the failing chunk is emitted and the stream
    /// ends. A consumer that sees the stream end must poll this before
    /// trusting completeness.
    pub fn io_error(&self) -> Option<PageIoError> {
        self.ledger.error().cloned()
    }

    /// Drains the remaining tuples and packages everything into a
    /// [`MultiwayOutcome`] (tuples already pulled through the iterator are
    /// *not* replayed); `Err` when the stream fail-stopped.
    pub fn try_into_outcome(mut self) -> Result<MultiwayOutcome, PageIoError> {
        // The drain's time outside its chunks is the hand-off of the tuples.
        let (mut lap, before) = (Lap::start(), self.ledger.profile.elapsed.total());
        let tuples = self.by_ref().collect();
        let chunks = self.ledger.profile.elapsed.total() - before;
        self.ledger.profile.elapsed[Phase::Emit] += lap.lap().saturating_sub(chunks);
        let (progress, watermarks, profile) = self.ledger.finish()?;
        Ok(MultiwayOutcome {
            tuples,
            profile,
            progress,
            watermarks,
            driver: self.eval_order[0],
        })
    }

    /// Processes the next bounded chunk of leaf units — the stages of
    /// [`crate::chunk`]: one seed, then one probe per extension set — and
    /// appends the resulting tuples to `pending` in leaf order, charging
    /// each phase's time to the profile. `Err` fail-stops the stream.
    fn run_chunk(&mut self) -> Result<(), PageIoError> {
        let env = self.env;
        let mut lap = Lap::start();
        let chunk = self.ledger.cursor.next_chunk(env.workers);
        let k = self.acct.k();
        let driver = self.eval_order[0];
        let (acct, scratches) = (&self.acct, &mut self.scratches[..]);

        // Seed (round 0): each driver leaf's points and their cells, as
        // single-id partial tuples whose table lives through every round.
        // Per leaf, folded at its sequential emit position (so the profile
        // and the watermarks are leaf-exact): its work counts — each set is
        // visited in exactly one round — and its deferred read accounting,
        // `(tree index, log)` in the sequential interleaving: seed, then
        // per round filter and refine. Settled leaf-major, so every tree's
        // buffer sees the access sequence of a width-1 run (buffers are
        // per-tree; the per-tree subsequence is what matters).
        let seeds = seed_leaves(acct, driver, &chunk, &env, scratches, &mut lap)?;
        if self.books.len() < seeds.len() {
            self.books.resize_with(seeds.len(), || LeafBook {
                work: WorkCounts::for_sets(k),
                logs: Vec::with_capacity(2 * k - 1),
            });
        }
        let books = &mut self.books[..seeds.len()];
        let mut seeded: Vec<Partials> = Vec::with_capacity(seeds.len());
        for (seed, book) in seeds.into_iter().zip(books.iter_mut()) {
            book.work.clear();
            book.work.cells[driver].computed = seed.group.len() as u64;
            book.logs.push((driver, seed.log));
            seeded.push(Partials::seeded(&seed.group, seed.cells));
        }
        lap.charge(Phase::Scan);

        // Extension rounds: one per remaining set, in evaluation order.
        let mut partials: Vec<Partials> = Vec::new();
        for (round, (&set_idx, cache)) in self.eval_order[1..]
            .iter()
            .zip(&mut self.caches)
            .enumerate()
        {
            // Probe: ONE filter call per leaf with live partials, borrowing
            // the leaf's seed cells as its regions and, after the first
            // round, its live partial regions as their pieces; then the
            // candidates' exact cells through the set's cache.
            let cur = if round == 0 { &seeded } else { &partials };
            let regions: Vec<(&[ConvexPolygon], Option<Pieces<'_>>)> = (seeded.iter().zip(cur))
                .map(|(seed, table)| (seed.regions(), (round > 0).then(|| table.pieces())))
                .collect();
            let probes = probe_round(acct, set_idx, cache, &regions, &env, scratches, &mut lap)?;

            // Extend (parallel, per leaf): narrow each partial region by
            // the candidate cells whose boxes meet its own into a table off
            // the free list, dropping empty intersections.
            let mut next: Vec<Partials> = (0..cur.len())
                .map(|_| self.spare.pop().unwrap_or_default())
                .collect();
            lap.charge(Phase::Report);
            let skipped: Vec<(u64, Duration)> =
                run_ordered_units(scratches, &mut next, |i, next, scratch| {
                    let mut lap = Lap::start();
                    let (candidates, cells) = (&probes[i].candidates, &probes[i].cells);
                    let skipped = extend_into(&cur[i], candidates, cells, scratch, next);
                    (skipped, lap.lap())
                });
            lap.lap();

            // Fold the round into the leaves' records, filter before refine.
            for ((probe, (skipped, time)), book) in probes.into_iter().zip(skipped).zip(&mut *books)
            {
                lap.times[Phase::Report] += time;
                probe.fold(set_idx, &mut book.work);
                book.work.narrowings_skipped += skipped;
                book.logs.push((set_idx, probe.filter_log));
                book.logs.push((set_idx, probe.refine_log));
            }
            // The superseded tables go back on the free list.
            for table in std::mem::replace(&mut partials, next) {
                recycle(&mut self.spare, table);
            }
            lap.charge(Phase::Report);
        }
        // With one set the seed tables are the final ones; otherwise they
        // are dropped here, after the leaf's last round.
        let finals = if k == 1 { seeded } else { partials };

        // Emit (coordinator, leaf order): settle the leaf's logs, fold its
        // work counts into the profile with its progress sample and
        // watermark, and queue the leaf's final table for the consumer.
        for (table, book) in finals.into_iter().zip(books) {
            for (tree, log) in book.logs.drain(..) {
                self.acct.settle(tree, log);
            }
            book.work.rows = table.len as u64;
            // A leaf with points seeded cells.
            let productive = book.work.cells[driver].computed > 0;
            self.ledger
                .record_leaf(self.acct.join_io(), productive, &book.work);
            self.pending.push_back(table);
        }
        lap.charge(Phase::Emit);
        self.ledger.profile.elapsed += lap.times;
        Ok(())
    }

    /// Builds the owned tuple `j` of `table` — the only place a
    /// [`MultiwayTuple`] comes into being: ids permuted back to input-set
    /// order, the region an exact-size copy of its outline.
    fn tuple_of(&self, table: &Partials, j: usize) -> MultiwayTuple {
        let row = table.ids_of(j);
        let mut ids = vec![0u64; row.len()];
        for (&set, &id) in self.eval_order.iter().zip(row) {
            ids[set] = id;
        }
        MultiwayTuple {
            ids,
            region: table.regions()[j].clone(),
        }
    }
}

/// Puts a table nobody reads any more on the free list `spare`. Seed tables
/// (stride 1) are dropped instead: their regions are the seed stage's
/// exact-size cells rather than grown outline buffers, and keeping one per
/// leaf would grow the list without bound.
fn recycle(spare: &mut Vec<Partials>, mut table: Partials) {
    if table.stride > 1 {
        table.outlines.truncate(table.len);
        spare.push(table);
    }
}

/// The literal extension step, the reference [`extend_into`] is tested
/// against: one owned [`MultiwayTuple`] per partial, **every** combination
/// narrowed through [`ConvexPolygon::intersection`] (held to a plain
/// Sutherland–Hodgman reference in `cij_geom`). Also returns how many were
/// bbox-disjoint, after checking each came out empty: the product skips them.
#[cfg(test)]
fn extend_partials(
    partials: &[MultiwayTuple],
    candidates: &[PointObject],
    cells: &[ConvexPolygon],
) -> (Vec<MultiwayTuple>, u64) {
    let mut out = Vec::new();
    let mut disjoint = 0u64;
    for partial in partials {
        for (cand, cell) in candidates.iter().zip(cells) {
            let region = partial.region.intersection(cell);
            if !widened(&partial.region.bbox()).intersects(&widened(&cell.bbox())) {
                assert!(region.is_empty(), "a bbox-disjoint narrowing is empty");
                disjoint += 1;
            }
            if !region.is_empty() {
                let mut ids = partial.ids.clone();
                ids.push(cand.id.0);
                out.push(MultiwayTuple { ids, region });
            }
        }
    }
    (out, disjoint)
}

impl Iterator for TupleStream<'_> {
    type Item = MultiwayTuple;

    fn next(&mut self) -> Option<MultiwayTuple> {
        loop {
            if let Some(table) = self.pending.front() {
                if self.pulled < table.len {
                    let tuple = self.tuple_of(table, self.pulled);
                    self.pulled += 1;
                    #[cfg(debug_assertions)]
                    debug_assert!(
                        self.seen_ids.insert(tuple.ids.clone()),
                        "duplicate multiway tuple emitted: {:?}",
                        tuple.ids
                    );
                    return Some(tuple);
                }
                let drained = self.pending.pop_front().expect("front table exists");
                self.pulled = 0;
                recycle(&mut self.spare, drained);
                continue;
            }
            if self.ledger.cursor.is_exhausted() {
                return None;
            }
            if let Err(error) = self.run_chunk() {
                // Tuples already emitted (all watermarked) stay valid. The
                // failing chunk's reads are never settled: their logs go
                // now, and with them their pins.
                self.ledger.fail(error);
                self.books.iter_mut().for_each(|book| book.logs.clear());
            }
        }
    }
}

impl LeafStream for TupleStream<'_> {
    fn ledger(&self) -> &StreamLedger {
        &self.ledger
    }
}

/// Brute-force multiway CIJ oracle: builds every Voronoi diagram by halfplane
/// intersection and enumerates all id combinations whose cells share a
/// common region. Exponential in the number of sets — test-sized inputs only.
pub fn brute_force_multiway_cij(sets: &[Vec<Point>], domain: &Rect) -> Vec<Vec<u64>> {
    assert!(!sets.is_empty());
    let diagrams: Vec<Vec<ConvexPolygon>> = sets
        .iter()
        .map(|points| brute_force_diagram(points, domain))
        .collect();
    let mut results: Vec<(Vec<u64>, ConvexPolygon)> = diagrams[0]
        .iter()
        .enumerate()
        .map(|(i, c)| (vec![i as u64], c.clone()))
        .collect();
    for diagram in diagrams.iter().skip(1) {
        let mut next = Vec::new();
        for (ids, region) in &results {
            for (j, cell) in diagram.iter().enumerate() {
                let inter = region.intersection(cell);
                if !inter.is_empty() {
                    let mut ids = ids.clone();
                    ids.push(j as u64);
                    next.push((ids, inter));
                }
            }
        }
        results = next;
    }
    let mut ids: Vec<Vec<u64>> = results.into_iter().map(|(ids, _)| ids).collect();
    ids.sort();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use crate::config::ExecMode;
    use crate::filter::{
        batch_conditional_filter_scratch, near_degenerate_sites, two_level_filter, FilterOptions,
        FilterScratch, FilterStats,
    };
    use crate::grouped::LocationProbe;
    use crate::nm::assert_report_is_per_pair;
    use crate::workload::Workload;
    use crate::QueryEngine;
    use cij_datagen::{clustered_points, ClusterSpec};
    use cij_rtree::{NodeReader, RTreeConfig, SnapshotReader};
    use cij_voronoi::{batch_voronoi, NoCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> CijConfig {
        CijConfig::default().with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    /// The multiway join of `sets` to completion, through the front door.
    fn multiway_join(sets: &[Vec<Point>], config: &CijConfig) -> MultiwayOutcome {
        QueryEngine::new(*config).multiway(sets)
    }

    /// The join of `sets` driven by set `driver`, whatever the cost model
    /// would pick.
    fn pinned(sets: &[Vec<Point>], driver: usize, config: &CijConfig) -> MultiwayOutcome {
        let mut w = MultiwayWorkload::build(sets, config);
        TupleStream::with_driver(&mut w, driver, *config)
            .try_into_outcome()
            .unwrap()
    }

    #[test]
    fn two_way_multiway_matches_binary_cij() {
        let config = small_config();
        let p = random_points(50, 201);
        let q = random_points(60, 202);
        let outcome = multiway_join(&[p.clone(), q.clone()], &config);
        let binary: Vec<Vec<u64>> = brute_force_cij(&p, &q, &config.domain)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        assert_eq!(outcome.sorted_ids(), binary);
    }

    #[test]
    fn three_way_matches_brute_force() {
        let config = small_config();
        let sets = vec![
            random_points(25, 211),
            random_points(30, 212),
            random_points(20, 213),
        ];
        let outcome = multiway_join(&sets, &config);
        let oracle = brute_force_multiway_cij(&sets, &config.domain);
        assert_eq!(outcome.sorted_ids(), oracle);
        assert!(!outcome.tuples.is_empty());
    }

    #[test]
    fn seeding_computes_each_driver_cell_once() {
        let sets = vec![random_points(40, 217), random_points(45, 218)];
        let outcome = multiway_join(&sets, &small_config().with_cell_cache_capacity(4));
        // The assertions are about the *driver's* seeding semantics,
        // whichever set the cost model drives with.
        let (driver, extension) = (outcome.driver, 1 - outcome.driver);
        // Every driver point lives in exactly one leaf, so each seed cell is
        // computed exactly once, without a reuse buffer: even a tiny one
        // evicts nothing of the driver's.
        let seeds = outcome.profile.work.cells[driver];
        assert_eq!(seeds.computed, sets[driver].len() as u64);
        assert_eq!((seeds.reused, seeds.evicted), (0, 0));
        // The extension set's candidates overlap across leaves, so reuse
        // kicks in there.
        assert!(outcome.profile.work.cells[extension].computed > 0);
        assert!(outcome.profile.work.cells[extension].reused > 0);
        assert_eq!(outcome.profile.work.rows, outcome.tuples.len() as u64);
    }

    #[test]
    fn watermarks_checkpoint_every_leaf() {
        let config = small_config();
        let sets = vec![random_points(120, 219), random_points(120, 220)];
        let outcome = multiway_join(&sets, &config);
        assert!(!outcome.watermarks.is_empty());
        for (i, w) in outcome.watermarks.iter().enumerate() {
            assert_eq!(w.leaf_index, i, "watermarks are dense and ordered");
        }
        for pair in outcome.watermarks.windows(2) {
            assert!(pair[0].rows <= pair[1].rows);
            assert!(pair[0].page_accesses <= pair[1].page_accesses);
        }
        let last = outcome.watermarks.last().unwrap();
        assert_eq!(last.rows, outcome.tuples.len() as u64);
        assert_eq!(last.page_accesses, outcome.profile.page_accesses());
    }

    #[test]
    fn pairwise_intersection_is_not_sufficient_for_three_way() {
        // Construct three cells that pairwise intersect but share no common
        // point is hard with Voronoi cells directly; instead verify that the
        // three-way result is a subset of what pairwise checking would give,
        // and strictly smaller on at least some random instance.
        let config = small_config();
        let sets = vec![
            random_points(30, 221),
            random_points(30, 222),
            random_points(30, 223),
        ];
        let three_way = brute_force_multiway_cij(&sets, &config.domain);
        // Pairwise approximation.
        let d: Vec<Vec<ConvexPolygon>> = sets
            .iter()
            .map(|s| brute_force_diagram(s, &config.domain))
            .collect();
        let mut pairwise = Vec::new();
        for i in 0..sets[0].len() {
            for j in 0..sets[1].len() {
                if !d[0][i].intersects(&d[1][j]) {
                    continue;
                }
                for k in 0..sets[2].len() {
                    if d[0][i].intersects(&d[2][k]) && d[1][j].intersects(&d[2][k]) {
                        pairwise.push(vec![i as u64, j as u64, k as u64]);
                    }
                }
            }
        }
        pairwise.sort();
        for t in &three_way {
            assert!(
                pairwise.binary_search(t).is_ok(),
                "tuple {t:?} not pairwise-consistent"
            );
        }
        assert!(
            three_way.len() < pairwise.len(),
            "expected the common-location requirement to prune some pairwise-only tuples \
             ({} vs {})",
            three_way.len(),
            pairwise.len()
        );
    }

    #[test]
    fn single_set_returns_one_tuple_per_point() {
        let config = small_config();
        let p = random_points(40, 231);
        let outcome = multiway_join(std::slice::from_ref(&p), &config);
        assert_eq!(outcome.tuples.len(), p.len());
        // The regions are the Voronoi cells and tile the domain.
        let total: f64 = outcome.tuples.iter().map(|t| t.region.area()).sum();
        assert!((total - config.domain.area()).abs() / config.domain.area() < 1e-6);
    }

    #[test]
    fn regions_are_inside_every_member_cell() {
        let config = small_config();
        let sets = vec![
            random_points(20, 241),
            random_points(22, 242),
            random_points(18, 243),
        ];
        let diagrams: Vec<Vec<ConvexPolygon>> = sets
            .iter()
            .map(|s| brute_force_diagram(s, &config.domain))
            .collect();
        let outcome = multiway_join(&sets, &config);
        assert!(!outcome.tuples.is_empty());
        for tuple in &outcome.tuples {
            let c = tuple
                .region
                .centroid()
                .expect("result regions are never empty");
            for (set_idx, &id) in tuple.ids.iter().enumerate() {
                let cell = &diagrams[set_idx][id as usize];
                assert!(
                    cell.intersects(&tuple.region),
                    "region of {:?} escapes the cell of set {set_idx} point {id}",
                    tuple.ids
                );
                // The region is the running intersection of exactly these
                // cells, so its centroid must lie in every member's exact
                // cell (within the boundary tolerance of `contains_point`,
                // which covers degenerate zero-area intersections).
                assert!(
                    cell.contains_point(&c),
                    "centroid {c:?} of {:?} lies outside the cell of set {set_idx} point {id}",
                    tuple.ids
                );
            }
        }
    }

    #[test]
    fn every_driver_choice_produces_the_oracle_result() {
        // Asymmetric sizes so the drivers genuinely differ in leaf counts.
        let config = small_config();
        let sets = vec![
            random_points(60, 251),
            random_points(35, 252),
            random_points(20, 253),
        ];
        let oracle = brute_force_multiway_cij(&sets, &config.domain);
        for d in 0..sets.len() {
            let outcome = pinned(&sets, d, &config);
            assert_eq!(outcome.driver, d);
            assert_eq!(outcome.sorted_ids(), oracle, "driver {d} diverged");
        }
        let cost_based = multiway_join(&sets, &config);
        assert_eq!(cost_based.sorted_ids(), oracle);
        // The cost-based choice matches the workload's own ranking.
        let w = MultiwayWorkload::build(&sets, &config);
        assert_eq!(
            cost_based.driver,
            pick_driver(&w.trees.iter().collect::<Vec<_>>())
        );
    }

    /// On asymmetric clustered sets (set `i` holds `n / (i + 1)` points, so
    /// the driver choice matters) the cost model's plan issues strictly
    /// fewer filter probes than driving with set 0 for the same tuples,
    /// extension rounds skip bbox-disjoint narrowings, and four workers
    /// reproduce one worker's tuples, counters and page accesses exactly.
    #[test]
    fn the_planned_driver_probes_less_than_set_zero_with_exact_thread_parity() {
        let spec = |n| ClusterSpec {
            n,
            clusters: 8,
            sigma_fraction: 0.04,
            background_fraction: 0.1,
            size_skew: 0.7,
        };
        let config = small_config();
        for k in [2usize, 3, 4] {
            let sets: Vec<Vec<Point>> = (0..k)
                .map(|i| clustered_points(&spec(600 / (i + 1)), &config.domain, 14_001 + i as u64))
                .collect();
            let planned = multiway_join(&sets, &config);
            let zero = pinned(&sets, 0, &config);
            assert_ne!(planned.driver, 0, "k = {k}");
            assert_eq!(planned.sorted_ids(), zero.sorted_ids(), "k = {k}");
            assert!(
                planned.profile.work.filter_calls < zero.profile.work.filter_calls,
                "k = {k}: {} probes planned vs {} driving with set 0",
                planned.profile.work.filter_calls,
                zero.profile.work.filter_calls
            );
            assert!(planned.profile.work.narrowings_skipped > 0, "k = {k}");

            let parallel = multiway_join(&sets, &config.with_worker_threads(4));
            let ids = |o: &MultiwayOutcome| -> Vec<Vec<u64>> {
                o.tuples.iter().map(|t| t.ids.clone()).collect()
            };
            assert_eq!(ids(&parallel), ids(&planned), "k = {k}");
            assert_eq!(parallel.profile.work, planned.profile.work, "k = {k}");
            assert_eq!(
                parallel.profile.page_accesses(),
                planned.profile.page_accesses(),
                "k = {k}"
            );
        }
    }

    /// One filter call of [`join_leaf_by_leaf`]: extension round `round`
    /// (the first is 1) of one driver leaf against `tree`.
    struct ProbeCall<'a> {
        round: usize,
        tree: &'a mut RTree<PointObject>,
        /// The leaf's seed cells, aligned with its points.
        seeds: &'a [ConvexPolygon],
        /// The regions of the leaf's live partial tuples, and per driver
        /// member with any, its position in `seeds` and the end of its run.
        partials: &'a [ConvexPolygon],
        runs: &'a [(u32, u32)],
        domain: Rect,
        filter: &'a mut FilterScratch,
    }

    impl ProbeCall<'_> {
        /// The probe before regions had pieces: the partial regions alone.
        fn partials_only(&mut self) -> (Vec<PointObject>, FilterStats) {
            let options = FilterOptions::default();
            let (tree, domain) = (&mut *self.tree, &self.domain);
            batch_conditional_filter_scratch(tree, self.partials, domain, &options, self.filter)
        }

        /// The probe the stream makes: the seed cells, with the partial
        /// regions as their pieces after the first round.
        fn as_the_stream(&mut self) -> (Vec<PointObject>, FilterStats) {
            let pieces = (self.round > 1).then_some(Pieces {
                polys: self.partials,
                runs: self.runs,
            });
            two_level_filter(self.tree, self.seeds, pieces, &self.domain, self.filter)
        }
    }

    /// What [`join_leaf_by_leaf`] returns: the work counts as of each
    /// driver leaf and the tuples, evaluation order.
    struct LeafByLeaf {
        work: Vec<WorkCounts>,
        tuples: Vec<MultiwayTuple>,
    }

    /// The join one driver leaf at a time, every read a counted read
    /// through the trees' own buffers, every seed cell computed without a
    /// cache and every candidate cell through its set's cache as a
    /// `CellStore`, every extension through [`extend_partials`], and every
    /// probe the one `probe` makes of its call.
    fn join_leaf_by_leaf(
        sets: &[Vec<Point>],
        config: &CijConfig,
        mut probe: impl FnMut(ProbeCall<'_>) -> (Vec<PointObject>, FilterStats),
    ) -> LeafByLeaf {
        let mut w = MultiwayWorkload::build(sets, config);
        let (driver, k, domain) = (
            pick_driver(&w.trees.iter().collect::<Vec<_>>()),
            w.k(),
            config.domain,
        );
        let capacity = config.cell_cache_capacity;
        let mut caches: Vec<CellCache> = (0..k).map(|_| CellCache::new(capacity)).collect();
        let UnitScratch { vor, filter, .. } = &mut UnitScratch::default();
        let narrow = &mut UnitScratch::default();
        let mut order = vec![driver];
        order.extend((0..k).filter(|&s| s != driver));
        let (mut work, mut per_leaf, mut tuples) =
            (WorkCounts::for_sets(k), Vec::new(), Vec::new());
        for leaf in w.trees[driver].leaf_pages_hilbert_order(&domain) {
            let group = NodeReader::read(&mut w.trees[driver], leaf).objects;
            let (mut seeds, mut partials) = (Vec::new(), Vec::new());
            for (round, &s) in order.iter().enumerate() {
                let (tree, cache) = (&mut w.trees[s], &mut caches[s]);
                let candidates = if round == 0 {
                    group.clone()
                } else if partials.is_empty() {
                    Vec::new()
                } else {
                    let regions: Vec<ConvexPolygon> = partials
                        .iter()
                        .map(|t: &MultiwayTuple| t.region.clone())
                        .collect();
                    let runs = member_runs(&group, &partials);
                    let call = ProbeCall {
                        round,
                        tree: &mut *tree,
                        seeds: &seeds,
                        partials: &regions,
                        runs: &runs,
                        domain,
                        filter: &mut *filter,
                    };
                    let (candidates, stats) = probe(call);
                    work.filter_calls += 1;
                    work.filter_candidates += candidates.len() as u64;
                    work.filter.absorb(&stats);
                    candidates
                };
                let (hits, misses) = (cache.hits(), cache.misses());
                let cells = if round == 0 {
                    work.cells[s].computed += candidates.len() as u64;
                    batch_voronoi(tree, &candidates, &domain, &mut NoCache, vor)
                } else {
                    batch_voronoi(tree, &candidates, &domain, cache, vor)
                };
                let counts = &mut work.cells[s];
                counts.computed += cache.misses() - misses;
                counts.reused += cache.hits() - hits;
                counts.evicted = cache.evictions();
                partials = if round == 0 {
                    seeds = cells.clone();
                    let seeds = candidates.iter().zip(cells);
                    let seeds = seeds.map(|(obj, region)| MultiwayTuple {
                        ids: vec![obj.id.0],
                        region,
                    });
                    seeds.collect()
                } else {
                    let (next, skipped) = extend_partials(&partials, &candidates, &cells);
                    let step = (&partials[..], &candidates[..], &cells[..]);
                    assert_narrowing_is_per_pair(&group, step, (&next, skipped), narrow);
                    work.narrowings_skipped += skipped;
                    next
                };
            }
            work.rows += partials.len() as u64;
            per_leaf.push(work.clone());
            tuples.extend(partials);
        }
        LeafByLeaf {
            work: per_leaf,
            tuples,
        }
    }

    /// Per driver member of `group` with tuples in `partials` — contiguous,
    /// in member order, each led by its member's id — its position in
    /// `group` and the end of its run.
    fn member_runs(group: &[PointObject], partials: &[MultiwayTuple]) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for (j, tuple) in partials.iter().enumerate() {
            let member = group.iter().position(|o| o.id.0 == tuple.ids[0]).unwrap() as u32;
            match runs.last_mut() {
                Some((m, end)) if *m == member => *end = j as u32 + 1,
                _ => {
                    assert!(
                        runs.iter().all(|&(m, _)| m < member),
                        "runs are in member order"
                    );
                    runs.push((member, j as u32 + 1));
                }
            }
        }
        runs
    }

    /// `partials`, led by members of the driver leaf `group`, as the table
    /// the stream narrows.
    fn table_of(group: &[PointObject], partials: &[MultiwayTuple]) -> Partials {
        let stride = partials.first().map_or(1, |t| t.ids.len());
        Partials {
            stride,
            len: partials.len(),
            ids: partials
                .iter()
                .flat_map(|t| t.ids.iter().copied())
                .collect(),
            outlines: partials.iter().map(|t| t.region.clone()).collect(),
            runs: match stride {
                1 => Vec::new(),
                _ => member_runs(group, partials),
            },
        }
    }

    /// Ids and region bits of every tuple of `table`, in order.
    fn table_bits(table: &Partials) -> Vec<(Vec<u64>, Vec<u64>)> {
        let bits = |v: &Point| [v.x.to_bits(), v.y.to_bits()];
        (0..table.len)
            .map(|j| {
                let region = table.regions()[j].vertices();
                (
                    table.ids_of(j).to_vec(),
                    region.iter().flat_map(bits).collect(),
                )
            })
            .collect()
    }

    /// Narrows `partials` (of the driver leaf `group`) by the candidate
    /// cells through [`extend_into`]'s box kernel, into a dirty table, and
    /// holds it to the literal per-pair step's tuples (ids and region
    /// bits, in order), member runs and skip count.
    fn assert_narrowing_is_per_pair(
        group: &[PointObject],
        (partials, candidates, cells): (&[MultiwayTuple], &[PointObject], &[ConvexPolygon]),
        (expected, skipped): (&[MultiwayTuple], u64),
        scratch: &mut UnitScratch,
    ) {
        let mut next = table_of(group, partials);
        let found = extend_into(
            &table_of(group, partials),
            candidates,
            cells,
            scratch,
            &mut next,
        );
        assert_eq!(found, skipped, "narrowings skipped");
        assert_eq!(table_bits(&next), tuple_bits(expected), "tuples");
        assert_eq!(next.runs, member_runs(group, expected), "member runs");
    }

    /// NM's report and multiway's narrowing of stress case `case` at scale
    /// `2^e` ([`stress_case`]), each through the box kernel and through a
    /// per-pair loop kept as its reference, on the same inputs: the binary
    /// join of the case's second set by its first, every leaf of `RQ`
    /// reported with the third set as grouped-NN locations
    /// ([`crate::nm::assert_report_is_per_pair`]), and the k-way join
    /// driven leaf by leaf as the stream probes, every extension step held
    /// to the literal per-pair step, [`extend_partials`]
    /// ([`assert_narrowing_is_per_pair`]). Returns the pairs, claims,
    /// tuples and narrowings skipped.
    fn assert_box_kernel_is_per_pair(e: i32, case: u64) -> [u64; 4] {
        let (sets, config) = stress_case(e, case);
        let domain = config.domain;
        let what = format!("e {e}, case {case}");
        let mut w = Workload::build(&sets[1], &sets[0], &config);
        let locations = LocationProbe::new(&sets[2], &domain);
        let UnitScratch { vor, filter, .. } = &mut UnitScratch::default();
        let scratch = &mut UnitScratch::default();
        let (mut pairs, mut claims) = (0, 0);
        for leaf in w.rq.leaf_pages_hilbert_order(&domain) {
            let group = NodeReader::read(&mut w.rq, leaf).objects;
            let cells_q = batch_voronoi(&mut w.rq, &group, &domain, &mut NoCache, vor);
            let options = FilterOptions::default();
            let (candidates, _) =
                batch_conditional_filter_scratch(&mut w.rp, &cells_q, &domain, &options, filter);
            let cells_p = batch_voronoi(&mut w.rp, &candidates, &domain, &mut NoCache, vor);
            let (q, p) = ((&group[..], &cells_q[..]), (&candidates[..], &cells_p[..]));
            let (leaf_pairs, leaf_claims) =
                assert_report_is_per_pair(Some(&locations), q, p, scratch, &what);
            pairs += leaf_pairs as u64;
            claims += leaf_claims as u64;
        }
        let join = join_leaf_by_leaf(&sets, &config, |mut call| call.as_the_stream());
        let skipped = join.work.last().map_or(0, |w| w.narrowings_skipped);
        [pairs, claims, join.tuples.len() as u64, skipped]
    }

    /// The box kernel reports and narrows as the per-pair loops do
    /// ([`assert_box_kernel_is_per_pair`]) on the stress range's first
    /// sixteen cases at scale 1.
    #[test]
    fn the_box_kernel_reports_and_narrows_as_the_per_pair_loops() {
        let mut totals = [0; 4];
        for case in 0..16 {
            let counts = assert_box_kernel_is_per_pair(0, case);
            totals.iter_mut().zip(counts).for_each(|(t, c)| *t += c);
        }
        assert!(totals.iter().all(|&t| t > 0), "{totals:?}");
    }

    /// The stress range of the box kernel: [`assert_box_kernel_is_per_pair`]
    /// on the two-level probe's 816 3- and 4-way cases — the exact oracle's
    /// lattice sets (collinear, cocircular, on the domain boundary, with
    /// repeats) and the filter stress range's ulp-nudged ones — at every
    /// scale `2^e`, `|e| ≤ 40`: pairs, claims, true hits, tuples (ids and
    /// region bits) and narrowings skipped identical. A CI step of its own,
    /// in release (≈ 3 s):
    /// `cargo test --release -p cij-core --lib
    /// the_box_kernel_equals_the_per_pair_loops_on_lattice_and_near_degenerate_sets_at_every_scale
    /// -- --ignored`.
    #[test]
    #[ignore = "stress range: its own CI step, in release"]
    fn the_box_kernel_equals_the_per_pair_loops_on_lattice_and_near_degenerate_sets_at_every_scale()
    {
        let (mut joins, mut totals) = (0, [0; 4]);
        for e in (-40..=40).step_by(5) {
            for case in 0..48u64 {
                let counts = assert_box_kernel_is_per_pair(e, case);
                totals.iter_mut().zip(counts).for_each(|(t, c)| *t += c);
                joins += 1;
            }
        }
        let [pairs, claims, tuples, skipped] = totals;
        assert!(totals.iter().all(|&t| t > 0), "{totals:?}");
        eprintln!(
            "{joins} cases: {pairs} pairs, {claims} claims, {tuples} tuples and \
             {skipped} narrowings skipped, each identical through the box kernel"
        );
    }

    /// The work counts as of each driver leaf of the join probing as the
    /// stream does.
    fn work_leaf_by_leaf(sets: &[Vec<Point>], config: &CijConfig) -> Vec<WorkCounts> {
        join_leaf_by_leaf(sets, config, |mut call| call.as_the_stream()).work
    }

    /// Drives the join of `sets` leaf by leaf and holds every filter call of
    /// every extension round after the first to the partials-only probe it
    /// replaced: the same candidates in the same order with the same
    /// statistics, the index's skipped tests aside — it holds fewer
    /// polygons. On a lattice a point can lie exactly on the boundary
    /// between two pieces, inside their region: the regions' inside-point
    /// rule then takes it without the cell the pieces computed, so with
    /// `lattice` the clip counts are left out too. Returns how many calls
    /// were compared, and in how many the index skipped fewer tests.
    fn assert_probes_agree(
        what: &str,
        sets: &[Vec<Point>],
        config: &CijConfig,
        lattice: bool,
    ) -> (u64, u64) {
        let (mut calls, mut skipped_less) = (0, 0);
        let join = join_leaf_by_leaf(sets, config, |mut call| {
            let two_level = call.as_the_stream();
            if call.round > 1 {
                let what = format!("{what}, call {calls}");
                let (alone, mut stats) = call.partials_only();
                assert_eq!(ids(&two_level.0), ids(&alone), "{what}");
                skipped_less +=
                    u64::from(two_level.1.poly_tests_skipped < stats.poly_tests_skipped);
                stats.poly_tests_skipped = two_level.1.poly_tests_skipped;
                if lattice {
                    (stats.clip_ops, stats.clip_attempts) =
                        (two_level.1.clip_ops, two_level.1.clip_attempts);
                }
                assert_eq!(two_level.1, stats, "{what}");
                calls += 1;
            }
            two_level
        });
        assert!(!join.tuples.is_empty(), "{what}: no tuples");
        (calls, skipped_less)
    }

    /// The two-level probe returns what the partial regions alone return
    /// ([`assert_probes_agree`]): for k = 3 and 4 on uniform and clustered
    /// sets, and on the stress range's lattice and near-degenerate cases at
    /// scale 1, whose small sets are where a region's shield falls back to
    /// its pieces.
    #[test]
    fn the_two_level_probe_returns_what_the_partial_regions_alone_return() {
        let spec = ClusterSpec {
            n: 260,
            clusters: 4,
            sigma_fraction: 0.05,
            background_fraction: 0.1,
            size_skew: 0.6,
        };
        let config = small_config().with_cell_cache_capacity(64);
        for k in [3usize, 4] {
            for clustered in [false, true] {
                let sets: Vec<Vec<Point>> = (0..k as u64)
                    .map(|i| match clustered {
                        false => random_points(220, 17_000 + i),
                        true => clustered_points(&spec, &config.domain, 17_100 + i),
                    })
                    .collect();
                let what = format!("k = {k}, clustered {clustered}");
                let (calls, skipped_less) = assert_probes_agree(&what, &sets, &config, false);
                assert!(calls > 8, "{what}: {calls} calls");
                assert!(skipped_less > 0, "{what}: the regions index fewer polygons");
            }
        }
        let mut calls = 0;
        for case in 0..16 {
            let (sets, config) = stress_case(0, case);
            calls += assert_probes_agree(&format!("stress case {case}"), &sets, &config, true).0;
        }
        assert!(calls > 40, "{calls} calls");
    }

    /// Candidate ids in order.
    fn ids(candidates: &[PointObject]) -> Vec<u64> {
        candidates.iter().map(|c| c.id.0).collect()
    }

    /// Offsets of length 5: twelve lattice sites on one circle.
    const ON_CIRCLE: [(i64, i64); 12] = [
        (5, 0),
        (4, 3),
        (3, 4),
        (0, 5),
        (-3, 4),
        (-4, 3),
        (-5, 0),
        (-4, -3),
        (-3, -4),
        (0, -5),
        (3, -4),
        (4, -3),
    ];

    /// `n` sites of the lattice of `w` steps of `s` in `[0, w·s]²`, of
    /// one of `tests/exact_oracle.rs`'s kinds: 0 uniform, 1 on a few rows,
    /// columns and diagonals, 2 cocircular around a lattice centre, 3 on
    /// the domain boundary, 4 a mix; every kind but the first repeats some
    /// sites under fresh ids.
    fn lattice_sites(rng: &mut StdRng, kind: usize, n: usize, w: i64, s: f64) -> Vec<Point> {
        let mut sites: Vec<(i64, i64)> = Vec::with_capacity(n);
        let (cx, cy) = (rng.gen_range(5..=w - 5), rng.gen_range(5..=w - 5));
        let line = rng.gen_range(0..=w);
        while sites.len() < n {
            if kind > 0 && !sites.is_empty() && rng.gen_range(0..6) == 0 {
                sites.push(sites[rng.gen_range(0..sites.len())]);
                continue;
            }
            let t = rng.gen_range(0..=w);
            let pick = if kind == 4 { rng.gen_range(0..4) } else { kind };
            sites.push(match pick {
                1 => [(t, line), (line, t), (t, t), (t, w - t)][rng.gen_range(0..4usize)],
                2 => {
                    let (dx, dy) = ON_CIRCLE[rng.gen_range(0..ON_CIRCLE.len())];
                    (cx + dx, cy + dy)
                }
                3 => [(0, t), (w, t), (t, 0), (t, w)][rng.gen_range(0..4usize)],
                _ => (rng.gen_range(0..=w), rng.gen_range(0..=w)),
            });
        }
        (sites.iter())
            .map(|&(x, y)| Point::new(x as f64 * s, y as f64 * s))
            .collect()
    }

    /// Case `case` of the two-level probe's stress range at scale `2^e`: 3
    /// or 4 sets of 12 to 39 sites, of the exact oracle's lattice kinds or
    /// of the filter stress range's near-degenerate ones, and a
    /// quarter-kilobyte-page configuration on their domain.
    fn stress_case(e: i32, case: u64) -> (Vec<Vec<Point>>, CijConfig) {
        let s = 2f64.powi(e);
        let rng = &mut StdRng::seed_from_u64(case * 131 + (e + 40) as u64);
        let k = 3 + (case % 2) as usize;
        let (w, sets): (i64, Vec<Vec<Point>>) = if case % 4 < 2 {
            let w = [16, 64][rng.gen_range(0..2usize)];
            let sets = (0..k)
                .map(|_| {
                    let (kind, n) = (rng.gen_range(0..5), rng.gen_range(12..40));
                    lattice_sites(rng, kind, n, w, s)
                })
                .collect();
            (w, sets)
        } else {
            let centre = Point::new(32.0 * s, 32.0 * s);
            let sets = (0..k)
                .map(|_| {
                    let (kind, n) = (rng.gen_range(0..4), rng.gen_range(12..40));
                    near_degenerate_sites(rng, s, n, kind, centre)
                })
                .collect();
            (64, sets)
        };
        let side = w as f64 * s;
        let config = CijConfig::default()
            .with_rtree(RTreeConfig {
                page_size: 256,
                max_entries: 64,
            })
            .with_domain(Rect::from_coords(0.0, 0.0, side, side));
        (sets, config)
    }

    /// Ids and region bits of every tuple, in order.
    fn tuple_bits(tuples: &[MultiwayTuple]) -> Vec<(Vec<u64>, Vec<u64>)> {
        let bits = |v: &Point| [v.x.to_bits(), v.y.to_bits()];
        (tuples.iter())
            .map(|t| {
                (
                    t.ids.clone(),
                    t.region.vertices().iter().flat_map(bits).collect(),
                )
            })
            .collect()
    }

    /// The stress range of the two-level probe: 3- and 4-way joins of the
    /// exact oracle's lattice sets and of the filter stress range's
    /// near-degenerate sets, at every scale `2^e`, `|e| ≤ 40`, driven leaf
    /// by leaf once with the partial regions alone and once as the stream
    /// probes. The tuple ids, in order, are identical everywhere. Every
    /// candidate one probe returns and the other does not is a false hit:
    /// its exact cell meets none of the partial regions, so it yields no
    /// tuple. Where the two probes return the same candidates, the region
    /// bits are identical too; where a false hit differs, BatchVoronoi
    /// computes its group's cells with or without it, which can move the
    /// low bits of a neighbour's cell and so of a region (816 joins and
    /// 3 025 two-level calls: one differing candidate, in a join whose
    /// regions then differ by a few ulps). A CI step of its own, in release
    /// (≈ 4 s):
    /// `cargo test --release -p cij-core --lib
    /// the_two_level_probe_keeps_every_tuple_on_lattice_and_near_degenerate_sets_at_every_scale
    /// -- --ignored`.
    #[test]
    #[ignore = "stress range: its own CI step, in release"]
    fn the_two_level_probe_keeps_every_tuple_on_lattice_and_near_degenerate_sets_at_every_scale() {
        let (mut joins, mut calls, mut differences) = (0, 0, 0);
        let (mut different_joins, mut moved) = (0, 0);
        let vor = &mut cij_voronoi::VorScratch::default();
        for e in (-40..=40).step_by(5) {
            for case in 0..48u64 {
                let (sets, config) = stress_case(e, case);
                let k = sets.len();
                let what = format!("e {e}, case {case}, k {k}");
                let before = differences;
                let alone = join_leaf_by_leaf(&sets, &config, |mut call| call.partials_only());
                let two_level = join_leaf_by_leaf(&sets, &config, |mut call| {
                    let found = call.as_the_stream();
                    if call.round > 1 {
                        calls += 1;
                        let (reference, _) = call.partials_only();
                        let (ours, theirs) = (ids(&found.0), ids(&reference));
                        let one_sided = (found.0.iter())
                            .filter(|c| !theirs.contains(&c.id.0))
                            .chain(reference.iter().filter(|c| !ours.contains(&c.id.0)));
                        for c in one_sided {
                            differences += 1;
                            let tree = &mut *call.tree;
                            let cells = batch_voronoi(tree, &[*c], &call.domain, &mut NoCache, vor);
                            let yields = call
                                .partials
                                .iter()
                                .any(|t| !t.intersection(&cells[0]).is_empty());
                            assert!(!yields, "{what}: candidate {} yields a tuple", c.id.0);
                        }
                    }
                    found
                });
                let tuple_ids = |join: &LeafByLeaf| -> Vec<Vec<u64>> {
                    join.tuples.iter().map(|t| t.ids.clone()).collect()
                };
                assert_eq!(tuple_ids(&two_level), tuple_ids(&alone), "{what}");
                let (got, want) = (tuple_bits(&two_level.tuples), tuple_bits(&alone.tuples));
                if differences == before {
                    assert_eq!(got, want, "{what}: region bits");
                } else {
                    moved += usize::from(got != want);
                    different_joins += 1;
                }
                joins += 1;
            }
        }
        assert!(
            calls > 2_000,
            "only {calls} two-level calls in {joins} joins"
        );
        eprintln!(
            "{joins} joins, {calls} two-level filter calls, {differences} candidate \
             differences in {different_joins} joins, each a false hit that yields no tuple; \
             region bits moved in {moved} of those joins"
        );
    }

    /// Pulled tuple by tuple, the stream's profile is checked each time a
    /// watermark appears: its work counts are the leaf-by-leaf reference's
    /// as of that leaf, at one and three workers, metered and fast — the
    /// fold is exact per leaf, not only at the end.
    #[test]
    fn the_profile_is_the_leaf_by_leaf_reference_at_every_watermark() {
        let sets = vec![
            random_points(300, 294),
            random_points(260, 295),
            random_points(220, 296),
        ];
        let base = small_config().with_cell_cache_capacity(24);
        let reference = work_leaf_by_leaf(&sets, &base);
        let last = reference.last().unwrap();
        let driver = pick_driver(
            &MultiwayWorkload::build(&sets, &base)
                .trees
                .iter()
                .collect::<Vec<_>>(),
        );
        for (set, cells) in last.cells.iter().enumerate() {
            assert_eq!(cells.evicted > 0, set != driver, "set {set}");
        }
        assert!(last.narrowings_skipped > 0);
        for threads in [1, 3] {
            for mode in [ExecMode::Metered, ExecMode::Fast] {
                let config = base.with_worker_threads(threads).with_exec_mode(mode);
                let mut w = MultiwayWorkload::build(&sets, &config);
                let mut stream = TupleStream::new(&mut w, config);
                let mut checked = 0;
                loop {
                    let marks = stream.watermarks_so_far().len();
                    if marks > checked {
                        let at = format!("{threads} workers, {}, leaf {marks}", mode.name());
                        let work = stream.profile_so_far().work;
                        assert_eq!(work, reference[marks - 1], "{at}");
                        checked = marks;
                    }
                    if stream.next().is_none() {
                        break;
                    }
                }
                assert_eq!(checked, reference.len());
            }
        }
    }

    #[test]
    fn soa_extension_equals_the_allocating_reference() {
        fn bits(region: &ConvexPolygon) -> Vec<(u64, u64)> {
            let vertex = |v: &Point| (v.x.to_bits(), v.y.to_bits());
            region.vertices().iter().map(vertex).collect()
        }
        let domain = small_config().domain;
        let sets = [
            random_points(40, 291),
            random_points(55, 292),
            random_points(35, 293),
        ];
        let objects: Vec<Vec<PointObject>> =
            sets.iter().map(|s| PointObject::from_points(s)).collect();
        let diagrams: Vec<Vec<ConvexPolygon>> = sets
            .iter()
            .map(|s| brute_force_diagram(s, &domain))
            .collect();
        let mut reference: Vec<MultiwayTuple> = objects[0]
            .iter()
            .zip(&diagrams[0])
            .map(|(obj, cell)| MultiwayTuple {
                ids: vec![obj.id.0],
                region: cell.clone(),
            })
            .collect();
        let mut cur = Partials::seeded(&objects[0], diagrams[0].clone());
        // The output table starts dirty — tuples, ids and outlines of an
        // unrelated extension — and the two tables swap every round, like a
        // table coming off the stream's free list.
        let mut next = Partials::default();
        let scratch = &mut UnitScratch::default();
        extend_into(&cur, &objects[2], &diagrams[2], scratch, &mut next);
        assert!(next.len > 0 && next.stride == 2);
        for round in 1..sets.len() {
            let (expected, disjoint) =
                extend_partials(&reference, &objects[round], &diagrams[round]);
            let skipped = extend_into(&cur, &objects[round], &diagrams[round], scratch, &mut next);
            assert_eq!(skipped, disjoint, "round {round}");
            assert!(skipped > 0);
            assert_eq!(next.stride, round + 1);
            assert_eq!(next.regions().len(), expected.len());
            assert!(!expected.is_empty());
            for (j, tuple) in expected.iter().enumerate() {
                assert_eq!(next.ids_of(j), &tuple.ids[..]);
                assert_eq!(bits(&next.regions()[j]), bits(&tuple.region));
            }
            reference = expected;
            std::mem::swap(&mut cur, &mut next);
        }
    }

    #[test]
    fn fast_mode_is_tuple_and_counter_identical_to_metered() {
        let config = small_config();
        let sets = vec![
            random_points(60, 281),
            random_points(50, 282),
            random_points(40, 283),
        ];
        let metered = multiway_join(&sets, &config);
        for threads in [1, 4] {
            let fast_cfg = config
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(threads);
            let mut w = MultiwayWorkload::build(&sets, &fast_cfg);
            let fast = TupleStream::new(&mut w, fast_cfg)
                .try_into_outcome()
                .unwrap();
            let fast_ids: Vec<Vec<u64>> = fast.tuples.iter().map(|t| t.ids.clone()).collect();
            let metered_ids: Vec<Vec<u64>> = metered.tuples.iter().map(|t| t.ids.clone()).collect();
            assert_eq!(fast_ids, metered_ids, "tuple set and order must match");
            assert_eq!(fast.profile.work, metered.profile.work);
            assert_eq!(fast.driver, metered.driver);
            assert!(
                fast.profile.page_accesses() > 0,
                "local reads are accounted"
            );
            assert_eq!(
                fast.watermarks.last().unwrap().page_accesses,
                fast.profile.page_accesses()
            );
            assert_eq!(
                w.stats.snapshot().page_accesses(),
                0,
                "a fast run must not touch the shared page counters"
            );
        }
    }

    #[test]
    fn snapshot_stream_matches_the_workload_stream() {
        let config = small_config();
        let sets = vec![random_points(45, 284), random_points(35, 285)];
        let w = MultiwayWorkload::build(&sets, &config);
        let metered = multiway_join(&sets, &config);
        let capacity = config.cell_cache_capacity;
        let snap = TupleStream::over_snapshot(w.trees.iter().collect(), capacity, config)
            .try_into_outcome()
            .unwrap();
        assert_eq!(snap.sorted_ids(), metered.sorted_ids());
        assert_eq!(snap.profile.work.rows, metered.profile.work.rows);
        assert!(snap.profile.page_accesses() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one pointset")]
    fn empty_input_panics() {
        let _ = multiway_join(&[], &small_config());
    }

    #[test]
    fn corrupt_page_fail_stops_the_tuple_stream() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let config = small_config();
        let sets = vec![random_points(80, 231), random_points(80, 232)];
        let mut w = MultiwayWorkload::build(&sets, &config);
        // Corrupt a mid-run driver leaf so some tuples flow before the
        // failure.
        let driver = pick_driver(&w.trees.iter().collect::<Vec<_>>());
        let driver = &mut w.trees[driver];
        let leaves = SnapshotReader::new(driver).leaf_pages_hilbert_order(&config.domain);
        let target = leaves[leaves.len() / 2];
        driver.flush();
        driver.drop_buffer();
        driver.inject_fault(FaultProfile::CorruptFrame(target.0));
        let mut stream = TupleStream::new(&mut w, config);
        let drained: Vec<MultiwayTuple> = stream.by_ref().collect();
        let error = stream.io_error().expect("corrupt frame surfaces an error");
        assert_eq!(error.kind, FaultKind::Corrupt);
        assert_eq!(error.page, Some(target.0));
        let rows = stream
            .watermarks_so_far()
            .last()
            .map(|wm| wm.rows)
            .unwrap_or(0);
        assert_eq!(
            rows as usize,
            drained.len(),
            "every emitted tuple is watermark-covered: failed chunks emit nothing"
        );
        assert!(stream.try_into_outcome().is_err());
    }

    /// A chunk that fails in an extension round, after its seed reads were
    /// logged, leaves no page pinned: the stream drops the failing chunk's
    /// unsettled logs as it fail-stops, not when it is dropped.
    #[test]
    fn a_failed_extension_round_leaves_no_page_pinned() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let config = small_config();
        let sets = vec![
            random_points(80, 236),
            random_points(80, 237),
            random_points(80, 238),
        ];
        let mut w = MultiwayWorkload::build(&sets, &config);
        let driver = pick_driver(&w.trees.iter().collect::<Vec<_>>());
        let probed = (driver + 1) % sets.len();
        let tree = &mut w.trees[probed];
        tree.flush();
        tree.drop_buffer();
        tree.inject_fault(FaultProfile::CorruptFrame(tree.root_page().0));
        let mut stream = TupleStream::new(&mut w, config);
        assert!(stream.next().is_none());
        assert_eq!(stream.io_error().map(|e| e.kind), Some(FaultKind::Corrupt));
        for set in 0..sets.len() {
            assert_eq!(stream.acct.tree(set).pinned_pages(), 0, "set {set}");
        }
    }

    #[test]
    fn transient_faults_never_change_the_multiway_result() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let sets = vec![
            random_points(140, 233),
            random_points(130, 234),
            random_points(120, 235),
        ];
        for threads in [1usize, 4] {
            let config = small_config().with_worker_threads(threads);
            // Every workload starts cold so metered physical reads agree.
            let run = |armed: Option<(usize, FaultProfile)>| {
                let mut w = MultiwayWorkload::build(&sets, &config);
                w.reset_measurement();
                if let Some((tree, profile)) = armed {
                    w.trees[tree].inject_fault(profile);
                }
                let outcome = TupleStream::new(&mut w, config).try_into_outcome().unwrap();
                let recovered: u64 = w.trees.iter().map(|t| t.fault_stats().recoveries).sum();
                (outcome, recovered)
            };
            let (clean, _) = run(None);
            // Every read attempt of each tree in turn fails once.
            for tree in 0..sets.len() {
                for at in 0.. {
                    let profile = FaultProfile::fail_read(at, FaultKind::Transient);
                    let (faulty, recovered) = run(Some((tree, profile)));
                    let label = format!("{threads} workers, tree {tree}, read {at}");
                    assert_eq!(clean.sorted_ids(), faulty.sorted_ids(), "{label}");
                    assert_eq!(clean.profile.work, faulty.profile.work, "{label}");
                    assert_eq!(
                        clean.profile.page_accesses(),
                        faulty.profile.page_accesses(),
                        "{label}: retried transients recover inside the store and stay invisible"
                    );
                    if recovered == 0 {
                        assert!(at > 4, "{label}: the join read too little");
                        break;
                    }
                }
            }
        }
    }
}
