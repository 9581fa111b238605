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
//!   with BatchVoronoi *through the driver set's [`CellCache`]* — the
//!   seeding phase uses the same reuse buffer as every extension round, so
//!   the profile's `cells[i].computed` has the same meaning ("exact cells
//!   computed", i.e. cache misses) for every set and duplicate seed work
//!   would be served from the buffer.
//! * **Extend (rounds 1 … k−1)**: each leaf with live partial tuples issues
//!   *one* [`batch_conditional_filter`] call carrying all of its partial
//!   regions — the same redundant-traversal cut that batching the cells of
//!   one `RQ` leaf gives binary NM-CIJ (probing once per partial tuple
//!   instead costs 8–44× the page accesses at k = 2…4). Candidate cells are
//!   then resolved
//!   through the set's [`CellCache`] and each partial region is narrowed by
//!   polygon intersection; empty intersections drop the candidate tuple.
//!
//! The candidate×partial narrowing of every extension round skips
//! **bbox-disjoint** combinations outright — boxes farther apart than their
//! tolerance ([`cij_geom::tolerance::widened`]), whose polygon intersection
//! would be empty anyway — observable as
//! [`WorkCounts::narrowings_skipped`].
//!
//! The partial tuples of one leaf stay spatially close through every round
//! (they are intersections of neighbouring cells), which is what makes the
//! per-leaf batch probe effective.
//!
//! # Partial tuples
//!
//! Between two rounds the live partial tuples of one leaf are one
//! struct-of-arrays table (`Partials`): the ids flat in one `Vec<u64>` with
//! stride = rounds done, the regions in one `Vec<ConvexPolygon>`. A round
//! costs per region what it does per region, not per region × use:
//!
//! * the filter phase **borrows** the table's regions as the probe slice —
//!   nothing is cloned to call it;
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
//!   exception: their regions are the exact-size cells refinement returned,
//!   and they are dropped after round 1.
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
//! `crates/core/src/chunk.rs`), generalised to `k` trees and `k` caches: a
//! leaf unit's scan is the driver-leaf read, and each of its `k` rounds is
//! one cache-policy / refine / resolve stage (preceded, in extension
//! rounds, by the per-leaf filter phase and followed by the per-leaf
//! narrowing), with every read's deferred accounting settled leaf-major at
//! emit time. The sequential run is that protocol at worker
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
//! [`CijConfig::worker_threads`]: crate::config::CijConfig::worker_threads
//! [`pick_driver`]: crate::workload::pick_driver

use crate::cell_cache::CellCache;
use crate::chunk::{
    gate, refine_through_cache, run_ordered, run_ordered_scratch, run_ordered_units, Accounting,
    LeafStream, Log, StreamLedger, UnitEnv, UnitScratch,
};
use crate::config::CijConfig;
use crate::filter::{batch_conditional_filter_scratch, FilterOptions, FilterStats};
use crate::stats::{Lap, LeafWatermark, Phase, ProgressSample, QueryProfile, WorkCounts};
use crate::workload::{pick_driver, MultiwayWorkload};
use cij_geom::tolerance::widened;
use cij_geom::{ClipScratch, ConvexPolygon, Point, Rect};
use cij_pagestore::PageIoError;
use cij_rtree::{NodeReader, PointObject, RTree};
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
        }
    }

    /// The live regions, tuple order.
    fn regions(&self) -> &[ConvexPolygon] {
        &self.outlines[..self.len]
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
/// tolerance, so degenerate contacts take the clipping path). `cell_boxes`
/// is working storage.
fn extend_into(
    cur: &Partials,
    candidates: &[PointObject],
    cells: &[ConvexPolygon],
    clip: &mut ClipScratch,
    cell_boxes: &mut Vec<Rect>,
    next: &mut Partials,
) -> u64 {
    next.stride = cur.stride + 1;
    next.len = 0;
    next.ids.clear();
    cell_boxes.clear();
    cell_boxes.extend(cells.iter().map(|c| widened(&c.bbox())));
    let mut skipped = 0u64;
    for (j, region) in cur.regions().iter().enumerate() {
        let region_bbox = widened(&region.bbox());
        for ((cand, cell), cell_bbox) in candidates.iter().zip(cells).zip(&*cell_boxes) {
            if !region_bbox.intersects(cell_bbox) {
                skipped += 1;
                continue;
            }
            if next.outlines.len() == next.len {
                next.outlines.push(ConvexPolygon::empty());
            }
            // A narrowing that comes out empty leaves its buffer to the
            // next attempt.
            let out = &mut next.outlines[next.len];
            region.intersection_into(cell, clip, out);
            if !out.is_empty() {
                next.ids.extend_from_slice(cur.ids_of(j));
                next.ids.push(cand.id.0);
                next.len += 1;
            }
        }
    }
    skipped
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
    /// One reuse buffer per input set (the driver included: seeding goes
    /// through the cache like every extension round).
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
        let caches = (0..workload.k())
            .map(|_| CellCache::new(config.cell_cache_capacity))
            .collect();
        let trees = workload.trees.iter_mut().collect();
        let acct = Accounting::exclusive(config.exec_mode, trees, &stats);
        Self::start(acct, driver, caches, &config)
    }

    /// Fast-mode stream over shared read-only `trees` — the constructor the
    /// concurrent request server uses: many queries can hold streams over
    /// the same snapshot simultaneously. `caches` provides one reuse buffer
    /// per input set (typically carved from a
    /// [`CacheBudget`](crate::cell_cache::CacheBudget) lease).
    ///
    /// Accounting is fast regardless of `config.exec_mode`: metered
    /// accounting needs exclusive tree access.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or `caches.len() != trees.len()`.
    pub(crate) fn over_snapshot(
        trees: Vec<&'a RTree<PointObject>>,
        caches: Vec<CellCache>,
        config: CijConfig,
    ) -> Self {
        assert!(
            !trees.is_empty(),
            "multiway CIJ needs at least one pointset"
        );
        assert_eq!(caches.len(), trees.len(), "one cell cache per input set");
        let driver = pick_driver(&trees);
        Self::start(Accounting::shared(trees), driver, caches, &config)
    }

    /// The one constructor body: walks the driver's leaf order in the
    /// accounting's currency. A failed walk yields a stream that is born
    /// fail-stopped: no leaves, the error latched.
    fn start(
        mut acct: Accounting<'a>,
        driver: usize,
        caches: Vec<CellCache>,
        config: &CijConfig,
    ) -> Self {
        let k = acct.k();
        let mut eval_order = vec![driver];
        eval_order.extend((0..k).filter(|&s| s != driver));
        let ledger = StreamLedger::start(&mut acct, driver, &config.domain);
        let env = UnitEnv::new(config, acct.tree(driver).config().node_byte_budget());
        TupleStream {
            env,
            acct,
            eval_order,
            caches,
            scratches: UnitScratch::per_worker(&env),
            spare: Vec::new(),
            pending: VecDeque::new(),
            pulled: 0,
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

    /// Processes the next bounded chunk of leaf units — the phases of
    /// [`crate::chunk`], once per round — and appends the resulting tuples
    /// to `pending` in leaf order, charging each phase's time to the
    /// profile. `Err` fail-stops the stream.
    fn run_chunk(&mut self) -> Result<(), PageIoError> {
        let env = self.env;
        let mut lap = Lap::start();
        let chunk = self.ledger.cursor.next_chunk(env.workers);
        let k = self.acct.k();
        let n = chunk.len();
        let driver = self.eval_order[0];
        let acct = &self.acct;
        // Per leaf, folded at its sequential emit position (so the profile
        // and the watermarks are leaf-exact): its work counts — each set is
        // visited in exactly one round — and its deferred read accounting,
        // `(tree index, log)` in the sequential interleaving: scan, seed
        // refine, then per round filter and refine. Settled leaf-major, so
        // every tree's buffer sees the access sequence of a width-1 run
        // (buffers are per-tree; the per-tree subsequence is what matters).
        let mut leaves: Vec<(WorkCounts, Vec<(usize, Log)>)> = (0..n)
            .map(|_| (WorkCounts::for_sets(k), Vec::new()))
            .collect();

        // Scan (parallel): read each chunk leaf of the driving tree. The
        // gate discards the chunk before any cache state advances.
        let scans: Vec<(Vec<PointObject>, Log, Duration)> = run_ordered(env.workers, n, |i| {
            let mut lap = Lap::start();
            let mut reader = acct.reader(driver);
            (reader.read(chunk[i]).objects, reader.finish(), lap.lap())
        });
        lap.lap();
        gate(scans.iter().map(|(_, log, _)| log))?;
        let groups: Vec<Vec<PointObject>> = scans
            .into_iter()
            .zip(&mut leaves)
            .map(|((group, log, time), (_, logs))| {
                lap.times[Phase::Scan] += time;
                logs.push((driver, log));
                group
            })
            .collect();

        // Seed (round 0): the leaf's own cells through the driver's cache —
        // one unit per leaf whose candidates are the leaf's points.
        let scratches = &mut self.scratches[..];
        let units: Vec<&[PointObject]> = groups.iter().map(|g| &g[..]).collect();
        let seeded = refine_through_cache(
            acct,
            driver,
            &mut self.caches[driver],
            &units,
            &env,
            scratches,
            &mut lap,
        )?;
        let mut partials: Vec<Partials> = groups
            .iter()
            .zip(seeded)
            .zip(&mut leaves)
            .map(|((group, unit), (work, logs))| {
                work.cells[driver] = unit.counts;
                logs.push((driver, unit.log));
                Partials::seeded(group, unit.cells)
            })
            .collect();
        lap.charge(Phase::Refine);

        // Extension rounds: one per remaining set, in evaluation order.
        for &set_idx in &self.eval_order[1..] {
            // Filter (parallel, per leaf with live partials): ONE
            // batch_conditional_filter call borrowing every region of the
            // leaf. The gate keeps a failed pass's partial candidate lists
            // out of the policy.
            let filtered: Vec<(Vec<PointObject>, FilterStats, Log, Duration)> =
                run_ordered_scratch(scratches, n, |i, scratch| {
                    let regions = partials[i].regions();
                    if regions.is_empty() {
                        return Default::default();
                    }
                    let mut lap = Lap::start();
                    let mut reader = acct.reader(set_idx);
                    let (candidates, stats) = batch_conditional_filter_scratch(
                        &mut reader,
                        regions,
                        &env.domain,
                        &FilterOptions::default(),
                        &mut scratch.filter,
                    );
                    (candidates, stats, reader.finish(), lap.lap())
                });
            lap.lap();
            lap.times[Phase::Filter] += filtered.iter().map(|f| f.3).sum::<Duration>();
            gate(filtered.iter().map(|(_, _, log, _)| log))?;

            // Cache policy → refine → resolve on the set's cache. A leaf
            // with no live partials has no candidates: its unit is a no-op.
            let units: Vec<&[PointObject]> = filtered.iter().map(|f| &f.0[..]).collect();
            let cells = refine_through_cache(
                acct,
                set_idx,
                &mut self.caches[set_idx],
                &units,
                &env,
                scratches,
                &mut lap,
            )?;

            // Extend (parallel, per leaf): narrow each partial region by
            // every candidate cell into a table off the free list, dropping
            // empty intersections.
            let mut next: Vec<Partials> = (0..n)
                .map(|_| self.spare.pop().unwrap_or_default())
                .collect();
            lap.charge(Phase::Report);
            let skipped: Vec<(u64, Duration)> =
                run_ordered_units(scratches, &mut next, |i, next, scratch| {
                    let mut lap = Lap::start();
                    let UnitScratch {
                        clip, cell_boxes, ..
                    } = scratch;
                    let cells = &cells[i].cells;
                    let skipped =
                        extend_into(&partials[i], units[i], cells, clip, cell_boxes, next);
                    (skipped, lap.lap())
                });
            lap.lap();

            // Fold the round into the leaves' records, filter before refine.
            for (i, (((candidates, fstats, flog, _), unit), (skipped, time))) in
                filtered.into_iter().zip(cells).zip(skipped).enumerate()
            {
                lap.times[Phase::Report] += time;
                let (work, logs) = &mut leaves[i];
                work.filter_calls += u64::from(partials[i].len > 0);
                work.filter_candidates += candidates.len() as u64;
                work.filter.absorb(&fstats);
                work.narrowings_skipped += skipped;
                work.cells[set_idx] = unit.counts;
                logs.push((set_idx, flog));
                logs.push((set_idx, unit.log));
            }
            // The superseded tables go back on the free list.
            for table in std::mem::replace(&mut partials, next) {
                recycle(&mut self.spare, table);
            }
            lap.charge(Phase::Report);
        }

        // Emit (coordinator, leaf order): settle the leaf's logs, fold its
        // work counts into the profile with its progress sample and
        // watermark, and queue the leaf's final table for the consumer.
        for ((table, (mut work, logs)), group) in partials.into_iter().zip(leaves).zip(&groups) {
            for (tree, log) in logs {
                self.acct.settle(tree, log);
            }
            work.rows = table.len as u64;
            let productive = !group.is_empty();
            self.ledger
                .record_leaf(self.acct.join_io(), productive, &work);
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
/// (stride 1) are dropped instead: their regions are the refinement's
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
                // Tuples already emitted (all watermarked) stay valid.
                self.ledger.fail(error);
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
    use crate::QueryEngine;
    use cij_datagen::{clustered_points, ClusterSpec};
    use cij_rtree::{RTreeConfig, SnapshotReader};
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
    fn seeding_counts_cells_through_the_cache() {
        let sets = vec![random_points(40, 217), random_points(45, 218)];
        let outcome = multiway_join(&sets, &small_config());
        // The assertions are about the *driver's* seeding semantics,
        // whichever set the cost model drives with.
        let (driver, extension) = (outcome.driver, 1 - outcome.driver);
        // Every driver point lives in exactly one leaf, so with a roomy
        // cache each seed cell is computed exactly once and never re-served:
        // the uniform "exact cells computed = cache misses" semantics.
        assert_eq!(
            outcome.profile.work.cells[driver].computed,
            sets[driver].len() as u64
        );
        assert_eq!(outcome.profile.work.cells[driver].reused, 0);
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

    /// The join one driver leaf at a time, every read a counted read
    /// through the trees' own buffers, every cell through its set's cache as
    /// a `CellStore`, every extension through [`extend_partials`]: the work
    /// counts as of each driver leaf.
    fn work_leaf_by_leaf(sets: &[Vec<Point>], config: &CijConfig) -> Vec<WorkCounts> {
        let mut w = MultiwayWorkload::build(sets, config);
        let (driver, k, domain) = (
            pick_driver(&w.trees.iter().collect::<Vec<_>>()),
            w.k(),
            config.domain,
        );
        let capacity = config.cell_cache_capacity;
        let mut caches: Vec<CellCache> = (0..k).map(|_| CellCache::new(capacity)).collect();
        let UnitScratch { vor, filter, .. } = &mut UnitScratch::default();
        let mut order = vec![driver];
        order.extend((0..k).filter(|&s| s != driver));
        let (mut work, mut per_leaf) = (WorkCounts::for_sets(k), Vec::new());
        for leaf in w.trees[driver].leaf_pages_hilbert_order(&domain) {
            let group = NodeReader::read(&mut w.trees[driver], leaf).objects;
            let mut partials = Vec::new();
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
                    let options = FilterOptions::default();
                    let (candidates, stats) =
                        batch_conditional_filter_scratch(tree, &regions, &domain, &options, filter);
                    work.filter_calls += 1;
                    work.filter_candidates += candidates.len() as u64;
                    work.filter.absorb(&stats);
                    candidates
                };
                let (hits, misses) = (cache.hits(), cache.misses());
                let cells = cij_voronoi::batch_voronoi(tree, &candidates, &domain, cache, vor);
                let counts = &mut work.cells[s];
                counts.computed += cache.misses() - misses;
                counts.reused += cache.hits() - hits;
                counts.evicted = cache.evictions();
                partials = if round == 0 {
                    let seeds = candidates.iter().zip(cells);
                    let seeds = seeds.map(|(obj, region)| MultiwayTuple {
                        ids: vec![obj.id.0],
                        region,
                    });
                    seeds.collect()
                } else {
                    let (next, skipped) = extend_partials(&partials, &candidates, &cells);
                    work.narrowings_skipped += skipped;
                    next
                };
            }
            work.rows += partials.len() as u64;
            per_leaf.push(work.clone());
        }
        per_leaf
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
        assert!(last.cells.iter().all(|c| c.evicted > 0) && last.narrowings_skipped > 0);
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
        let (mut clip, mut boxes) = (ClipScratch::new(), Vec::new());
        extend_into(
            &cur,
            &objects[2],
            &diagrams[2],
            &mut clip,
            &mut boxes,
            &mut next,
        );
        assert!(next.len > 0 && next.stride == 2);
        for round in 1..sets.len() {
            let (expected, disjoint) =
                extend_partials(&reference, &objects[round], &diagrams[round]);
            let skipped = extend_into(
                &cur,
                &objects[round],
                &diagrams[round],
                &mut clip,
                &mut boxes,
                &mut next,
            );
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
        let caches = (0..w.k())
            .map(|_| CellCache::new(config.cell_cache_capacity))
            .collect();
        let snap = TupleStream::over_snapshot(w.trees.iter().collect(), caches, config)
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
