//! NM-CIJ: the non-blocking, no-materialisation algorithm (Algorithm 6 of
//! the paper) — the paper's main contribution.
//!
//! NM-CIJ never builds a Voronoi R-tree. It walks the leaves of `RQ` in
//! Hilbert order; for each leaf it
//!
//! 1. computes the Voronoi cells of the leaf's points in batch
//!    (Algorithm 2), once each and without the reuse buffer (every point of
//!    `RQ` lies in exactly one leaf),
//! 2. runs the **BatchConditionalFilter** (Algorithm 5) against `RP` to find
//!    the candidate points of `P` whose cells may intersect any of those
//!    cells,
//! 3. computes the exact cells of the candidates through the shared
//!    [`CellCache`] (the Section IV-B **reuse buffer**, now a bounded LRU —
//!    neighbouring leaves of `RQ` share candidates, so most lookups hit),
//! 4. reports every `(p, q)` whose exact cells intersect.
//!
//! The algorithm is implemented as a stream: the crate-internal `NmPairIter`
//! processes leaves of `RQ` only when the consumer pulls and the pairs of
//! previous leaves are exhausted, and owns everything it has on record —
//! ledger, profile, reuse buffer — by value. It is the
//! single construction path of every binary NM-CIJ evaluation: the public
//! [`PairStream`] wraps it, the blocking [`QueryEngine::run`] drains it, and
//! [`crate::service`] drives it directly. The non-blocking property —
//! result pairs after only a few page accesses — is directly observable by
//! pulling a [`PairStream`] obtained from
//! [`QueryEngine::stream`].
//!
//! [`QueryEngine::run`]: crate::engine::QueryEngine::run
//! [`QueryEngine::stream`]: crate::engine::QueryEngine::stream
//!
//! # One execution path
//!
//! Every run — metered or fast, any [`CijConfig::worker_threads`], join or
//! grouped, over a workload or a shared snapshot — runs the four steps as
//! the phases of the chunk protocol, described once in the crate-private
//! `chunk` module (`crates/core/src/chunk.rs`): step 1 is its seed stage
//! over `RQ`, steps 2–3 its probe stage over `RP` — the two stages the
//! multiway join runs too — and step 4 its report.
//! The sequential run is that protocol at worker count 1 (the pool
//! degenerates to inline calls), so pairs (set *and* order), the profile's
//! work counts and — under metered accounting — page accesses and per-leaf
//! [`ProgressSample`]s are identical at any thread count by construction;
//! "metered" and "fast" differ only in the chunk module's `Accounting`
//! value. The determinism argument, the fail-stop gates and the accounting
//! states live there. What is specific to pairs is the unit itself: one
//! `RQ` leaf, two trees, one cache, and the false-hit bookkeeping of
//! Figure 10. Algorithm 6 verbatim — counted reads through the two trees'
//! LRU buffers, one leaf at a time, each cell through the cache's
//! `CellStore` get/put as it is needed — lives on in this module's tests
//! as the reference every configuration is compared against; the stream
//! takes the same cache decisions by slot, a chunk at a time.
//!
//! A grouped-NN run ([`crate::grouped`]: the same stream `with_locations`)
//! gathers its claims in the same report walk (`report_leaf`): an ordered
//! list of `(location, p, q)` claims, settled by the coordinator in leaf
//! order as it emits the leaf's pairs, past every fail-stop gate. A plain
//! join pays one `Option` check per `q` point for it.
//!
//! The fast accounting state needs only `&RTree`, so many concurrent
//! queries can share one tree-pair snapshot: `NmPairIter::over_snapshot`
//! takes the two trees, a private cache and the config, and walks `RQ`'s
//! leaf order per query like every other stream.
//!
//! [`CellCache`]: crate::cell_cache::CellCache
//! [`CijConfig::worker_threads`]: crate::config::CijConfig::worker_threads
//! [`PairStream`]: crate::engine::PairStream
//! [`ProgressSample`]: crate::stats::ProgressSample

use crate::cell_cache::CellCache;
use crate::chunk::{
    probe_round, run_ordered_scratch, seed_leaves, Accounting, LeafStream, StreamLedger, UnitEnv,
    UnitScratch,
};
use crate::config::CijConfig;
use crate::grouped::{GroupCounts, LocationProbe};
use crate::stats::{CijOutcome, Lap, Phase, WorkCounts};
use crate::workload::Workload;
use cij_geom::tolerance::widened;
use cij_geom::{ConvexPolygon, Point};
use cij_pagestore::PageIoError;
use cij_rtree::{PointObject, RTree};
use std::collections::VecDeque;
use std::time::Duration;

/// Index of the `P` tree (filter + refinement side) in the iterator's
/// [`Accounting`].
const P: usize = 0;
/// Index of the `Q` tree (driving side).
const Q: usize = 1;

/// What step 4 reports for one leaf ([`report_leaf`]).
struct LeafReport {
    pairs: Vec<(u64, u64)>,
    /// Distinct joining `P` ids (the Figure 10 false-hit-ratio numerator).
    true_hits: u64,
    /// A grouped-NN run's `(location, p, q)` claims, in report order.
    claims: Vec<(usize, u64, u64)>,
    time: Duration,
}

/// The lazy leaf-by-leaf pair producer behind the NM-CIJ stream.
///
/// Each call to [`Iterator::next`] first serves pairs buffered from already
/// processed leaves of `RQ`; when that buffer runs dry, the next bounded
/// chunk of leaves is processed — steps 1–4 of Algorithm 6. Page accesses
/// therefore happen only as the consumer demands pairs.
pub(crate) struct NmPairIter<'a> {
    /// The two trees (`[P, Q]`) and how their reads are paid for — fixed at
    /// construction (a snapshot source is always fast).
    acct: Accounting<'a>,
    env: UnitEnv,
    cache: CellCache,
    pending: VecDeque<(u64, u64)>,
    ledger: StreamLedger,
    /// One leaf's work counts on their way to the ledger, rewritten per
    /// leaf so the fold allocates nothing.
    leaf: WorkCounts,
    /// One unit scratch (arenas, clip buffers, filter state) per pool
    /// worker, reused across every leaf and chunk of the stream.
    scratches: Vec<UnitScratch>,
    /// What a grouped-NN run counts ([`crate::grouped`]); `None` in a join.
    probe: Option<Box<LocationProbe>>,
}

impl<'a> NmPairIter<'a> {
    /// Builds the iterator over an exclusive workload, in the configured
    /// execution mode.
    pub(crate) fn new(workload: &'a mut Workload, config: CijConfig) -> Self {
        let stats = workload.stats.clone();
        let cache = CellCache::new(config.cell_cache_capacity);
        let trees = vec![&mut workload.rp, &mut workload.rq];
        let acct = Accounting::exclusive(config.exec_mode, trees, &stats);
        Self::start(acct, cache, &config)
    }

    /// Builds a fast-mode iterator over a shared tree-pair snapshot: no
    /// workload, no shared stats, a caller-provided private cache (its
    /// capacity is the query's quota from the global
    /// [`CacheBudget`](crate::cell_cache::CacheBudget)). The
    /// [`crate::service`] worker pool is the caller.
    pub(crate) fn over_snapshot(
        rp: &'a RTree<PointObject>,
        rq: &'a RTree<PointObject>,
        cache: CellCache,
        config: CijConfig,
    ) -> Self {
        Self::start(Accounting::shared(vec![rp, rq]), cache, &config)
    }

    /// The one constructor body: walks `RQ`'s leaf order in the accounting's
    /// currency (a failed walk yields a stream born fail-stopped).
    fn start(mut acct: Accounting<'a>, cache: CellCache, config: &CijConfig) -> Self {
        let ledger = StreamLedger::start(&mut acct, Q, &config.domain);
        let env = UnitEnv::new(config, acct.tree(P).config().node_byte_budget());
        NmPairIter {
            acct,
            env,
            cache,
            pending: VecDeque::new(),
            ledger,
            leaf: WorkCounts::for_sets(2),
            scratches: UnitScratch::per_worker(&env),
            probe: None,
        }
    }

    /// Makes this a grouped-NN run ([`crate::grouped`]) over `locations`.
    pub(crate) fn with_locations(mut self, locations: &[Point]) -> Self {
        self.probe = Some(Box::new(LocationProbe::new(locations, &self.env.domain)));
        self
    }

    /// Drains the stream: its locations' counts, or `Err` if it fail-stopped.
    pub(crate) fn into_group_counts(mut self) -> Result<GroupCounts, PageIoError> {
        self.by_ref().for_each(drop);
        self.ledger.finish()?;
        Ok(self.probe.map(|p| p.into_counts()).unwrap_or_default())
    }

    /// Drains the remaining pairs and packages everything into the blocking
    /// [`CijOutcome`]; `Err` when the stream fail-stopped.
    pub(crate) fn try_into_outcome(mut self) -> Result<CijOutcome, PageIoError> {
        let pairs = self.by_ref().collect();
        let (progress, watermarks, profile) = self.ledger.finish()?;
        Ok(CijOutcome {
            pairs,
            profile,
            progress,
            watermarks,
        })
    }

    /// Processes the next bounded chunk of leaves — the stages of
    /// `crate::chunk` — on the worker pool and appends their pairs to
    /// `pending` in Hilbert leaf order, charging each phase's time to the
    /// profile. NM has no materialisation phase: all cost is JOIN cost.
    fn run_chunk(&mut self) -> Result<(), PageIoError> {
        let env = self.env;
        let mut lap = Lap::start();
        let chunk = self.ledger.cursor.next_chunk(env.workers);

        // Steps 1–3: the Q cells of each leaf, then the P candidates they
        // filter and those candidates' exact cells through the reuse buffer.
        let (acct, cache, scratches) = (&self.acct, &mut self.cache, &mut self.scratches[..]);
        let seeds = seed_leaves(acct, Q, &chunk, &env, scratches, &mut lap)?;
        let regions: Vec<(&[ConvexPolygon], _)> =
            seeds.iter().map(|s| (&s.cells[..], None)).collect();
        let probes = probe_round(acct, P, cache, &regions, &env, scratches, &mut lap)?;

        // Report (parallel): pairs, true hits and claims of each leaf, each
        // worker building its edge table in its own unit scratch and
        // testing box-first.
        let locations = self.probe.as_deref();
        let reported = run_ordered_scratch(scratches, seeds.len(), |i, scratch| {
            let (seed, probe) = (&seeds[i], &probes[i]);
            let q = (&seed.group[..], &seed.cells[..]);
            report_leaf(locations, q, (&probe.candidates, &probe.cells), scratch)
        });
        lap.lap();
        reported
            .iter()
            .for_each(|r| lap.times[Phase::Report] += r.time);

        // Settle + emit (coordinator, leaf order), in the sequential
        // interleaving of the leaf's reads: Q seed, P filter, P refine. Each
        // log is consumed by its settle, so a leaf's pins go with it.
        for ((seed, probe), report) in seeds.into_iter().zip(probes).zip(reported) {
            let leaf = &mut self.leaf;
            leaf.clear();
            leaf.cells[Q].computed = seed.group.len() as u64;
            probe.fold(P, leaf);
            leaf.rows = report.pairs.len() as u64;
            leaf.true_hits = report.true_hits;
            self.acct.settle(Q, seed.log);
            self.acct.settle(P, probe.filter_log);
            self.acct.settle(P, probe.refine_log);
            if let Some(located) = &mut self.probe {
                located.settle(&report.claims);
            }
            let productive = !seed.group.is_empty();
            self.ledger
                .record_leaf(self.acct.join_io(), productive, &self.leaf);
            self.pending.extend(report.pairs);
            // The leaf's cells and candidates are freed inside the clock.
        }
        lap.charge(Phase::Emit);
        self.ledger.profile.elapsed += lap.times;
        Ok(())
    }
}

/// Step 4 of Algorithm 6 for one leaf, in one walk of the seed's
/// `group × candidates` of its probe of `P` (`q` the leaf's points and
/// cells, `p` the candidates and theirs): every
/// `(p, q)` whose exact cells intersect, the distinct joining `P` ids and,
/// in a grouped-NN run, the claims — every location a `q` cell holds
/// claims, in report order, each reported `(p, q)` whose `p` cell holds it
/// too. One filter call pops each leaf entry of `RP` once, so a leaf's
/// candidates are distinct and the distinct true hits are the candidates
/// marked at least once.
///
/// Each cell's bounding box and edge constraints are computed once per
/// leaf into the scratch's [`EdgeTable`](cij_geom::EdgeTable) — the
/// candidates' cells as rows `0..`, then the `q` cells. Per non-empty `q`
/// cell, the table's box kernel returns the candidate rows whose boxes meet
/// the cell's, ascending, and only those take the separating-axis test:
/// together exactly what `ConvexPolygon::intersects` answers, pair by pair
/// and in the order the per-pair walk tested them. The table, the hits and
/// the marks live in the scratch, so after the first leaves the walk
/// allocates nothing but what it returns.
fn report_leaf(
    probe: Option<&LocationProbe>,
    (group, cells_q): (&[PointObject], &[ConvexPolygon]),
    (candidates, cells_p): (&[PointObject], &[ConvexPolygon]),
    scratch: &mut UnitScratch,
) -> LeafReport {
    let mut lap = Lap::start();
    let UnitScratch {
        edges,
        hits,
        marked,
        ..
    } = scratch;
    edges.clear();
    for cell in cells_p.iter().chain(cells_q) {
        edges.push(cell);
    }
    marked.clear();
    marked.resize(cells_p.len(), false);
    let (mut pairs, mut claims) = (Vec::new(), Vec::new());
    for (qi, (q_obj, q_cell)) in group.iter().zip(cells_q).enumerate() {
        if q_cell.is_empty() {
            continue;
        }
        let inside = probe.map_or_else(Vec::new, |probe| probe.locations_in(q_cell));
        let q_row = cells_p.len() + qi;
        edges.overlapping(&widened(&q_cell.bbox()), 0..cells_p.len(), hits);
        for pi in hits.iter().map(|&row| row as usize) {
            let p_cell = &cells_p[pi];
            if edges.meets(pi, p_cell, q_row, q_cell) {
                let (p, q) = (candidates[pi].id.0, q_obj.id.0);
                marked[pi] = true;
                pairs.push((p, q));
                let held = inside.iter().filter(|(_, at)| p_cell.contains_point(at));
                claims.extend(held.map(|&(l, _)| (l, p, q)));
            }
        }
    }
    let true_hits = marked.iter().filter(|&&hit| hit).count() as u64;
    LeafReport {
        pairs,
        true_hits,
        claims,
        time: lap.lap(),
    }
}

/// [`report_leaf`] as a walk of every `(p, q)` through
/// `ConvexPolygon::intersects` — the per-pair loop the box kernel replaced,
/// the reference it is held to.
#[cfg(test)]
fn report_leaf_per_pair(
    probe: Option<&LocationProbe>,
    (group, cells_q): (&[PointObject], &[ConvexPolygon]),
    (candidates, cells_p): (&[PointObject], &[ConvexPolygon]),
) -> LeafReport {
    let mut marked = vec![false; cells_p.len()];
    let (mut pairs, mut claims) = (Vec::new(), Vec::new());
    for (q_obj, q_cell) in group.iter().zip(cells_q) {
        let inside = probe.map_or_else(Vec::new, |probe| probe.locations_in(q_cell));
        let rows = candidates.iter().zip(cells_p);
        for ((p_obj, p_cell), hit) in rows.zip(marked.iter_mut()) {
            if p_cell.intersects(q_cell) {
                let (p, q) = (p_obj.id.0, q_obj.id.0);
                *hit = true;
                pairs.push((p, q));
                let held = inside.iter().filter(|(_, at)| p_cell.contains_point(at));
                claims.extend(held.map(|&(l, _)| (l, p, q)));
            }
        }
    }
    LeafReport {
        true_hits: marked.iter().filter(|&&hit| hit).count() as u64,
        pairs,
        claims,
        time: Duration::ZERO,
    }
}

/// Reports one leaf through [`report_leaf`] and through
/// [`report_leaf_per_pair`], asserts that pairs (in order), true hits and
/// claims agree, and returns how many pairs and claims there were.
#[cfg(test)]
pub(crate) fn assert_report_is_per_pair(
    probe: Option<&LocationProbe>,
    q: (&[PointObject], &[ConvexPolygon]),
    p: (&[PointObject], &[ConvexPolygon]),
    scratch: &mut UnitScratch,
    what: &str,
) -> (usize, usize) {
    let kernel = report_leaf(probe, q, p, scratch);
    let reference = report_leaf_per_pair(probe, q, p);
    assert_eq!(kernel.pairs, reference.pairs, "{what}: pairs");
    assert_eq!(kernel.true_hits, reference.true_hits, "{what}: true hits");
    assert_eq!(kernel.claims, reference.claims, "{what}: claims");
    (kernel.pairs.len(), kernel.claims.len())
}

impl Iterator for NmPairIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(pair) = self.pending.pop_front() {
                return Some(pair);
            }
            if self.ledger.cursor.is_exhausted() {
                return None;
            }
            if let Err(e) = self.run_chunk() {
                // Pairs already emitted (all watermarked) stay valid.
                self.ledger.fail(e);
            }
        }
    }
}

impl LeafStream for NmPairIter<'_> {
    fn ledger(&self) -> &StreamLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use crate::config::ExecMode;
    use crate::filter::{batch_conditional_filter_scratch, FilterOptions};
    use crate::fm::fm_cij;
    use crate::pm::pm_cij;
    use crate::stats::ProgressSample;
    use crate::{Algorithm, QueryEngine};
    use cij_geom::Point;
    use cij_rtree::{NodeReader, RTreeConfig, SnapshotReader};
    use cij_voronoi::{batch_voronoi, NoCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn small_config() -> CijConfig {
        CijConfig::default().with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
    }

    /// NM-CIJ on `w` to completion, through the front door.
    fn nm_join(w: &mut Workload, config: &CijConfig) -> CijOutcome {
        QueryEngine::new(*config).run(w, Algorithm::NmCij)
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    #[test]
    fn matches_brute_force_oracle() {
        let config = small_config();
        let p = random_points(75, 101);
        let q = random_points(65, 102);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_join(&mut w, &config);
        assert_eq!(
            outcome.sorted_pairs(),
            brute_force_cij(&p, &q, &config.domain)
        );
    }

    #[test]
    fn all_three_algorithms_agree() {
        let config = small_config();
        let p = random_points(150, 103);
        let q = random_points(130, 104);
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config).sorted_pairs()
        };
        let pm = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config).sorted_pairs()
        };
        let nm = {
            let mut w = Workload::build(&p, &q, &config);
            nm_join(&mut w, &config).sorted_pairs()
        };
        assert_eq!(fm, pm);
        assert_eq!(pm, nm);
        assert!(!nm.is_empty());
    }

    #[test]
    fn no_reuse_agrees_but_computes_more_cells() {
        let p = random_points(400, 105);
        let q = random_points(400, 106);
        let with_reuse = {
            let config = small_config();
            let mut w = Workload::build(&p, &q, &config);
            nm_join(&mut w, &config)
        };
        let without_reuse = {
            let config = small_config().with_cell_cache_capacity(0);
            let mut w = Workload::build(&p, &q, &config);
            nm_join(&mut w, &config)
        };
        assert_eq!(with_reuse.sorted_pairs(), without_reuse.sorted_pairs());
        assert!(
            with_reuse.profile.work.cells[P].computed
                < without_reuse.profile.work.cells[P].computed,
            "REUSE ({}) must compute fewer exact P cells than NO-REUSE ({})",
            with_reuse.profile.work.cells[P].computed,
            without_reuse.profile.work.cells[P].computed
        );
        assert!(with_reuse.profile.work.cells[P].reused > 0);
        assert_eq!(without_reuse.profile.work.cells[P].reused, 0);
    }

    #[test]
    fn nm_has_no_materialisation_cost_and_lowest_total_io() {
        let config = small_config();
        let p = random_points(600, 107);
        let q = random_points(600, 108);
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config)
        };
        let pm = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config)
        };
        let (nm, lb) = {
            let mut w = Workload::build(&p, &q, &config);
            let lb = w.lower_bound_io();
            (nm_join(&mut w, &config), lb)
        };
        assert_eq!(nm.profile.mat_io.page_accesses(), 0);
        assert!(
            nm.page_accesses() < pm.page_accesses(),
            "NM ({}) must beat PM ({})",
            nm.page_accesses(),
            pm.page_accesses()
        );
        assert!(
            pm.page_accesses() < fm.page_accesses(),
            "PM ({}) must beat FM ({})",
            pm.page_accesses(),
            fm.page_accesses()
        );
        assert!(nm.page_accesses() >= lb, "no algorithm can beat LB");
    }

    #[test]
    fn nm_is_non_blocking_first_pairs_arrive_early() {
        let config = small_config();
        let p = random_points(800, 109);
        let q = random_points(800, 110);
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config)
        };
        let nm = {
            let mut w = Workload::build(&p, &q, &config);
            nm_join(&mut w, &config)
        };
        let nm_first = nm.progress.first().unwrap();
        let fm_first = fm.progress.first().unwrap();
        assert!(nm_first.pairs > 0);
        assert!(
            nm_first.page_accesses < fm_first.page_accesses / 4,
            "NM first output after {} accesses, FM after {}",
            nm_first.page_accesses,
            fm_first.page_accesses
        );
    }

    #[test]
    fn false_hit_ratio_is_low() {
        let config = small_config();
        let p = random_points(500, 111);
        let q = random_points(500, 112);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_join(&mut w, &config);
        let fhr = outcome.profile.false_hit_ratio();
        assert!(
            fhr < 0.25,
            "false hit ratio {fhr} should be small (paper reports < 0.1)"
        );
        assert!(outcome.profile.work.filter_candidates >= outcome.profile.work.true_hits);
    }

    #[test]
    fn every_point_participates_in_the_result() {
        let config = small_config();
        let p = random_points(100, 113);
        let q = random_points(120, 114);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_join(&mut w, &config);
        for i in 0..p.len() as u64 {
            assert!(outcome.pairs.iter().any(|&(a, _)| a == i), "p{i} missing");
        }
        for j in 0..q.len() as u64 {
            assert!(outcome.pairs.iter().any(|&(_, b)| b == j), "q{j} missing");
        }
    }

    #[test]
    fn tiny_cell_cache_still_produces_exact_results() {
        // Eviction pressure must never change the join result: evicted
        // cells are recomputed, not lost.
        let p = random_points(300, 115);
        let q = random_points(300, 116);
        let roomy = {
            let config = small_config();
            let mut w = Workload::build(&p, &q, &config);
            nm_join(&mut w, &config)
        };
        let tiny = {
            let config = small_config().with_cell_cache_capacity(4);
            let mut w = Workload::build(&p, &q, &config);
            nm_join(&mut w, &config)
        };
        assert_eq!(roomy.sorted_pairs(), tiny.sorted_pairs());
        assert!(
            tiny.profile.work.cells[P].evicted > 0,
            "capacity 4 must evict on this workload"
        );
        assert!(
            tiny.profile.work.cells[P].computed >= roomy.profile.work.cells[P].computed,
            "evictions can only force recomputation, never remove it"
        );
    }

    /// Runs NM-CIJ with a given thread count and returns the full outcome.
    fn run_with_threads(
        p: &[Point],
        q: &[Point],
        config: &CijConfig,
        threads: usize,
    ) -> CijOutcome {
        let config = config.with_worker_threads(threads);
        let mut w = Workload::build(p, q, &config);
        nm_join(&mut w, &config)
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let base = small_config();
        let p = random_points(500, 117);
        let q = random_points(500, 118);
        let sequential = run_with_threads(&p, &q, &base, 1);
        for threads in [2usize, 3, 4] {
            let parallel = run_with_threads(&p, &q, &base, threads);
            // Pairs: same set AND same order.
            assert_eq!(
                parallel.pairs, sequential.pairs,
                "pair sequence diverged at {threads} threads"
            );
            // NM counters match exactly.
            assert_eq!(
                parallel.profile.work, sequential.profile.work,
                "counters diverged"
            );
            // Page-access totals and per-leaf progress match exactly.
            assert_eq!(
                parallel.page_accesses(),
                sequential.page_accesses(),
                "page accesses diverged"
            );
            assert_eq!(parallel.progress, sequential.progress, "progress diverged");
        }
    }

    #[test]
    fn parallel_run_matches_under_eviction_pressure() {
        // A tiny reuse buffer maximises policy churn: hits, misses and
        // evictions must still be decided identically to sequential order.
        let base = small_config().with_cell_cache_capacity(4);
        let p = random_points(350, 119);
        let q = random_points(350, 120);
        let sequential = run_with_threads(&p, &q, &base, 1);
        let parallel = run_with_threads(&p, &q, &base, 4);
        assert_eq!(parallel.pairs, sequential.pairs);
        assert_eq!(parallel.profile.work, sequential.profile.work);
        assert!(parallel.profile.work.cells[P].evicted > 0);
        assert_eq!(parallel.page_accesses(), sequential.page_accesses());
    }

    #[test]
    fn fast_mode_is_pair_and_counter_identical_to_metered() {
        let base = small_config();
        let p = random_points(400, 123);
        let q = random_points(400, 124);
        let metered = {
            let mut w = Workload::build(&p, &q, &base);
            nm_join(&mut w, &base)
        };
        for threads in [1usize, 4] {
            let fast_config = base
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(threads);
            let mut w = Workload::build(&p, &q, &fast_config);
            let fast = nm_join(&mut w, &fast_config);
            // Pairs: same set AND same order; counters identical.
            assert_eq!(fast.pairs, metered.pairs, "{threads} threads");
            assert_eq!(fast.profile.work, metered.profile.work, "{threads} threads");
            // Fast accounting is logical snapshot reads — nonzero, with the
            // final watermark agreeing with the outcome total, and the
            // workload's shared page counters untouched.
            assert!(fast.page_accesses() > 0);
            assert_eq!(
                fast.watermarks.last().unwrap().page_accesses,
                fast.page_accesses()
            );
            assert_eq!(
                w.stats.snapshot().page_accesses(),
                0,
                "fast mode never touches the shared page counters"
            );
        }
    }

    #[test]
    fn fast_mode_records_and_replays_no_traces() {
        let config = small_config().with_exec_mode(ExecMode::Fast);
        let p = random_points(200, 125);
        let q = random_points(200, 126);
        let mut w = Workload::build(&p, &q, &config);
        // The probes are process-wide, so other concurrently running tests
        // could raise them; sample around the run and assert the fast join
        // works at all plus (when undisturbed) a zero delta. To keep this
        // test meaningful under a parallel test runner we only assert that
        // the join's own accounting shows zero replay activity via the
        // shared stats (a replay would move the page counters).
        let outcome = nm_join(&mut w, &config);
        assert!(!outcome.pairs.is_empty());
        assert_eq!(
            w.stats.snapshot().page_accesses(),
            0,
            "replays would have moved the shared counters"
        );
    }

    #[test]
    fn corrupt_page_fail_stops_the_stream_with_a_structured_error() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let config = small_config();
        let p = random_points(300, 115);
        let q = random_points(300, 116);
        let mut w = Workload::build(&p, &q, &config);
        // Corrupt a mid-run Q leaf so some pairs flow before the failure.
        let leaves = SnapshotReader::new(&w.rq).leaf_pages_hilbert_order(&config.domain);
        let target = leaves[leaves.len() / 2];
        w.rq.flush();
        w.rq.drop_buffer();
        w.rq.inject_fault(FaultProfile::CorruptFrame(target.0));
        let mut stream = QueryEngine::new(config).stream(&mut w, Algorithm::NmCij);
        let drained: Vec<(u64, u64)> = stream.by_ref().collect();
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
            "every emitted pair is watermark-covered: failed chunks emit nothing"
        );
        assert!(stream.try_into_outcome().is_err());
    }

    #[test]
    fn a_fail_stopped_stream_settles_no_claim_of_an_unemitted_leaf() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let config = small_config().with_worker_threads(2);
        let p = random_points(150, 127);
        let q = random_points(150, 128);
        let locations = random_points(1_000, 129);
        let clean = {
            let mut w = Workload::build(&p, &q, &config);
            let stream = NmPairIter::new(&mut w, config).with_locations(&locations);
            stream.into_group_counts().unwrap()
        };
        assert_eq!(clean.values().sum::<u64>(), 1_000);
        let mut failed_midway = 0;
        // Every read attempt of either tree in turn fails for good — all of
        // them worker reads or the leaf-order walk (the coordinator's
        // replays read nothing) — until the attempt lies past the run's
        // last read.
        for tree in 0..2 {
            for at in 0.. {
                let label = format!("tree {tree}, read {at}");
                let mut w = Workload::build(&p, &q, &config);
                let profile = FaultProfile::fail_read(at, FaultKind::Persistent);
                [&mut w.rp, &mut w.rq][tree].inject_fault(profile);
                let mut stream = NmPairIter::new(&mut w, config).with_locations(&locations);
                let emitted: HashSet<(u64, u64)> = stream.by_ref().collect();
                if stream.ledger().error().is_none() {
                    assert_eq!(stream.into_group_counts().unwrap(), clean, "{label}");
                    let faults = [&w.rp, &w.rq][tree].fault_stats();
                    assert_eq!(faults.injected_read_faults, 0, "{label}: ran past it");
                    break;
                }
                // What the probe settled before the failure stays inside the
                // stream — and covers emitted leaves only, each count a clean
                // one.
                let settled = stream.probe.take().unwrap().into_counts();
                for (pair, count) in &settled {
                    assert!(
                        emitted.contains(pair),
                        "{label}: {pair:?} was never emitted"
                    );
                    assert!(*count <= clean[pair], "{label}: {pair:?} overcounted");
                }
                failed_midway += usize::from(!settled.is_empty());
                assert!(stream.into_group_counts().is_err(), "{label}");
            }
        }
        assert!(failed_midway > 0, "no run failed after settling claims");
    }

    #[test]
    fn transient_faults_never_change_the_join_result() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let p = random_points(200, 117);
        let q = random_points(200, 118);
        for threads in [1usize, 4] {
            let config = small_config().with_worker_threads(threads);
            // Every workload starts cold so metered physical reads agree.
            let run = |armed: Option<(usize, FaultProfile)>| {
                let mut w = Workload::build(&p, &q, &config);
                w.reset_measurement();
                if let Some((tree, profile)) = armed {
                    [&mut w.rp, &mut w.rq][tree].inject_fault(profile);
                }
                let outcome = nm_join(&mut w, &config);
                let recovered = [w.rp.fault_stats(), w.rq.fault_stats()].map(|f| f.recoveries);
                (outcome, recovered.iter().sum::<u64>())
            };
            let (clean, _) = run(None);
            // Every read attempt of either tree in turn fails once.
            for tree in 0..2 {
                for at in 0.. {
                    let profile = FaultProfile::fail_read(at, FaultKind::Transient);
                    let (faulty, recovered) = run(Some((tree, profile)));
                    let label = format!("{threads} workers, tree {tree}, read {at}");
                    assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs(), "{label}");
                    assert_eq!(clean.profile.work, faulty.profile.work, "{label}");
                    assert_eq!(
                        clean.page_accesses(),
                        faulty.page_accesses(),
                        "{label}: retried transients recover inside the store and stay invisible"
                    );
                    if recovered == 0 {
                        assert!(at > 8, "{label}: the join read too little");
                        break;
                    }
                }
            }
        }
    }

    /// What [`algorithm_6`] returns.
    struct Reference {
        pairs: Vec<(u64, u64)>,
        /// The work counts as of each leaf of `RQ`, empty leaves included.
        work: Vec<WorkCounts>,
        progress: Vec<ProgressSample>,
        page_accesses: u64,
    }

    /// Algorithm 6 verbatim — the reference the chunk protocol is held to:
    /// the leaves of `RQ` in Hilbert order, one at a time, every read a
    /// counted read through the tree's LRU buffer (`impl NodeReader for
    /// RTree`), the exact `P` cells through the cache's sequential
    /// `CellStore` get/put, the true hits counted by id.
    fn algorithm_6(w: &mut Workload, config: &CijConfig) -> Reference {
        let domain = config.domain;
        let mut cache = CellCache::new(config.cell_cache_capacity);
        let UnitScratch { vor, filter, .. } = &mut UnitScratch::default();
        let stats = w.stats.clone();
        let start = stats.snapshot();
        let page_accesses = || stats.snapshot().since(&start).page_accesses();
        let mut pairs = Vec::new();
        let (mut work, mut per_leaf) = (WorkCounts::for_sets(2), Vec::new());
        let mut progress = Vec::new();
        let leaves = w.rq.leaf_pages_hilbert_order(&domain);
        let (rp, rq) = (&mut w.rp, &mut w.rq);
        for leaf in leaves {
            let group = NodeReader::read(rq, leaf).objects;
            if group.is_empty() {
                per_leaf.push(work.clone());
                continue;
            }
            // (1) Q cells, (2) filter RP, (3) refine through the cache.
            let cells_q = batch_voronoi(rq, &group, &domain, &mut NoCache, vor);
            let options = FilterOptions::default();
            let (candidates, fstats) =
                batch_conditional_filter_scratch(rp, &cells_q, &domain, &options, filter);
            let (hits, misses) = (cache.hits(), cache.misses());
            let cells_p = batch_voronoi(rp, &candidates, &domain, &mut cache, vor);
            assert!(rq.take_error().or_else(|| rp.take_error()).is_none());
            // (4) Report.
            let mut true_hits = HashSet::new();
            for (q_obj, q_cell) in group.iter().zip(&cells_q) {
                for (p_obj, p_cell) in candidates.iter().zip(&cells_p) {
                    if p_cell.intersects(q_cell) {
                        true_hits.insert(p_obj.id.0);
                        pairs.push((p_obj.id.0, q_obj.id.0));
                    }
                }
            }
            work.rows = pairs.len() as u64;
            work.cells[Q].computed += group.len() as u64;
            work.cells[P].reused += cache.hits() - hits;
            work.cells[P].computed += cache.misses() - misses;
            work.cells[P].evicted = cache.evictions();
            work.filter.absorb(&fstats);
            work.filter_calls += 1;
            work.filter_candidates += candidates.len() as u64;
            work.true_hits += true_hits.len() as u64;
            per_leaf.push(work.clone());
            progress.push(ProgressSample {
                page_accesses: page_accesses(),
                pairs: pairs.len() as u64,
            });
        }
        Reference {
            page_accesses: page_accesses(),
            pairs,
            work: per_leaf,
            progress,
        }
    }

    #[test]
    fn every_worker_count_and_mode_matches_the_algorithm_6_reference() {
        let p = random_points(450, 131);
        let q = random_points(450, 132);
        // A 4-page buffer per tree, far below either tree: every replay
        // order mistake moves a physical read.
        let small = small_config().with_min_buffer_pages(4);
        for base in [small, small.with_cell_cache_capacity(4)] {
            let cap = base.cell_cache_capacity;
            let reference = algorithm_6(&mut Workload::build(&p, &q, &base), &base);
            let work = reference.work.last().unwrap();
            assert!(reference.progress.len() > 8, "the chunk ramp must widen");
            assert_eq!(work.cells[P].evicted > 0, cap == 4);
            for threads in 1..=4 {
                for mode in [ExecMode::Metered, ExecMode::Fast] {
                    let config = base.with_worker_threads(threads).with_exec_mode(mode);
                    let run = nm_join(&mut Workload::build(&p, &q, &config), &config);
                    let at = format!("{threads} workers, {}, capacity {cap}", mode.name());
                    assert_eq!(run.pairs, reference.pairs, "{at}");
                    assert_eq!(&run.profile.work, work, "{at}");
                    if mode == ExecMode::Metered {
                        assert_eq!(run.progress, reference.progress, "{at}");
                        assert_eq!(run.page_accesses(), reference.page_accesses, "{at}");
                    }
                }
            }
        }
    }

    /// Pulled pair by pair, the stream's profile is checked each time a
    /// watermark appears: its work counts are Algorithm 6's as of that
    /// leaf, at one and three workers, metered and fast — the fold is
    /// exact per leaf, not only at the end.
    #[test]
    fn the_profile_is_algorithm_6_at_every_watermark() {
        let p = random_points(450, 133);
        let q = random_points(450, 134);
        let base = small_config().with_cell_cache_capacity(16);
        let reference = algorithm_6(&mut Workload::build(&p, &q, &base), &base);
        assert!(reference.work.last().unwrap().cells[P].evicted > 0);
        for threads in [1, 3] {
            for mode in [ExecMode::Metered, ExecMode::Fast] {
                let config = base.with_worker_threads(threads).with_exec_mode(mode);
                let mut w = Workload::build(&p, &q, &config);
                let mut stream = QueryEngine::new(config).stream(&mut w, Algorithm::NmCij);
                let mut checked = 0;
                loop {
                    let marks = stream.watermarks_so_far().len();
                    if marks > checked {
                        let at = format!("{threads} workers, {}, leaf {marks}", mode.name());
                        let work = stream.profile_so_far().work;
                        assert_eq!(work, reference.work[marks - 1], "{at}");
                        checked = marks;
                    }
                    if stream.next().is_none() {
                        break;
                    }
                }
                assert_eq!(checked, reference.work.len());
            }
        }
    }
}
