//! The streaming execution core: [`PairStream`], the two-mode executor and
//! the unified [`QueryEngine`] entry point.
//!
//! The paper's headline property of NM-CIJ is that it is **non-blocking**:
//! result pairs start flowing after a handful of page accesses, long before
//! the join completes. The seed implementation nevertheless ran every
//! algorithm to completion and returned a `Vec` of pairs; this module makes
//! the streaming contract explicit:
//!
//! * [`PairStream`] — a pull-based iterator of `(p_id, q_id)` pairs. For
//!   NM-CIJ the stream is genuinely lazy (leaves of `RQ` are processed only
//!   as pairs are demanded); for the blocking FM/PM algorithms the stream
//!   replays an eagerly computed result, preserving one uniform API.
//! * [`QueryEngine`] — the one front door: examples, tests, the
//!   reproduction and the benchmark harness run every join through it.
//!   [`QueryEngine::stream`] holds the one dispatch from an [`Algorithm`]
//!   to its evaluation (the lazy NM-CIJ stream, or the eager FM/PM outcome
//!   replayed); [`QueryEngine::run`] drains that stream.
//!
//! Progress samples ([`ProgressSample`]), watermarks and the query's
//! [`QueryProfile`] accumulate in the stream itself while the consumer
//! pulls (a lazy stream owns its ledger by value, exactly as the multiway
//! [`TupleStream`] does), so a caller can observe "pairs so far vs page
//! accesses so far" mid-join — the progressiveness measurement of Figure 9b.
//!
//! # The two execution modes
//!
//! NM-CIJ (and the multiway join) execute in one of two modes, selected by
//! [`CijConfig::exec_mode`]:
//!
//! * [`ExecMode::Metered`](crate::config::ExecMode::Metered) — the
//!   **correctness and measurement oracle**. Every page access runs through
//!   the LRU buffer simulation and the shared
//!   [`IoStats`](cij_pagestore::IoStats) counters; every run records
//!   per-unit page traces and replays them in leaf order, so counters are
//!   byte-exact at any worker count. All paper experiments, tests and
//!   benches measure this mode. It requires exclusive workload access.
//! * [`ExecMode::Fast`](crate::config::ExecMode::Fast) — the **serving
//!   mode**. The same chunked protocol runs with read-only snapshot readers:
//!   no trace recording, no coordinator replay, no shared-counter traffic —
//!   each query keeps a private logical-read count instead, and "page
//!   accesses" are reinterpreted as logical snapshot reads. Pairs/tuples
//!   (set *and* order) and every work count of the profile are identical to
//!   metered by construction; only the I/O accounting currency changes.
//!   Because it needs only `&RTree`, many simultaneous queries can share
//!   one `Arc`-held snapshot — the basis of the [`crate::service`] request
//!   server ([`QueryEngine::serve`]), with per-query cell-cache quotas
//!   carved from a global [`CacheBudget`](crate::cell_cache::CacheBudget).
//!
//! FM/PM are blocking materialisation algorithms and ignore `exec_mode`:
//! they always run metered (they must build Voronoi R-trees through the
//! buffer).
//!
//! [`CijConfig::exec_mode`]: crate::config::CijConfig::exec_mode

use crate::chunk::LeafStream;
use crate::config::CijConfig;
use crate::fm::fm_cij;
use crate::grouped::GroupCounts;
use crate::multiway::{MultiwayOutcome, TupleStream};
use crate::nm::NmPairIter;
use crate::pm::pm_cij;
use crate::service::{CijService, EngineSnapshot, ServiceConfig};
use crate::stats::{CijOutcome, LeafWatermark, ProgressSample, QueryProfile};
use crate::workload::{MultiwayWorkload, Workload};
use crate::Algorithm;
use cij_geom::Point;
use cij_pagestore::PageIoError;
use std::sync::Arc;

/// Where a [`PairStream`]'s pairs come from.
enum Source<'a> {
    /// NM-CIJ: leaves of `RQ` are processed as pairs are demanded.
    Lazy(Box<NmPairIter<'a>>),
    /// FM/PM: an eagerly computed outcome, its pairs replayed in order.
    Eager(Box<CijOutcome>),
}

/// A pull-based stream of CIJ result pairs.
///
/// Obtained from [`QueryEngine::stream`]. Pairs
/// are produced on demand; [`PairStream::progress_so_far`] and
/// [`PairStream::profile_so_far`] expose the incremental measurements, and
/// [`PairStream::try_into_outcome`] drains the remainder into a
/// [`CijOutcome`] or the error that stopped it ([`QueryEngine::run`] is the
/// collect-all call). The stream owns its state outright, so it is `Send`:
/// a consumer can move a running stream to another thread.
pub struct PairStream<'a> {
    algorithm: Algorithm,
    source: Source<'a>,
    emitted: u64,
}

impl std::fmt::Debug for PairStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairStream")
            .field("algorithm", &self.algorithm)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl<'a> PairStream<'a> {
    /// The lazy NM-CIJ stream over an exclusive workload.
    pub(crate) fn nm(workload: &'a mut Workload, config: &CijConfig) -> Self {
        PairStream {
            algorithm: Algorithm::NmCij,
            source: Source::Lazy(Box::new(NmPairIter::new(workload, *config))),
            emitted: 0,
        }
    }

    /// Wraps an eagerly computed outcome as a (trivially complete) stream —
    /// the adapter used by the blocking FM/PM algorithms.
    pub(crate) fn from_outcome(algorithm: Algorithm, outcome: CijOutcome) -> PairStream<'static> {
        PairStream {
            algorithm,
            source: Source::Eager(Box::new(outcome)),
            emitted: 0,
        }
    }

    /// The algorithm producing this stream.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The progressive-output samples recorded so far (one per processed
    /// leaf of `RQ` for NM-CIJ; the full eager trace for FM/PM).
    pub fn progress_so_far(&self) -> Vec<ProgressSample> {
        match &self.source {
            Source::Lazy(iter) => iter.ledger().progress.clone(),
            Source::Eager(outcome) => outcome.progress.clone(),
        }
    }

    /// The query's profile so far: the lazy NM-CIJ stream's work counts
    /// are exact at its last watermark; FM/PM's is the eager outcome's.
    pub fn profile_so_far(&self) -> QueryProfile {
        match &self.source {
            Source::Lazy(iter) => iter.ledger().profile.clone(),
            Source::Eager(outcome) => outcome.profile.clone(),
        }
    }

    /// The per-leaf watermarks recorded so far (one per processed leaf of
    /// `RQ` for the lazy NM-CIJ stream; empty for the blocking FM/PM
    /// streams). Everything emitted up to the last watermark is final: no
    /// later leaf can add or change those pairs — the checkpointing
    /// contract ported back from the multiway [`TupleStream`].
    pub fn watermarks_so_far(&self) -> Vec<LeafWatermark> {
        match &self.source {
            Source::Lazy(iter) => iter.ledger().watermarks.clone(),
            Source::Eager(outcome) => outcome.watermarks.clone(),
        }
    }

    /// The first storage error the producing iterator hit, if any.
    ///
    /// A lazy NM-CIJ stream is **fail-stop**: when a page read fails
    /// irrecoverably (after the page store's internal retries), the stream
    /// latches the error, emits nothing from the failing chunk and ends.
    /// Everything pulled up to the last watermark is valid; a consumer that
    /// sees the stream end must poll this before trusting completeness.
    pub fn io_error(&self) -> Option<PageIoError> {
        match &self.source {
            Source::Lazy(iter) => iter.ledger().error().cloned(),
            Source::Eager(..) => None,
        }
    }

    /// Drains the remaining pairs and packages everything into a
    /// [`CijOutcome`] (pairs already pulled through the iterator are *not*
    /// replayed); `Err` when the stream fail-stopped on a storage error.
    pub fn try_into_outcome(self) -> Result<CijOutcome, PageIoError> {
        match self.source {
            Source::Lazy(iter) => iter.try_into_outcome(),
            Source::Eager(mut outcome) => {
                outcome.pairs.drain(..self.emitted as usize);
                Ok(*outcome)
            }
        }
    }
}

impl Iterator for PairStream<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let next = match &mut self.source {
            Source::Lazy(iter) => iter.next(),
            Source::Eager(outcome) => outcome.pairs.get(self.emitted as usize).copied(),
        };
        if next.is_some() {
            self.emitted += 1;
        }
        next
    }
}

/// The unified entry point for common-influence joins.
///
/// A `QueryEngine` owns a [`CijConfig`] and exposes every operation of the
/// workspace behind one API: building workloads, running or streaming any
/// of the three join algorithms, and the multiway / grouped-NN extensions.
/// It is the only public way to run a join: examples, integration tests,
/// the reproduction and the benchmark harness all go through it.
///
/// The blocking calls ([`run`](Self::run), [`join`](Self::join),
/// [`multiway`](Self::multiway), [`grouped_nn`](Self::grouped_nn)) panic
/// `"CIJ storage failure: …"` when a read fails for good — they have no
/// partial-result channel. To handle the failure instead, drain
/// [`stream`](Self::stream) or [`multiway_stream`](Self::multiway_stream)
/// and poll the stream's `io_error`.
///
/// ```
/// use cij_core::{Algorithm, CijConfig, QueryEngine};
/// use cij_geom::Point;
///
/// let engine = QueryEngine::new(CijConfig::default());
/// let p = vec![Point::new(2_000.0, 3_000.0), Point::new(7_000.0, 8_000.0)];
/// let q = vec![Point::new(2_500.0, 2_500.0), Point::new(6_500.0, 8_500.0)];
/// let outcome = engine.join(&p, &q, Algorithm::NmCij);
/// assert!(!outcome.pairs.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryEngine {
    config: CijConfig,
}

impl QueryEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: CijConfig) -> Self {
        QueryEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CijConfig {
        &self.config
    }

    /// Builds the R-tree indexed workload for two pointsets under this
    /// engine's configuration.
    pub fn build_workload(&self, p: &[Point], q: &[Point]) -> Workload {
        Workload::build(p, q, &self.config)
    }

    /// Starts `algorithm` on `workload` and returns the pair stream — the
    /// one dispatch from an [`Algorithm`] to its evaluation.
    ///
    /// For [`Algorithm::NmCij`] the stream is lazy: pulling the first pair
    /// performs only the page accesses needed for the first productive leaf
    /// of `RQ`. The blocking FM-CIJ and PM-CIJ run to completion here and
    /// the stream replays their outcome.
    pub fn stream<'a>(&self, workload: &'a mut Workload, algorithm: Algorithm) -> PairStream<'a> {
        match algorithm {
            Algorithm::FmCij => PairStream::from_outcome(algorithm, fm_cij(workload, &self.config)),
            Algorithm::PmCij => PairStream::from_outcome(algorithm, pm_cij(workload, &self.config)),
            Algorithm::NmCij => PairStream::nm(workload, &self.config),
        }
    }

    /// Runs `algorithm` on `workload` to completion: the result pairs and
    /// the query's profile (for NM-CIJ all cost is JOIN cost, and its work
    /// counts are those of Figures 10 and 11).
    pub fn run(&self, workload: &mut Workload, algorithm: Algorithm) -> CijOutcome {
        blocking(self.stream(workload, algorithm).try_into_outcome())
    }

    /// Convenience: builds the workload for `p` and `q` and runs
    /// `algorithm` to completion.
    pub fn join(&self, p: &[Point], q: &[Point], algorithm: Algorithm) -> CijOutcome {
        let mut workload = self.build_workload(p, q);
        self.run(&mut workload, algorithm)
    }

    /// Builds the R-tree indexed multiway workload for `sets` under this
    /// engine's configuration.
    pub fn multiway_workload(&self, sets: &[Vec<Point>]) -> MultiwayWorkload {
        MultiwayWorkload::build(sets, &self.config)
    }

    /// Starts the multiway CIJ on `workload` and returns the lazy
    /// [`TupleStream`]: leaf units of the cost-selected driver tree are
    /// processed
    /// only as tuples are demanded, with progress samples and per-leaf
    /// watermarks observable mid-join (see [`crate::multiway`]).
    pub fn multiway_stream<'a>(&self, workload: &'a mut MultiwayWorkload) -> TupleStream<'a> {
        TupleStream::new(workload, self.config)
    }

    /// Runs the multiway CIJ over `sets` to completion: builds the
    /// workload and drains its [`TupleStream`].
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn multiway(&self, sets: &[Vec<Point>]) -> MultiwayOutcome {
        let mut workload = self.multiway_workload(sets);
        blocking(self.multiway_stream(&mut workload).try_into_outcome())
    }

    /// Runs the CIJ-based grouped nearest-neighbour plan (see
    /// [`crate::grouped`]): joins `p` and `q`, reading exactly the pages of
    /// the NM-CIJ [`run`](Self::run) of the same workload, and counts each
    /// location of `locations` inside [`CijConfig::domain`] for the first
    /// reported pair whose two cells hold it (ties on a region boundary have
    /// measure zero for continuous data).
    pub fn grouped_nn(&self, p: &[Point], q: &[Point], locations: &[Point]) -> GroupCounts {
        blocking(
            NmPairIter::new(&mut self.build_workload(p, q), self.config)
                .with_locations(locations)
                .into_group_counts(),
        )
    }

    /// Builds an immutable, shareable [`EngineSnapshot`] of `sets` under
    /// this engine's configuration — the data a request server executes
    /// fast-mode queries against.
    pub fn snapshot(&self, sets: &[Vec<Point>]) -> EngineSnapshot {
        EngineSnapshot::build(sets, &self.config)
    }

    /// Starts a concurrent request server over a snapshot of `sets` — the
    /// thin serving front of the fast executor (see [`crate::service`]):
    /// bounded work queue, worker pool, cache-budget admission control and
    /// watermark-batched result streaming.
    pub fn serve(&self, sets: &[Vec<Point>], service: ServiceConfig) -> CijService {
        CijService::start(Arc::new(self.snapshot(sets)), service)
    }
}

/// The blocking calls' end: a storage failure panics, naming the read.
fn blocking<T>(result: Result<T, PageIoError>) -> T {
    result.unwrap_or_else(|e| panic!("CIJ storage failure: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use cij_rtree::RTreeConfig;
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

    #[test]
    fn engine_runs_every_algorithm_to_the_same_result() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(80, 501);
        let q = random_points(90, 502);
        let oracle = brute_force_cij(&p, &q, &engine.config().domain);
        for alg in Algorithm::ALL {
            let outcome = engine.join(&p, &q, alg);
            assert_eq!(outcome.sorted_pairs(), oracle, "{} disagrees", alg.name());
        }
    }

    #[test]
    fn run_dispatches_to_the_right_algorithm() {
        // Collinear inputs: every P point on one horizontal line, every Q
        // point on one vertical line.
        let engine = QueryEngine::new(small_config());
        let p: Vec<Point> = (0..30)
            .map(|i| Point::new(100.0 * i as f64 + 50.0, 5_000.0))
            .collect();
        let q: Vec<Point> = (0..30)
            .map(|i| Point::new(5_000.0, 100.0 * i as f64 + 50.0))
            .collect();
        let mut results = Vec::new();
        let mut materialised = Vec::new();
        for alg in Algorithm::ALL {
            let mut w = engine.build_workload(&p, &q);
            let outcome = engine.run(&mut w, alg);
            materialised.push(outcome.profile.mat_io.page_accesses());
            results.push(outcome.sorted_pairs());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        // FM materialises both Voronoi R-trees, PM one, NM none.
        assert!(
            materialised[0] > materialised[1] && materialised[1] > 0 && materialised[2] == 0,
            "MAT page accesses FM / PM / NM: {materialised:?}"
        );
    }

    #[test]
    fn streaming_and_blocking_paths_agree() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(120, 503);
        let q = random_points(110, 504);
        for alg in Algorithm::ALL {
            let streamed: Vec<(u64, u64)> = {
                let mut w = engine.build_workload(&p, &q);
                engine.stream(&mut w, alg).collect()
            };
            let mut streamed_sorted = streamed;
            streamed_sorted.sort_unstable();
            let blocking = engine.join(&p, &q, alg).sorted_pairs();
            assert_eq!(streamed_sorted, blocking, "{} stream differs", alg.name());
        }
    }

    #[test]
    fn nm_stream_is_lazy_first_pair_needs_few_accesses() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(600, 505);
        let q = random_points(600, 506);

        // Total cost of a complete run, for reference.
        let total = engine.join(&p, &q, Algorithm::NmCij).page_accesses();

        let mut w = engine.build_workload(&p, &q);
        let stats = w.stats.clone();
        let mut stream = engine.stream(&mut w, Algorithm::NmCij);
        let first = stream.next();
        assert!(first.is_some(), "join of non-empty sets yields pairs");
        let at_first = stats.snapshot().page_accesses();
        assert!(
            at_first * 4 < total,
            "first pair after {at_first} accesses vs {total} total — not lazy"
        );
        // Draining afterwards completes the join.
        let rest: Vec<_> = stream.collect();
        assert!(!rest.is_empty());
    }

    #[test]
    fn mid_stream_progress_is_observable() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(400, 507);
        let q = random_points(400, 508);
        let mut w = engine.build_workload(&p, &q);
        let mut stream = engine.stream(&mut w, Algorithm::NmCij);
        let _ = stream.next();
        let early = stream.progress_so_far();
        assert!(!early.is_empty(), "progress recorded by the first pair");
        let outcome = stream.try_into_outcome().unwrap();
        assert!(outcome.progress.len() >= early.len());
        // Work counts flowed through the stream.
        assert!(outcome.profile.work.cells[1].computed > 0);
    }

    #[test]
    fn pair_streams_are_send() {
        // A running stream can be handed to another thread: it owns its
        // iterator and ledger by value and both are `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<PairStream<'static>>();

        let engine = QueryEngine::new(small_config());
        let p = random_points(80, 514);
        let q = random_points(80, 515);
        let mut w = engine.build_workload(&p, &q);
        let mut stream = engine.stream(&mut w, Algorithm::NmCij);
        let first = stream.next();
        let rest: usize = std::thread::scope(|s| {
            s.spawn(move || {
                // The moved stream keeps producing on the other thread.
                stream.count()
            })
            .join()
            .expect("consumer thread")
        });
        assert!(first.is_some());
        assert!(rest > 0);
    }

    #[test]
    fn engine_multiway_and_grouped_entry_points_work() {
        let engine = QueryEngine::new(small_config());
        let sets = vec![random_points(25, 511), random_points(30, 512)];
        let multi = engine.multiway(&sets);
        let binary: Vec<Vec<u64>> = brute_force_cij(&sets[0], &sets[1], &engine.config().domain)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        assert_eq!(multi.sorted_ids(), binary);

        let locations = random_points(300, 513);
        let counts = engine.grouped_nn(&sets[0], &sets[1], &locations);
        assert_eq!(counts.values().sum::<u64>(), locations.len() as u64);
    }

    #[test]
    fn multiway_stream_is_lazy_and_matches_the_blocking_run() {
        let engine = QueryEngine::new(small_config());
        let sets = vec![random_points(1_500, 516), random_points(1_500, 517)];

        // Total cost of a complete run, for reference.
        let blocking = engine.multiway(&sets);
        let total = blocking.profile.page_accesses();

        let mut w = engine.multiway_workload(&sets);
        let stats = w.stats.clone();
        let mut stream = engine.multiway_stream(&mut w);
        let first = stream.next();
        assert!(first.is_some(), "join of non-empty sets yields tuples");
        let at_first = stats.snapshot().page_accesses();
        assert!(
            at_first * 4 < total,
            "first tuple after {at_first} accesses vs {total} total — not lazy"
        );
        assert!(!stream.watermarks_so_far().is_empty());

        // Draining afterwards completes the join with the same result.
        let mut ids: Vec<Vec<u64>> = vec![first.unwrap().ids];
        ids.extend(stream.map(|t| t.ids));
        ids.sort();
        assert_eq!(ids, blocking.sorted_ids());
    }
}
