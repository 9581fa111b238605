//! # cij-core
//!
//! The **Common Influence Join** (CIJ) — the primary contribution of
//! Yiu, Mamoulis & Karras, *Common Influence Join: A Natural Join Operation
//! for Spatial Pointsets*, ICDE 2008.
//!
//! Given two pointsets `P` and `Q` indexed by R-trees, `CIJ(P, Q)` returns
//! every pair `(p, q)` whose Voronoi cells `V(p, P)` and `V(q, Q)`
//! intersect — i.e. some location is simultaneously inside the influence
//! region of `p` and of `q`. The join is parameter-free, unlike ε-distance
//! joins and k-closest-pair joins.
//!
//! ## The streaming execution core
//!
//! All evaluation goes through the [`engine`] module:
//!
//! * [`QueryEngine`] — the one front door: build a workload once, then
//!   run or **stream** any algorithm against it. [`QueryEngine::stream`]
//!   holds the one dispatch from an [`Algorithm`] to its evaluation.
//! * [`PairStream`] — a pull-based iterator of result pairs. NM-CIJ is
//!   implemented natively as this stream (one `RQ` leaf is processed per
//!   demand), which makes the paper's *non-blocking* claim an observable
//!   property: the first pair costs only a handful of page accesses.
//!
//! NM-CIJ executes leaf units in chunks on a worker pool of
//! [`CijConfig::worker_threads`] (inline calls at one worker, a
//! `std::thread::scope` pool above) with ordered reassembly — pairs (set
//! and order), counters and page-access totals are identical at every
//! width; see the [`nm`] module docs for the determinism protocol.
//!
//! ## The three algorithms
//!
//! In increasing order of sophistication and decreasing order of I/O cost:
//!
//! * [`fm`] — **FM-CIJ** (Algorithm 3): materialise both Voronoi
//!   diagrams into Hilbert-packed R-trees and intersection-join them.
//!   Blocking.
//! * [`pm`] — **PM-CIJ** (Algorithm 4): materialise only `Vor(P)`;
//!   probe batches of `Q` cells against it (block index nested loops).
//!   Blocking.
//! * [`nm`] — **NM-CIJ** (Algorithm 6): materialise nothing; per leaf of
//!   `RQ`, filter `RP` with the [`filter`] module's conditional filter
//!   (Algorithm 5) and verify candidates with on-demand cell computation.
//!   Non-blocking and nearly I/O-optimal.
//!
//! ## Execution modes and the request server
//!
//! NM-CIJ and the multiway join run in one of two modes
//! ([`CijConfig::exec_mode`]): **Metered**, the
//! byte-exact counted oracle used by every experiment and test, and
//! **Fast**, a lock-light serving mode in which read-only snapshot readers
//! replace the trace/replay machinery and many concurrent queries share one
//! `Arc`-held tree pair. The [`service`] module builds on fast mode: a
//! bounded work queue, a worker pool, cache-budget admission control and
//! incremental result streaming — see [`QueryEngine::serve`]. The
//! [`engine`] module docs spell out the mode contract.
//!
//! ## The shared cell cache
//!
//! The Section IV-B *reuse buffer* is the bounded LRU [`CellCache`], one
//! per query and probed input set. NM-CIJ and the [`multiway`] /
//! [`grouped`] extensions reach it through the chunk protocol's probe
//! stage; the driving set needs none, since each of its cells is computed
//! once. PM-CIJ keeps none, because it never asks for a cell
//! twice (see [`pm`]). Its capacity is bounded by
//! [`CijConfig::cell_cache_capacity`]; the cache counts its own
//! hits, misses and evictions, and each query's [`QueryProfile`] reports
//! them per input set.
//!
//! ## What a query reports about itself
//!
//! Every join kind reports one [`QueryProfile`] ([`CijOutcome`],
//! [`MultiwayOutcome`], `profile_so_far()` mid-stream): time per [`Phase`]
//! — Figure 7's MAT is [`Phase::Materialise`] — MAT/JOIN I/O, and the
//! deterministic [`WorkCounts`] of Figures 10 and 11.
//!
//! ## Quick example
//!
//! ```
//! use cij_core::{Algorithm, CijConfig, QueryEngine};
//! use cij_geom::Point;
//!
//! let restaurants = vec![Point::new(2_000.0, 3_000.0), Point::new(7_000.0, 8_000.0)];
//! let cinemas = vec![Point::new(2_500.0, 2_500.0), Point::new(6_500.0, 8_500.0)];
//! let engine = QueryEngine::new(CijConfig::default());
//!
//! // Blocking: collect the whole result.
//! let result = engine.join(&restaurants, &cinemas, Algorithm::NmCij);
//! assert!(!result.pairs.is_empty());
//!
//! // Streaming: pairs arrive while the join is still running.
//! let mut workload = engine.build_workload(&restaurants, &cinemas);
//! let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
//! let first = stream.next();
//! assert!(first.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod brute;
pub mod cell_cache;
mod chunk;
pub mod config;
pub mod engine;
pub mod filter;
pub mod fm;
pub mod grouped;
pub mod multiway;
pub mod nm;
pub mod pm;
pub mod service;
pub mod stats;
mod vor_rtree;
pub mod workload;

pub use brute::brute_force_cij;
pub use cell_cache::{CacheBudget, CacheLease, CellCache};
pub use cij_pagestore::StorageBackend;
pub use config::{CijConfig, ExecMode};
pub use engine::{PairStream, QueryEngine};
pub use filter::{batch_conditional_filter_scratch, FilterOptions, FilterScratch, FilterStats};
pub use grouped::{grouped_nn_via_all_nn, GroupCounts};
pub use multiway::{brute_force_multiway_cij, MultiwayOutcome, MultiwayTuple, TupleStream};
pub use service::{
    Batch, CijService, Completion, EngineSnapshot, ManualClock, QueryError, QueueFull, Request,
    ResponseHandle, ServiceClock, ServiceConfig, SystemClock,
};
pub use stats::{
    CellCounts, CijOutcome, LeafWatermark, Phase, PhaseTimes, ProgressSample, QueryProfile,
    WorkCounts,
};
pub use workload::{MultiwayWorkload, Workload};

/// The three CIJ evaluation algorithms, for harnesses that sweep over them;
/// [`QueryEngine::stream`] and [`QueryEngine::run`] evaluate one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Full materialisation (Algorithm 3).
    FmCij,
    /// Partial materialisation (Algorithm 4).
    PmCij,
    /// No materialisation / non-blocking (Algorithm 6).
    NmCij,
}

impl Algorithm {
    /// All algorithms in the order the paper's plots list them.
    pub const ALL: [Algorithm; 3] = [Algorithm::FmCij, Algorithm::PmCij, Algorithm::NmCij];

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::FmCij => "FM-CIJ",
            Algorithm::PmCij => "PM-CIJ",
            Algorithm::NmCij => "NM-CIJ",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_match_the_paper() {
        assert_eq!(Algorithm::FmCij.name(), "FM-CIJ");
        assert_eq!(Algorithm::PmCij.name(), "PM-CIJ");
        assert_eq!(Algorithm::NmCij.name(), "NM-CIJ");
        assert_eq!(Algorithm::ALL.len(), 3);
    }
}
