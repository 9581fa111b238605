//! # cij — Common Influence Join for spatial pointsets
//!
//! A Rust reproduction of *Yiu, Mamoulis & Karras, "Common Influence Join: A
//! Natural Join Operation for Spatial Pointsets", ICDE 2008*.
//!
//! Given two pointsets `P` and `Q`, the **common influence join** `CIJ(P, Q)`
//! returns every pair `(p, q)` such that some location in space is closer to
//! `p` than to any other point of `P` *and* closer to `q` than to any other
//! point of `Q` — equivalently, the Voronoi cells of `p` and `q` intersect.
//! Unlike ε-distance joins or k-closest-pair joins the operation is
//! parameter-free.
//!
//! ## The `QueryEngine`
//!
//! All evaluation goes through one entry point, the [`QueryEngine`]: it owns
//! the configuration, builds R-tree workloads, and runs — or **streams** —
//! any of the three join algorithms, plus the multiway and grouped-NN
//! extensions. The paper's headline claim about NM-CIJ, that it is
//! *non-blocking*, is directly observable through [`QueryEngine::stream`]:
//! the returned [`PairStream`] is a lazy iterator, and pulling its first
//! pair performs only the page accesses needed for the first productive
//! leaf of `RQ`.
//!
//! ```
//! use cij::prelude::*;
//!
//! // Two tiny datasets: restaurants (P) and cinemas (Q).
//! let p = cij::datagen::uniform_points(200, &Rect::DOMAIN, 1);
//! let q = cij::datagen::uniform_points(150, &Rect::DOMAIN, 2);
//!
//! let engine = QueryEngine::new(CijConfig::default());
//!
//! // Blocking: run the non-blocking algorithm to completion.
//! let result = engine.join(&p, &q, Algorithm::NmCij);
//! assert!(result.pairs.len() >= p.len().max(q.len()));
//! println!("{} CIJ pairs using {} page accesses", result.pairs.len(), result.page_accesses());
//!
//! // Streaming: consume pairs while the join is still running.
//! let mut workload = engine.build_workload(&p, &q);
//! let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
//! let first = stream.next().expect("non-empty join");
//! println!("first pair {first:?} after {:?} samples", stream.progress_so_far().len());
//! ```
//!
//! ## Workspace layout
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`geom`] — geometric primitives (points, rectangles, convex polygons,
//!   bisector halfplanes, Φ regions, Hilbert curve),
//! * [`pagestore`] — simulated 1 KB disk pages, LRU buffer, I/O statistics
//!   (including the cell-cache hit/miss/eviction counters),
//! * [`rtree`] — the disk-based R-tree (bulk loading, NN search, spatial
//!   joins),
//! * [`voronoi`] — R-tree based Voronoi cell computation (BF-VOR,
//!   BatchVoronoi and its cache-aware variant, TP-VOR, diagram builders),
//! * [`datagen`] — workload generators (uniform, clustered, real-dataset
//!   stand-ins),
//! * [`core`] — the CIJ algorithms (FM-CIJ, PM-CIJ, streaming NM-CIJ), the
//!   [`QueryEngine`]/[`PairStream`] execution core, the two-mode
//!   (metered/fast) executor, the shared bounded [`CellCache`] and the
//!   concurrent request server ([`core::service`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub use cij_core as core;
pub use cij_datagen as datagen;
pub use cij_geom as geom;
pub use cij_pagestore as pagestore;
pub use cij_rtree as rtree;
pub use cij_voronoi as voronoi;

pub use cij_core::{
    Algorithm, CellCache, CijConfig, ExecMode, PairStream, QueryEngine, StorageBackend,
};

/// Commonly used items, for `use cij::prelude::*`.
pub mod prelude {
    pub use cij_core::{
        batch_conditional_filter_scratch, brute_force_cij, brute_force_multiway_cij, Algorithm,
        Batch, CacheBudget, CacheLease, CellCache, CijConfig, CijOutcome, CijService, Completion,
        EngineSnapshot, ExecMode, FilterOptions, FilterScratch, FilterStats, LeafWatermark,
        ManualClock, MultiwayOutcome, MultiwayTuple, MultiwayWorkload, PairStream, Phase,
        QueryEngine, QueryError, QueryProfile, QueueFull, Request, ResponseHandle, ServiceClock,
        ServiceConfig, StorageBackend, SystemClock, TupleStream, WorkCounts, Workload,
    };
    pub use cij_datagen::{clustered_points, uniform_points, ClusterSpec, RealDataset};
    pub use cij_geom::{ConvexPolygon, Point, Rect};
    pub use cij_pagestore::{
        FaultKind, FaultProfile, FaultStats, IoStats, PageIoError, RetryPolicy,
    };
    pub use cij_rtree::{PointObject, RTree, RTreeConfig};
    pub use cij_voronoi::{single_voronoi, tp_voronoi};
}
