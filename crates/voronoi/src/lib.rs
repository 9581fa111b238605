//! # cij-voronoi
//!
//! R-tree based Voronoi-cell computation — the algorithmic substrate of the
//! CIJ paper (Yiu, Mamoulis & Karras, ICDE 2008, Section III).
//!
//! * [`single_voronoi`] — **BF-VOR** (Algorithm 1): the exact Voronoi cell of
//!   one point in a single best-first R-tree traversal, with the Lemma-1/2
//!   pruning rule [`can_refine`].
//! * [`batch_voronoi`] — **BatchVoronoi** (Algorithm 2): the cells of a
//!   group of nearby points (one R-tree leaf, in practice), first clipped
//!   with each member's neighbours in the group's exact Delaunay
//!   triangulation, then refined in one shared traversal of nodes — a
//!   leaf's points refine the cells as soon as the leaf is read — behind a
//!   reuse buffer ([`CellStore`]; [`NoCache`] for none).
//! * [`tp_voronoi`] — the **TP-VOR** multi-traversal baseline of \[10\], used
//!   by Figure 5 as the comparison point for BF-VOR.
//! * [`compute_diagram`] — the ITER / BATCH whole-diagram builders of
//!   Section V-A, plus the [`lower_bound_io`] traversal bound LB.
//! * [`brute`] — O(n²) oracles implementing Eq. (2) literally, for tests.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod brute;
pub mod diagram;
pub mod single;
pub mod tpvor;

pub use batch::{
    batch_voronoi, batch_voronoi_cached_with, cell_reach_sq, CellStore, NoCache, VorScratch,
};
pub use brute::{brute_force_cell, brute_force_diagram, nearest_index};
pub use diagram::{compute_diagram, lower_bound_io, DiagramMethod, DiagramResult};
pub use single::{can_refine, single_voronoi};
pub use tpvor::tp_voronoi;
