//! # cij-geom
//!
//! Two-dimensional computational-geometry primitives used throughout the
//! Common Influence Join (CIJ) reproduction of Yiu, Mamoulis & Karras
//! (ICDE 2008).
//!
//! The crate provides exactly the geometric toolbox the paper's algorithms
//! rely on:
//!
//! * [`Point`] and Euclidean distances,
//! * [`Rect`] axis-aligned rectangles (R-tree MBRs) with `mindist`
//!   lower bounds as used by best-first search,
//! * [`Segment`] line segments (rectangle sides) with point distance,
//! * [`HalfPlane`] perpendicular-bisector halfplanes `⊥p(p, q)` (Eq. 1 of
//!   the paper),
//! * [`ConvexPolygon`] convex polygons with halfplane clipping — the
//!   representation of Voronoi cells (Eq. 2) — and [`EdgeTable`], their
//!   intersection test's per-polygon half built once for a batch,
//! * the Φ(L, p) region predicate of Section IV-A (Lemma 3),
//! * a [`hilbert`] space-filling curve used for bulk-loading and for the
//!   Hilbert-ordered traversals of Section III-C,
//! * uniform-[`grid`] spatial bucketing ([`PointGrid`] ring queries,
//!   [`RectGrid`] overlap queries) — the index structures behind the
//!   sub-quadratic conditional-filter kernel.
//!
//! All coordinates are `f64`. The paper normalises datasets to the square
//! `[0, 10000]²`; [`Rect::DOMAIN`] is that default universe.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod grid;
pub mod halfplane;
pub mod hilbert;
pub mod phi;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod segment;

pub use grid::{GridFrame, PointGrid, RectGrid};
pub use halfplane::HalfPlane;
pub use phi::{phi_contains_point, polygon_within_phi, rect_within_phi_all_sides};
pub use point::Point;
pub use polygon::{ClipScratch, ConvexPolygon, EdgeTable};
pub use rect::Rect;
pub use segment::Segment;

/// Geometric tolerance used for robustness in predicates.
///
/// Coordinates in the reproduction live in `[0, 10000]`, so an absolute
/// epsilon of `1e-7` is roughly a relative error of `1e-11` — far below the
/// resolution of the generated workloads but large enough to absorb the
/// rounding introduced by repeated halfplane clipping.
pub const EPS: f64 = 1e-7;
