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
//!   intersection test's per-polygon half built once for a batch: tolerant
//!   boxes in four coordinate arrays behind one branch-free box kernel
//!   ([`EdgeTable::overlapping`], 64 rows to a bitmask) that both joins'
//!   candidate × region scans run, and the edges [`EdgeTable::meets`]
//!   tests the rows it returns with,
//! * the Φ(L, p) region predicate of Section IV-A (Lemma 3),
//! * a [`hilbert`] space-filling curve used for bulk-loading and for the
//!   Hilbert-ordered traversals of Section III-C,
//! * uniform-[`grid`] spatial bucketing ([`RectGrid`] overlap queries over
//!   a [`GridFrame`]) — the conditional filter's probe-polygon index,
//! * exact [`predicates`] ([`orient2d`], [`incircle`]) and the exact
//!   [`delaunay`] triangulation of a point group ([`Delaunay`]), whose
//!   neighbour lists name the bisectors BatchVoronoi seeds a group's cells
//!   with — built at once for a group, or grown point by point for the
//!   conditional filter's candidates.
//!
//! All coordinates are `f64`. The paper normalises datasets to the square
//! `[0, 10000]²`; [`Rect::DOMAIN`] is that default universe.
//!
//! # Tolerance policy
//!
//! Every geometric decision of the workspace takes its threshold from one
//! module, [`tolerance`], under one rule, one direction and one contract.
//!
//! * **One rule.** A threshold is [`tolerance::TAU`] (`τ = 1e-11`) times the
//!   magnitude of the operands — the largest absolute coordinate of the
//!   points the decision is about — in the units of the quantity compared:
//!   `τ·M` for a distance, `τ·M·‖n‖₁` for the slack of a line with normal
//!   `n`, `τ·M²` for a difference of squared distances. It is computed once
//!   per halfplane, edge or entry ([`HalfPlane`] carries its own), never per
//!   vertex, and it is never absolute: every threshold scales with the
//!   coordinates, so each decision at scale `2^k` is the decision at scale
//!   1, bit for bit. At the paper's `[0, 10000]²` a distance threshold is
//!   `10⁻⁷`.
//! * **One direction.** Decisions that keep are inclusive — on the line is
//!   inside: clipping, containment, the join's cell-intersection test (the
//!   separating-axis "not separated"), the grouped-NN claim. Decisions that
//!   discard fire only strictly beyond the threshold: Φ pruning, the reach
//!   gate, a bisector cutting a cell, TP-VOR's re-check. A shortcut that
//!   answers a keep decision without its work fires only strictly inside:
//!   the conditional filter's inside-point rule asks
//!   [`ConvexPolygon::strictly_contains_point`], every edge slack above
//!   `+threshold`, so a point in the tolerance band is left to the decision
//!   it would skip. Degeneracy tests are exact (a zero normal, a zero-length
//!   segment).
//! * **Exact predicates carry no threshold.** [`orient2d`] and [`incircle`]
//!   return exact signs (a float filter whose error bound only decides
//!   whether an exact expansion is needed), so the [`Delaunay`] neighbour
//!   lists are those of the inputs as real numbers. They only choose which
//!   bisectors to apply; every cut is still the tolerant
//!   [`ConvexPolygon::clip_in_place`], under the rule above.
//! * **The contract.** What a join returns:
//!   - Cells are closed (Eqs. 1–2): two cells that share only a vertex or an
//!     edge — a contact of measure zero — intersect, so the pair joins.
//!   - On lattice inputs the result is exact at every power-of-two scale:
//!     sites and domain corners on a grid at most 64 steps wide, with step
//!     `2^k`, `|k| ≤ 40`. `tests/exact_oracle.rs` holds every join
//!     algorithm to an integer oracle on such inputs.
//!   - Elsewhere a pair whose cells (of three or more vertices) do not touch
//!     is reported only when the cells are less than `2√2·τ·M` apart, `M`
//!     the largest coordinate magnitude of the two. The closest points face
//!     each other across an edge, whose test alone bounds the gap by
//!     `√2·τ·M`, or tip to tip, where an edge normal or a coordinate axis
//!     lies within 45° of the gap and its test — an edge's threshold or the
//!     widened boxes — bounds it by `2√2·τ·M`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod delaunay;
pub mod grid;
pub mod halfplane;
pub mod hilbert;
pub mod phi;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod segment;
pub mod tolerance;

pub use delaunay::Delaunay;
pub use grid::{GridFrame, RectGrid};
pub use halfplane::HalfPlane;
pub use phi::{phi_contains_point, polygon_within_phi};
pub use point::Point;
pub use polygon::{ClipScratch, ConvexPolygon, EdgeTable};
pub use predicates::{incircle, orient2d};
pub use rect::Rect;
pub use segment::Segment;

/// A deterministic stream of uniform integers (SplitMix64): the unit tests'
/// seeded samples.
#[cfg(test)]
pub(crate) struct TestRng(pub(crate) u64);

#[cfg(test)]
impl TestRng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        self.below(1 << 53) as f64 / (1u64 << 53) as f64
    }
}
