//! Convex polygons — the representation of Voronoi cells.
//!
//! A Voronoi cell (Eq. 2 of the paper) is the intersection of halfplanes,
//! starting from the rectangular space domain `U`, so it is always a convex
//! polygon. [`ConvexPolygon`] stores the vertices in counter-clockwise order
//! and supports the operations the CIJ algorithms need: clipping by a
//! halfplane, intersection tests against other convex polygons and MBRs,
//! point containment, bounding boxes, areas and centroids.
//!
//! ## Clipping APIs and the scratch-buffer ownership contract
//!
//! Halfplane clipping has one kernel,
//! [`ConvexPolygon::clip_in_place`] (with
//! [`ConvexPolygon::clip_bisector_in_place`] around it), the form the hot
//! loops use: one pass over the outline computes every vertex slack (the
//! expression [`HalfPlane::signed_slack`] evaluates, so the same bits) and
//! whether all of them are inside — the answer it returns, so a caller that
//! counts cuts needs no pass of its own — and the surviving vertices are
//! written through a caller-owned [`ClipScratch`], so a steady-state clip
//! performs **zero** heap allocation. [`ConvexPolygon::clip`] /
//! [`ConvexPolygon::clip_bisector`] run it on a copy through a fresh scratch;
//! the tests hold it to a plain Sutherland–Hodgman reference.
//!
//! Polygon intersection follows the same split:
//! [`ConvexPolygon::intersection_into`] clips edge by edge through
//! `clip_in_place` into a caller-owned output polygon, and
//! [`ConvexPolygon::intersection`] is it with a fresh scratch.
//!
//! The scratch contract: a [`ClipScratch`] is owned by the *caller* (one per
//! worker thread, allocated once and reused across every clip of every
//! unit), its contents are meaningless between calls, and no polygon ever
//! borrows from it — after `clip_in_place` returns, the polygon owns its
//! vertices exactly as if `clip` had been called. Scratch buffers only grow
//! to the high-water vertex count, then stabilise (ping-pong reuse).
//!
//! ## The intersection test and its edge tables
//!
//! [`ConvexPolygon::intersects`] is a separating-axis test: each edge of
//! either polygon is a [`HalfPlane`] that keeps the polygon's side
//! ([`HalfPlane::edge`]), and the polygons are disjoint when some edge of
//! one holds no vertex of the other — "holds" being the one tolerant
//! sidedness test, [`HalfPlane::contains`], so touching polygons are never
//! separated. An edge depends on its own polygon alone, so a caller that
//! tests one polygon against many builds it once: an [`EdgeTable`] holds the
//! edges and tolerant bounding boxes of a batch of polygons. Its one box
//! kernel, [`EdgeTable::overlapping`], finds the rows whose boxes meet a
//! query box — branch-free, 64 rows to a bitmask — and
//! [`EdgeTable::meets`] runs the separating-axis test on a row it found:
//! the two together answer exactly what `intersects` answers.

use crate::halfplane::HalfPlane;
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::tolerance;
use std::ops::Range;

/// A convex polygon with vertices in counter-clockwise order.
///
/// The polygon may be *empty* (no vertices) — e.g. after clipping with a
/// halfplane that excludes it entirely — or degenerate (fewer than three
/// distinct vertices). No two consecutive vertices coincide
/// ([`tolerance`]); every constructor and clip keeps it so. Empty polygons
/// intersect nothing and contain nothing.
#[derive(Debug, PartialEq, Default)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

impl Clone for ConvexPolygon {
    fn clone(&self) -> Self {
        ConvexPolygon {
            vertices: self.vertices.clone(),
        }
    }

    /// Reuses the existing vertex allocation (`Vec::clone_from`), so cloning
    /// into a warm polygon buffer is allocation-free once it has grown.
    fn clone_from(&mut self, source: &Self) {
        self.vertices.clone_from(&source.vertices);
    }
}

/// Caller-owned scratch buffers for the in-place clipping APIs
/// ([`ConvexPolygon::clip_in_place`], [`ConvexPolygon::clip_bisector_in_place`]).
///
/// Holds the vertex slacks of the outline being clipped, the ping-pong
/// vertex buffer the clipped outline is built in, and the working polygon
/// of [`ConvexPolygon::intersection_into`]. Allocate one per worker, reuse
/// it across units; contents between calls are unspecified.
#[derive(Debug, Default)]
pub struct ClipScratch {
    slacks: Vec<f64>,
    out: Vec<Point>,
    work: ConvexPolygon,
}

impl ClipScratch {
    /// Creates an empty scratch (buffers grow on first use, then stabilise).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConvexPolygon {
    /// Creates a polygon from vertices assumed to be convex and in
    /// counter-clockwise order. Consecutive duplicate vertices are removed.
    pub fn new(vertices: Vec<Point>) -> Self {
        let mut poly = ConvexPolygon { vertices };
        poly.dedup();
        poly
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        ConvexPolygon {
            vertices: Vec::new(),
        }
    }

    /// The rectangle `r` as a convex polygon (counter-clockwise corners;
    /// those of a degenerate rectangle that coincide are merged).
    pub fn from_rect(r: &Rect) -> Self {
        ConvexPolygon::new(r.corners().to_vec())
    }

    /// Replaces the outline by `vertices`, assumed convex and in
    /// counter-clockwise order, in the polygon's own buffer: what
    /// [`ConvexPolygon::new`] builds, consecutive duplicates removed alike,
    /// without an allocation once the buffer holds that many vertices.
    pub fn refill(&mut self, vertices: &[Point]) {
        self.vertices.clear();
        self.vertices.extend_from_slice(vertices);
        self.dedup();
    }

    /// The vertices of the polygon in counter-clockwise order.
    ///
    /// For a Voronoi cell approximation `Vc(p)` these are the vertex set
    /// `Γc(p)` used by Lemmas 1 and 2.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the polygon has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    fn dedup(&mut self) {
        if self.vertices.len() < 2 {
            return;
        }
        // In-place compaction keeping the first of each run of coinciding
        // vertices — same comparisons as a copy-based pass, zero allocation.
        let mut w = 1;
        for r in 1..self.vertices.len() {
            let v = self.vertices[r];
            if !tolerance::coincide(&self.vertices[w - 1], &v) {
                self.vertices[w] = v;
                w += 1;
            }
        }
        self.vertices.truncate(w);
        // The polygon is cyclic: the last vertex may duplicate the first.
        while self.vertices.len() > 1
            && tolerance::coincide(&self.vertices[0], self.vertices.last().unwrap())
        {
            self.vertices.pop();
        }
    }

    /// Clips the polygon with a halfplane (Sutherland–Hodgman against a
    /// single boundary line), returning the part of the polygon inside the
    /// halfplane: [`ConvexPolygon::clip_in_place`] on a copy, through a
    /// fresh scratch.
    ///
    /// This is the "update `Vc(pi)` by `⊥pi(pi, pj)`" step of Algorithms 1
    /// and 2. Degenerate halfplanes leave the polygon unchanged.
    pub fn clip(&self, hp: &HalfPlane) -> ConvexPolygon {
        let mut poly = self.clone();
        poly.clip_in_place(hp, &mut ClipScratch::new());
        poly
    }

    /// In-place variant of [`ConvexPolygon::clip`]: leaves the surviving
    /// outline in `self`, building it through the caller-owned scratch, and
    /// returns whether the halfplane cut the polygon — whether some vertex
    /// lay strictly outside it. When it returns `false` the outline is
    /// untouched.
    ///
    /// Every vertex slack is `offset - (nx * x + ny * y)`, the multiply-add
    /// [`HalfPlane::signed_slack`] performs, so the same bits, compared once
    /// with the halfplane's threshold, exactly as [`HalfPlane::contains`]
    /// does. A halfplane that cuts nothing — most of those a caller offers —
    /// costs one read-only pass. In steady state (warm scratch) the call
    /// performs no heap allocation, and the result does not depend on what
    /// the scratch held.
    #[inline]
    pub fn clip_in_place(&mut self, hp: &HalfPlane, scratch: &mut ClipScratch) -> bool {
        // An outline all inside stays as it is: every constructor leaves
        // consecutive vertices apart.
        let cut = !self.vertices.iter().all(|v| hp.contains(v));
        if cut {
            self.cut(hp, scratch);
        }
        cut
    }

    /// The cutting half of [`ConvexPolygon::clip_in_place`], out of line.
    fn cut(&mut self, hp: &HalfPlane, scratch: &mut ClipScratch) {
        // The threshold `HalfPlane::contains` applies, read once (so the
        // comparisons below are the comparisons `contains` performs).
        let floor = -hp.tolerance;
        let (nx, ny) = (hp.normal.x, hp.normal.y);
        let slack = |v: &Point| hp.offset - (nx * v.x + ny * v.y);
        scratch.slacks.clear();
        scratch.slacks.extend(self.vertices.iter().map(slack));
        let n = self.vertices.len();
        scratch.out.clear();
        for i in 0..n {
            let j = if i + 1 == n { 0 } else { i + 1 };
            let cur = self.vertices[i];
            let (sa, sb) = (scratch.slacks[i], scratch.slacks[j]);
            let cur_in = sa >= floor;
            if cur_in {
                scratch.out.push(cur);
            }
            if cur_in != (sb >= floor) {
                scratch.out.push(crossing(cur, self.vertices[j], sa, sb));
            }
        }
        // Ping-pong: the old outline becomes the next call's build buffer.
        std::mem::swap(&mut self.vertices, &mut scratch.out);
        self.dedup();
    }

    /// Clips the polygon with the perpendicular bisector `⊥p(p, q)`, keeping
    /// the side closer to `p`.
    #[inline]
    pub fn clip_bisector(&self, p: &Point, q: &Point) -> ConvexPolygon {
        self.clip(&HalfPlane::bisector(p, q))
    }

    /// In-place variant of [`ConvexPolygon::clip_bisector`] through a
    /// caller-owned [`ClipScratch`].
    #[inline]
    pub fn clip_bisector_in_place(&mut self, p: &Point, q: &Point, scratch: &mut ClipScratch) {
        self.clip_in_place(&HalfPlane::bisector(p, q), scratch);
    }

    /// Whether the polygon contains the point (boundary inclusive, within
    /// the tolerance of [`HalfPlane::contains`] on every edge; a point or
    /// segment polygon holds the points that coincide with it).
    pub fn contains_point(&self, p: &Point) -> bool {
        match self.vertices.as_slice() {
            [] => false,
            [v] => tolerance::coincide(v, p),
            [a, b] => tolerance::on_segment(&Segment::new(*a, *b), p),
            _ => self.edges().all(|hp| hp.contains(p)),
        }
    }

    /// Whether the polygon holds the point strictly inside: every edge slack
    /// of `p` is above the edge's threshold, where
    /// [`ConvexPolygon::contains_point`] asks only that it not fall below
    /// the threshold's negation. A point within the tolerance band of an
    /// edge or vertex is not held strictly, and a polygon of fewer than
    /// three vertices — no interior — holds nothing strictly.
    pub fn strictly_contains_point(&self, p: &Point) -> bool {
        self.vertices.len() >= 3 && self.edges().all(|hp| hp.signed_slack(p) > hp.tolerance)
    }

    /// The halfplane of each edge, interior side kept
    /// ([`HalfPlane::edge`]), in outline order.
    fn edges(&self) -> impl Iterator<Item = HalfPlane> + '_ {
        let v = &self.vertices;
        (0..v.len())
            .map(move |i| HalfPlane::edge(&v[i], &v[if i + 1 == v.len() { 0 } else { i + 1 }]))
    }

    /// Axis-aligned bounding box of the polygon; [`Rect::empty`] when the
    /// polygon is empty.
    pub fn bbox(&self) -> Rect {
        Rect::bounding(&self.vertices).unwrap_or_else(Rect::empty)
    }

    /// Area of the polygon via the shoelace formula (0 for degenerate
    /// polygons).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            sum += a.cross(&b);
        }
        sum.abs() * 0.5
    }

    /// Centroid of the polygon. For polygons with positive area this is the
    /// area centroid; for degenerate polygons it falls back to the vertex
    /// mean. Returns `None` for the empty polygon.
    pub fn centroid(&self) -> Option<Point> {
        let n = self.vertices.len();
        if n == 0 {
            return None;
        }
        if n < 3 {
            return Point::centroid(&self.vertices);
        }
        let mut area2 = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let w = a.cross(&b);
            area2 += w;
            cx += (a.x + b.x) * w;
            cy += (a.y + b.y) * w;
        }
        if tolerance::flat(area2, &self.bbox()) {
            return Point::centroid(&self.vertices);
        }
        Some(Point::new(cx / (3.0 * area2), cy / (3.0 * area2)))
    }

    /// Whether two convex polygons intersect (sharing a boundary point
    /// counts), using the separating-axis test: they are disjoint when some
    /// edge of either one holds no vertex of the other, each edge deciding
    /// through [`HalfPlane::contains`]. Boxes farther apart than their
    /// tolerance ([`tolerance::widened`]) are rejected first.
    ///
    /// This is the intersection predicate of the CIJ definition: `(p, q)` is
    /// a result pair iff `V(p, P)` and `V(q, Q)` intersect.
    pub fn intersects(&self, other: &ConvexPolygon) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if !tolerance::widened(&self.bbox()).intersects(&tolerance::widened(&other.bbox())) {
            return false;
        }
        // Handle point/segment degeneracies via containment & distance.
        if self.vertices.len() < 3 {
            return other.touches_low_dim(self);
        }
        if other.vertices.len() < 3 {
            return self.touches_low_dim(other);
        }
        let separates = |a: &ConvexPolygon, b: &[Point]| a.edges().any(|hp| separated(&hp, b));
        !separates(self, &other.vertices) && !separates(other, &self.vertices)
    }

    /// Intersection test against a degenerate (point or segment) polygon.
    fn touches_low_dim(&self, low: &ConvexPolygon) -> bool {
        match low.vertices.as_slice() {
            [] => false,
            [v] => self.contains_point(v),
            [a, b, ..] => {
                // The segment may stab the polygon without containing an
                // endpoint; then it touches some edge.
                let n = self.vertices.len();
                self.contains_point(a)
                    || self.contains_point(b)
                    || (0..n).any(|i| {
                        let (c, d) = (&self.vertices[i], &self.vertices[(i + 1) % n]);
                        tolerance::segments_touch(a, b, c, d)
                    })
            }
        }
    }

    /// Whether the polygon intersects a rectangle.
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        if self.is_empty() || r.is_empty() {
            return false;
        }
        self.intersects(&ConvexPolygon::from_rect(r))
    }

    /// The intersection polygon of two convex polygons (possibly empty),
    /// computed by clipping `self` with the edge halfplanes of `other`.
    ///
    /// The CIJ applications of the paper (collaborative promotion, grouped
    /// nearest neighbours) analyse the *common influence region*
    /// `R(p, q) = V(p, P) ∩ V(q, Q)` of each result pair; this method
    /// computes that region.
    pub fn intersection(&self, other: &ConvexPolygon) -> ConvexPolygon {
        let mut out = ConvexPolygon::empty();
        self.intersection_into(other, &mut ClipScratch::new(), &mut out);
        out
    }

    /// [`ConvexPolygon::intersection`] written into `out` (reusing its
    /// vertex allocation, whatever it held) through a caller-owned
    /// [`ClipScratch`], leaving `self` untouched: `self` clipped by each
    /// edge halfplane of `other` in turn. A point or segment `other` has
    /// no area to clip to and gives the empty polygon. The clipping itself runs in the
    /// scratch's working polygon and only the final outline is copied into
    /// `out`, so `out` never grows beyond the results it has held (not to
    /// the larger intermediate outlines), and with a warm scratch and a
    /// grown `out` the call performs no heap allocation.
    pub fn intersection_into(
        &self,
        other: &ConvexPolygon,
        scratch: &mut ClipScratch,
        out: &mut ConvexPolygon,
    ) {
        out.vertices.clear();
        if self.is_empty() || other.vertices.len() < 3 {
            return;
        }
        let mut work = std::mem::take(&mut scratch.work);
        work.clone_from(self);
        for hp in other.edges() {
            work.clip_in_place(&hp, scratch);
            if work.is_empty() {
                break;
            }
        }
        out.vertices.extend_from_slice(&work.vertices);
        scratch.work = work;
    }
}

/// The edge crossing between `cur` and `next`, whose slacks `sa` and `sb`
/// lie on opposite sides of the threshold — so `sa != sb`, and the
/// denominator is never zero.
#[inline]
fn crossing(cur: Point, next: Point, sa: f64, sb: f64) -> Point {
    cur + (next - cur) * (sa / (sa - sb)).clamp(0.0, 1.0)
}

/// Whether the edge halfplane `hp` of one polygon holds no vertex of the
/// outline `b`: a separating axis.
fn separated(hp: &HalfPlane, b: &[Point]) -> bool {
    !b.iter().any(|v| hp.contains(v))
}

/// Rows per bitmask of [`EdgeTable::overlapping`].
const CHUNK: usize = 64;

/// The tolerant bounding boxes and edge halfplanes of a batch of convex
/// polygons, built once so that testing each against many others pays for
/// neither again — everything [`ConvexPolygon::intersects`] computes about
/// one polygon without looking at the other.
///
/// Rows are numbered in the order their polygons were pushed. The widened
/// boxes sit in four coordinate arrays, an empty row's (an empty polygon or
/// an empty box) as NaN, which no comparison passes; the edges of every row
/// sit in one flat array, row `k`'s at `ends[k]..ends[k + 1]`. A test runs
/// box-first: [`EdgeTable::overlapping`] scans a run of rows against a
/// query box, and [`EdgeTable::meets`] decides each row it returns. Meant
/// to live in a per-worker scratch: [`EdgeTable::clear`] keeps every
/// allocation.
#[derive(Debug)]
pub struct EdgeTable {
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    edges: Vec<HalfPlane>,
    /// One more entry than there are rows; starts at `[0]`.
    ends: Vec<usize>,
}

impl Default for EdgeTable {
    fn default() -> Self {
        EdgeTable {
            lo_x: Vec::new(),
            lo_y: Vec::new(),
            hi_x: Vec::new(),
            hi_y: Vec::new(),
            edges: Vec::new(),
            ends: vec![0],
        }
    }
}

impl EdgeTable {
    /// Removes every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.lo_x.clear();
        self.lo_y.clear();
        self.hi_x.clear();
        self.hi_y.clear();
        self.edges.clear();
        self.ends.truncate(1);
    }

    /// Appends `polygon` as the next row: its widened bounding box and,
    /// when it has at least three vertices, the halfplane of each edge.
    pub fn push(&mut self, polygon: &ConvexPolygon) {
        if polygon.len() >= 3 {
            self.edges.extend(polygon.edges());
        }
        self.push_bounds(polygon);
    }

    /// Appends `polygon` as the next row with its widened bounding box
    /// only: a row for [`EdgeTable::overlapping`] alone, which
    /// [`EdgeTable::meets`] must not be asked about.
    pub fn push_bounds(&mut self, polygon: &ConvexPolygon) {
        let b = tolerance::widened(&polygon.bbox());
        let (lo, hi) = if polygon.is_empty() || b.is_empty() {
            (
                Point::new(f64::NAN, f64::NAN),
                Point::new(f64::NAN, f64::NAN),
            )
        } else {
            (b.lo, b.hi)
        };
        self.lo_x.push(lo.x);
        self.lo_y.push(lo.y);
        self.hi_x.push(hi.x);
        self.hi_y.push(hi.y);
        self.ends.push(self.edges.len());
    }

    /// Writes into `hits`, ascending, the rows of `rows` whose polygon is
    /// non-empty and whose widened box [`Rect::intersects`] `query`:
    /// exactly that, for empty, NaN and ±∞ boxes too. `hits` is cleared
    /// first and reused by the caller.
    ///
    /// Branch-free per row: each chunk of 64 rows is compared with `<=`
    /// only, into a bitmask whose set bits are walked with
    /// `trailing_zeros`. A NaN row fails every comparison, and an empty
    /// query is answered before the scan.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the table.
    pub fn overlapping(&self, query: &Rect, rows: Range<usize>, hits: &mut Vec<u32>) {
        hits.clear();
        if query.is_empty() {
            return;
        }
        let Rect { lo, hi } = *query;
        let chunks = (self.lo_x[rows.clone()].chunks(CHUNK))
            .zip(self.lo_y[rows.clone()].chunks(CHUNK))
            .zip(self.hi_x[rows.clone()].chunks(CHUNK))
            .zip(self.hi_y[rows.clone()].chunks(CHUNK));
        let mut base = u32::try_from(rows.start).expect("rows fit in u32");
        for (((lo_x, lo_y), hi_x), hi_y) in chunks {
            let mut mask = 0u64;
            let boxes = lo_x.iter().zip(lo_y).zip(hi_x).zip(hi_y);
            for (k, (((&lx, &ly), &hx), &hy)) in boxes.enumerate() {
                let meets = (lx <= hi.x) & (lo.x <= hx) & (ly <= hi.y) & (lo.y <= hy);
                mask |= u64::from(meets) << k;
            }
            while mask != 0 {
                hits.push(base + mask.trailing_zeros());
                mask &= mask - 1;
            }
            base += lo_x.len() as u32;
        }
    }

    /// Whether `a` (pushed as row `i`) and `b` (row `j`) intersect, given
    /// that their boxes meet — `i` was among the rows
    /// [`EdgeTable::overlapping`] returned for `j`'s box, or the other way
    /// round: then exactly `a.intersects(b)`, the edges read from the table
    /// instead of recomputed.
    pub fn meets(&self, i: usize, a: &ConvexPolygon, j: usize, b: &ConvexPolygon) -> bool {
        if a.vertices.len() < 3 {
            return b.touches_low_dim(a);
        }
        if b.vertices.len() < 3 {
            return a.touches_low_dim(b);
        }
        !self.separates(i, b.vertices()) && !self.separates(j, a.vertices())
    }

    /// Whether an edge of row `k` separates the outline `other`.
    fn separates(&self, k: usize, other: &[Point]) -> bool {
        let edges = &self.edges[self.ends[k]..self.ends[k + 1]];
        edges.iter().any(|hp| separated(hp, other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0))
    }

    /// Sutherland–Hodgman written out plainly — the reference the in-place
    /// kernel is held to: each vertex kept or dropped by
    /// [`HalfPlane::contains`], each crossing taken between the two signed
    /// slacks of its edge, coinciding neighbours merged at the end.
    fn sutherland_hodgman(poly: &ConvexPolygon, hp: &HalfPlane) -> ConvexPolygon {
        let v = poly.vertices();
        let mut out = Vec::new();
        for (i, cur) in v.iter().enumerate() {
            let next = &v[(i + 1) % v.len()];
            if hp.contains(cur) {
                out.push(*cur);
            }
            if hp.contains(cur) != hp.contains(next) {
                let (sa, sb) = (hp.signed_slack(cur), hp.signed_slack(next));
                out.push(*cur + (*next - *cur) * (sa / (sa - sb)).clamp(0.0, 1.0));
            }
        }
        ConvexPolygon::new(out)
    }

    /// `a ∩ b` by the reference clip: `a` clipped by each edge of `b`; a
    /// point or segment `b` has no area to clip to.
    fn reference_intersection(a: &ConvexPolygon, b: &ConvexPolygon) -> ConvexPolygon {
        if b.len() < 3 {
            return ConvexPolygon::empty();
        }
        b.edges()
            .fold(a.clone(), |cell, hp| sutherland_hodgman(&cell, &hp))
    }

    #[test]
    fn from_rect_has_four_ccw_vertices() {
        let sq = unit_square();
        assert_eq!(sq.len(), 4);
        assert!(sq.area() > 0.0);
        // CCW orientation: positive signed area.
        let v = sq.vertices();
        let mut signed = 0.0;
        for i in 0..4 {
            signed += v[i].cross(&v[(i + 1) % 4]);
        }
        assert!(signed > 0.0);
    }

    #[test]
    fn clip_halves_the_square() {
        let sq = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        // Keep locations closer to (0,5) than (10,5): the left half.
        let clipped = sq.clip_bisector(&Point::new(0.0, 5.0), &Point::new(10.0, 5.0));
        assert!((clipped.area() - 50.0).abs() < 1e-6);
        assert!(clipped.contains_point(&Point::new(1.0, 1.0)));
        assert!(!clipped.contains_point(&Point::new(9.0, 1.0)));
    }

    #[test]
    fn clip_with_non_cutting_halfplane_is_identity() {
        let sq = unit_square();
        let hp = HalfPlane::bisector(&Point::new(0.5, 0.5), &Point::new(100.0, 100.0));
        let clipped = sq.clip(&hp);
        assert!((clipped.area() - sq.area()).abs() < 1e-9);
    }

    #[test]
    fn clip_that_excludes_everything_gives_empty() {
        let sq = unit_square();
        let hp = HalfPlane::bisector(&Point::new(100.0, 100.0), &Point::new(0.5, 0.5));
        let clipped = sq.clip(&hp);
        assert!(clipped.area() < 1e-9);
    }

    #[test]
    fn repeated_clipping_builds_a_voronoi_cell() {
        // Voronoi cell of the center of a 3x3 grid within [0,4]^2 must be the
        // unit square [1.5, 2.5]^2 scaled: neighbours at distance 2 in the
        // four axis directions and diagonals.
        let domain = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let me = Point::new(2.0, 2.0);
        let mut cell = ConvexPolygon::from_rect(&domain);
        for other in [
            Point::new(0.0, 2.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
            Point::new(4.0, 0.0),
        ] {
            cell = cell.clip_bisector(&me, &other);
        }
        // Axis neighbours bound the cell to [1,3]^2 (area 4); the diagonal
        // bisectors pass exactly through its corners, so they do not reduce
        // the area (square-lattice Voronoi cells are squares).
        assert!((cell.area() - 4.0).abs() < 1e-6, "area = {}", cell.area());
        assert!(cell.contains_point(&me));
        assert!(!cell.contains_point(&Point::new(0.5, 0.5)));
    }

    #[test]
    fn contains_point_boundary_inclusive() {
        let sq = unit_square();
        assert!(sq.contains_point(&Point::new(0.5, 0.5)));
        assert!(sq.contains_point(&Point::new(0.0, 0.0)));
        assert!(sq.contains_point(&Point::new(1.0, 0.5)));
        assert!(!sq.contains_point(&Point::new(1.1, 0.5)));
    }

    /// The box `[1, 9] × [1, 7]`: its right edge's threshold is `9τ` in
    /// distance, so a point `1e-9` inside holds strictly while one `3e-11`
    /// either side of the edge — inside the tolerance band, contained — does
    /// not. At every scale, as `HalfPlane::contains` is tolerant at every
    /// scale.
    #[test]
    fn strict_containment_excludes_the_tolerance_band_at_every_scale() {
        for k in [-40, 0, 40] {
            let s = 2f64.powi(k);
            let at = |x: f64, y: f64| Point::new(x * s, y * s);
            let square = ConvexPolygon::from_rect(&Rect::new(at(1.0, 1.0), at(9.0, 7.0)));
            for inside in [
                at(5.0, 4.0),
                at(9.0 - 1e-9, 4.0),
                at(9.0 - 1e-9, 7.0 - 1e-9),
            ] {
                assert!(square.strictly_contains_point(&inside), "k = {k}: {inside}");
            }
            let band = [at(9.0 - 3e-11, 4.0), at(9.0 + 3e-11, 4.0)];
            for held in [at(9.0, 4.0), at(9.0, 7.0), at(1.0, 1.0), band[0], band[1]] {
                assert!(square.contains_point(&held), "k = {k}: {held}");
                assert!(!square.strictly_contains_point(&held), "k = {k}: {held}");
            }
            let (a, b) = (at(2.0, 3.0), at(6.0, 3.0));
            let point = ConvexPolygon::new(vec![a]);
            let segment = ConvexPolygon::new(vec![a, b]);
            assert!(point.contains_point(&a) && !point.strictly_contains_point(&a));
            let mid = a.midpoint(&b);
            assert!(segment.contains_point(&mid) && !segment.strictly_contains_point(&mid));
        }
    }

    #[test]
    fn intersects_overlapping_and_disjoint() {
        let a = unit_square();
        let b = ConvexPolygon::from_rect(&Rect::from_coords(0.5, 0.5, 2.0, 2.0));
        let c = ConvexPolygon::from_rect(&Rect::from_coords(3.0, 3.0, 4.0, 4.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
    }

    #[test]
    fn intersects_touching_edges() {
        let a = unit_square();
        let b = ConvexPolygon::from_rect(&Rect::from_coords(1.0, 0.0, 2.0, 1.0));
        assert!(a.intersects(&b), "polygons sharing an edge must intersect");
        let c = ConvexPolygon::from_rect(&Rect::from_coords(1.0, 1.0, 2.0, 2.0));
        assert!(a.intersects(&c), "polygons sharing a corner must intersect");
    }

    #[test]
    fn intersects_one_inside_the_other() {
        let big = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let small = ConvexPolygon::from_rect(&Rect::from_coords(4.0, 4.0, 5.0, 5.0));
        assert!(big.intersects(&small));
        assert!(small.intersects(&big));
    }

    #[test]
    fn intersects_triangles_without_contained_vertices() {
        // A "plus"-like configuration: neither polygon contains a vertex of
        // the other, but they clearly overlap.
        let horizontal = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 4.0, 10.0, 6.0));
        let vertical = ConvexPolygon::from_rect(&Rect::from_coords(4.0, 0.0, 6.0, 10.0));
        assert!(horizontal.intersects(&vertical));
    }

    #[test]
    fn empty_polygon_intersects_nothing() {
        let e = ConvexPolygon::empty();
        assert!(!e.intersects(&unit_square()));
        assert!(!unit_square().intersects(&e));
        assert!(!e.contains_point(&Point::new(0.0, 0.0)));
        assert!(e.centroid().is_none());
    }

    #[test]
    fn bbox_and_area_of_clipped_cell() {
        let sq = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        let half = sq.clip_bisector(&Point::new(0.0, 1.0), &Point::new(2.0, 1.0));
        let bb = half.bbox();
        assert!((bb.hi.x - 1.0).abs() < 1e-9);
        assert!((half.area() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn centroid_of_square_is_center() {
        let sq = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 4.0, 2.0));
        let c = sq.centroid().unwrap();
        assert!((c.x - 2.0).abs() < 1e-9);
        assert!((c.y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intersects_rect_agrees_with_polygon_test() {
        let cell = unit_square();
        assert!(cell.intersects_rect(&Rect::from_coords(0.5, 0.5, 3.0, 3.0)));
        assert!(!cell.intersects_rect(&Rect::from_coords(2.0, 2.0, 3.0, 3.0)));
        assert!(cell.intersects_rect(&Rect::from_coords(1.0, 1.0, 3.0, 3.0)));
    }

    #[test]
    fn degenerate_segment_polygon_intersection() {
        // A polygon squeezed to a segment by clipping still "intersects"
        // polygons it touches.
        let seg_poly = ConvexPolygon::new(vec![Point::new(0.0, 0.5), Point::new(2.0, 0.5)]);
        let sq = unit_square();
        assert!(sq.intersects(&seg_poly));
        assert!(seg_poly.intersects(&sq));
        let far = ConvexPolygon::new(vec![Point::new(5.0, 5.0), Point::new(6.0, 5.0)]);
        assert!(!sq.intersects(&far));
    }

    #[test]
    fn intersection_of_overlapping_squares() {
        let a = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 4.0, 4.0));
        let b = ConvexPolygon::from_rect(&Rect::from_coords(2.0, 1.0, 6.0, 3.0));
        let inter = a.intersection(&b);
        assert!((inter.area() - 4.0).abs() < 1e-9);
        assert!(inter.contains_point(&Point::new(3.0, 2.0)));
        // Intersection is commutative in area.
        assert!((b.intersection(&a).area() - inter.area()).abs() < 1e-9);
    }

    #[test]
    fn intersection_of_disjoint_polygons_is_empty() {
        let a = unit_square();
        let b = ConvexPolygon::from_rect(&Rect::from_coords(5.0, 5.0, 6.0, 6.0));
        assert!(a.intersection(&b).is_empty());
        assert!(a.intersection(&ConvexPolygon::empty()).is_empty());
    }

    #[test]
    fn intersection_of_nested_polygons_is_the_inner_one() {
        let big = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let small = ConvexPolygon::from_rect(&Rect::from_coords(3.0, 3.0, 4.0, 5.0));
        let inter = big.intersection(&small);
        assert!((inter.area() - small.area()).abs() < 1e-9);
    }

    #[test]
    fn intersection_area_consistent_with_intersects_predicate() {
        let a = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 3.0, 3.0));
        for (rect, expect_overlap) in [
            (Rect::from_coords(1.0, 1.0, 2.0, 2.0), true),
            (Rect::from_coords(4.0, 4.0, 5.0, 5.0), false),
            (Rect::from_coords(2.5, 2.5, 6.0, 6.0), true),
        ] {
            let b = ConvexPolygon::from_rect(&rect);
            let inter = a.intersection(&b);
            assert_eq!(a.intersects(&b), expect_overlap);
            assert_eq!(inter.area() > 1e-9, expect_overlap);
        }
    }

    #[test]
    fn clip_in_place_is_bitwise_identical_to_the_reference_clip() {
        // Drive the kernel and the reference through one clip sequence
        // and require *exact* vertex equality at every step — including
        // empty results, untouched outlines and degenerate halfplanes —
        // and a `true` exactly when the reference dropped a vertex.
        let domain = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
        let me = Point::new(4_321.0, 5_678.0);
        let others = [
            Point::new(9_000.0, 5_000.0),   // cuts
            Point::new(4_321.0, 5_678.0),   // degenerate (self)
            Point::new(0.0, 0.0),           // cuts
            Point::new(8_500.0, 9_500.0),   // cuts
            Point::new(9_999.0, 9_999.0),   // untouched fast path
            Point::new(4_400.0, 5_700.0),   // nearby: aggressive cut
            Point::new(4_322.0, 5_679.0),   // even closer
            Point::new(-5_000.0, -5_000.0), // untouched
        ];
        let mut scratch = ClipScratch::new();
        let mut in_place = ConvexPolygon::from_rect(&domain);
        // Then the same halfplane three times over: only the first can cut.
        let far = Point::new(4_321.0, 5_678.5);
        let cuts = others.iter().map(|o| (me, *o)).chain([(far, me); 3]);
        for (site, other) in cuts {
            let hp = HalfPlane::bisector(&site, &other);
            let reference = sutherland_hodgman(&in_place, &hp);
            let dropped = in_place.vertices().iter().any(|v| !hp.contains(v));
            assert_eq!(
                in_place.clip_in_place(&hp, &mut scratch),
                dropped,
                "vs {other}"
            );
            assert_eq!(in_place, reference, "diverged after clipping vs {other}");
        }
    }

    #[test]
    fn degenerate_rectangles_are_normalized_before_any_clip() {
        // An untouched clip leaves the outline as it is, so `from_rect`
        // merges a degenerate rectangle's coinciding corners itself.
        let degenerate = ConvexPolygon::from_rect(&Rect::from_point(Point::new(5.0, 5.0)));
        assert_eq!(degenerate.len(), 1);
        let segment = Rect::from_coords(1.0, 2.0, 7.0, 2.0);
        assert_eq!(ConvexPolygon::from_rect(&segment).len(), 2);
        let hp = HalfPlane::bisector(&Point::new(5.0, 5.0), &Point::new(9.0, 9.0));
        let clipped = degenerate.clip(&hp);
        assert_eq!(clipped.len(), 1);
        assert_eq!(clipped, sutherland_hodgman(&degenerate, &hp));
    }

    #[test]
    fn new_removes_duplicate_vertices() {
        let p = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert_eq!(p.len(), 3);
        // A refill builds what `new` builds, whatever the buffer held.
        let mut refilled = ConvexPolygon::from_rect(&Rect::DOMAIN);
        refilled.refill(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ]);
        assert_eq!(refilled, p);
    }

    /// Coordinate scales the equivalence properties run at (every threshold
    /// scales with them, so each one exercises the same relative band).
    const SCALES: [f64; 4] = [1e-6, 1.0, 1e3, 1e9];

    /// An ellipse's center, radii and the turns (fractions of a full turn)
    /// of up to eight points on it: a convex outline of 0–8 vertices.
    type OutlineSpec = ((f64, f64), (f64, f64), Vec<f64>);

    fn outline_spec() -> impl Strategy<Value = OutlineSpec> {
        (
            (-4.0f64..4.0, -4.0f64..4.0),
            (0.5f64..3.0, 0.5f64..3.0),
            proptest::collection::vec(0.0f64..1.0, 0..9),
        )
    }

    /// The counter-clockwise outline `spec` describes, every coordinate
    /// multiplied by `scale`.
    fn outline(spec: &OutlineSpec, scale: f64) -> ConvexPolygon {
        let ((cx, cy), (rx, ry), turns) = spec;
        let mut turns = turns.clone();
        turns.sort_by(f64::total_cmp);
        let at = |t: f64| {
            let a = t * std::f64::consts::TAU;
            Point::new((cx + rx * a.cos()) * scale, (cy + ry * a.sin()) * scale)
        };
        ConvexPolygon::new(turns.into_iter().map(at).collect())
    }

    /// `p` rotated half a turn about `center`.
    fn mirrored(p: &ConvexPolygon, center: Point) -> ConvexPolygon {
        ConvexPolygon::new(
            p.vertices()
                .iter()
                .map(|&v| center + (center - v))
                .collect(),
        )
    }

    /// A site, a direction in radians, a halfplane kind and a vertex pick.
    fn cut_spec() -> impl Strategy<Value = (f64, f64, f64, usize, usize)> {
        (
            -2.0f64..2.0,
            -2.0f64..2.0,
            -1.0f64..1.0,
            0usize..3,
            0usize..8,
        )
    }

    /// A pair of polygons of one of eight kinds: unrelated; the two sides of
    /// one cut (a shared edge); touching at a vertex; facing across an edge
    /// with a gap of `f` times the tolerance; identical; a polygon against
    /// a point, a segment or nothing; facing vertex to vertex, `0.1` to
    /// `1000` distance thresholds apart (as `f` runs over `0..2`); two
    /// slivers facing tip to tip along their common axis, `0.1` to `1000`
    /// thresholds apart, their half-angle `45°·10^(−2f)`.
    fn pair(
        kind: usize,
        a: ConvexPolygon,
        b: ConvexPolygon,
        pick: usize,
        f: f64,
    ) -> [ConvexPolygon; 2] {
        let n = a.len();
        match kind {
            1 if n >= 3 => {
                let centroid = a.centroid().unwrap();
                let turn = f * std::f64::consts::PI;
                let along = centroid + Point::new(-turn.sin(), turn.cos());
                let (cut, other) = (
                    HalfPlane::edge(&centroid, &along),
                    HalfPlane::edge(&along, &centroid),
                );
                [a.clip(&cut), a.clip(&other)]
            }
            2 if n >= 1 => {
                let corner = a.vertices()[pick % n];
                let b = mirrored(&a, corner);
                [a, b]
            }
            3 if n >= 3 => {
                let (p0, p1) = (a.vertices()[pick % n], a.vertices()[(pick + 1) % n]);
                let edge = p1 - p0;
                let len = edge.norm_sq().sqrt();
                let outward = Point::new(edge.y / len, -edge.x / len);
                let m = tolerance::magnitude(&p0).max(tolerance::magnitude(&p1));
                let gap = f * tolerance::distance(m) * (edge.x.abs() + edge.y.abs()) / len;
                let b = mirrored(&a, p0.midpoint(&p1));
                let shifted = b.vertices().iter().map(|&v| v + outward * gap);
                [a, ConvexPolygon::new(shifted.collect())]
            }
            4 => [a.clone(), a],
            5 => {
                let low = b.vertices()[..(pick % 3).min(b.len())].to_vec();
                [a, ConvexPolygon::new(low)]
            }
            6 if n >= 3 => {
                // `a` mirrored in a corner, then moved away from `a` along
                // a direction within a quarter turn of the corner's own.
                let corner = a.vertices()[pick % n];
                let away = corner - a.centroid().unwrap();
                let turn = ((pick as f64 + f) / 18.0 - 0.5) * std::f64::consts::PI;
                let dir = Point::new(
                    away.x * turn.cos() - away.y * turn.sin(),
                    away.x * turn.sin() + away.y * turn.cos(),
                ) * (1.0 / away.norm_sq().sqrt());
                let gap =
                    tolerance::distance(tolerance::magnitude(&corner)) * 10f64.powf(2.0 * f - 1.0);
                let b = mirrored(&a, corner);
                let shifted = b.vertices().iter().map(|&v| v + dir * gap);
                [a, ConvexPolygon::new(shifted.collect())]
            }
            7 if n >= 3 => {
                // A sliver with its tip at a corner of `a`, pointing away
                // from `a`'s centroid, and its mirror image in the tip
                // moved along the axis: the edge normals barely see the gap.
                let tip = a.vertices()[pick % n];
                let axis = tip - a.centroid().unwrap();
                let (len, u) = (axis.norm_sq().sqrt(), axis * (1.0 / axis.norm_sq().sqrt()));
                let half_angle = std::f64::consts::FRAC_PI_4 * 10f64.powf(-2.0 * f);
                let side = Point::new(-u.y, u.x) * (len * half_angle.tan());
                let back = tip - axis;
                let sliver = ConvexPolygon::new(vec![tip, back + side, back - side]);
                let gap = tolerance::distance(tolerance::magnitude(&tip))
                    * 10f64.powi(pick as i32 % 5 - 1);
                let facing = mirrored(&sliver, tip);
                let shifted = facing.vertices().iter().map(|&v| v + u * gap);
                [sliver, ConvexPolygon::new(shifted.collect())]
            }
            _ => [a, b],
        }
    }

    /// The Euclidean distance between two convex polygons of at least three
    /// vertices: zero when no edge of either separates them (by exact
    /// signs, no tolerance), else the least distance from a vertex of one
    /// to an edge of the other.
    fn euclidean_gap(a: &ConvexPolygon, b: &ConvexPolygon) -> f64 {
        let sides = |p: &ConvexPolygon| {
            let v = p.vertices().to_vec();
            (0..v.len()).map(move |i| Segment::new(v[i], v[(i + 1) % v.len()]))
        };
        let separates = |p: &ConvexPolygon, q: &ConvexPolygon| {
            sides(p).any(|s| {
                q.vertices()
                    .iter()
                    .all(|v| (s.b - s.a).cross(&(*v - s.a)) < 0.0)
            })
        };
        if !separates(a, b) && !separates(b, a) {
            return 0.0;
        }
        let one_way = |p: &ConvexPolygon, q: &ConvexPolygon| {
            sides(p)
                .flat_map(|s| q.vertices().iter().map(move |v| s.mindist_point(v)))
                .fold(f64::INFINITY, f64::min)
        };
        one_way(a, b).min(one_way(b, a))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The table path — the box kernel on one row, then `meets` — and
        /// `intersects` agree as a `bool`, both ways round, on rows that do
        /// not start at zero.
        #[test]
        fn edge_tables_answer_exactly_what_intersects_answers(
            specs in (outline_spec(), outline_spec(), outline_spec()),
            kind in 0usize..8,
            pick in 0usize..16,
            f in 0.0f64..2.0,
            scale in 0usize..4,
        ) {
            let [a, b, first] = [&specs.0, &specs.1, &specs.2].map(|s| outline(s, SCALES[scale]));
            let [a, b] = pair(kind, a, b, pick, f);
            let mut table = EdgeTable::default();
            table.push(&first);
            table.clear();
            for polygon in [&first, &a, &b] {
                table.push(polygon);
            }
            let mut hits = Vec::new();
            let mut hit = |i: usize, a: &ConvexPolygon, j: usize, b: &ConvexPolygon| {
                table.overlapping(&tolerance::widened(&b.bbox()), i..i + 1, &mut hits);
                hits == [i as u32] && table.meets(i, a, j, b)
            };
            let (ab, ba) = (hit(1, &a, 2, &b), hit(2, &b, 1, &a));
            prop_assert_eq!(ab, a.intersects(&b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(ba, b.intersects(&a), "{:?} vs {:?}", b, a);
        }

        /// The contract's "elsewhere" clause (crate docs): two polygons
        /// that `intersects` reports are never more than `2√2·τ·M` apart,
        /// `M` the largest coordinate magnitude of the two.
        #[test]
        fn a_reported_pair_is_within_the_contract_distance(
            specs in (outline_spec(), outline_spec()),
            kind in 0usize..8,
            pick in 0usize..16,
            f in 0.0f64..2.0,
            scale in 0usize..4,
        ) {
            let [a, b] = [&specs.0, &specs.1].map(|s| outline(s, SCALES[scale]));
            let [a, b] = pair(kind, a, b, pick, f);
            prop_assume!(a.len() >= 3 && b.len() >= 3 && a.intersects(&b));
            let m = tolerance::rect_magnitude(&a.bbox().union(&b.bbox()));
            let bound = 2.0 * std::f64::consts::SQRT_2 * tolerance::distance(m);
            let gap = euclidean_gap(&a, &b);
            // The slack of the float arithmetic: a relative 1e-3 of the bound.
            prop_assert!(gap <= bound * 1.001, "{:?} and {:?} are {} apart", a, b, gap);
        }

        /// `intersection_into` equals the reference intersection, vertex
        /// for vertex and bit for bit, whatever `out` held before and
        /// however warm the scratch is: one `out` and one scratch serve a
        /// sequence of pairs (both orders, and each operand against itself).
        #[test]
        fn intersection_into_equals_the_reference_intersection(
            pairs in proptest::collection::vec(
                (outline_spec(), outline_spec(), 0usize..8, 0usize..16, 0.0f64..2.0, 0usize..4),
                1..5,
            ),
        ) {
            let mut scratch = ClipScratch::new();
            let mut out = unit_square();
            for (sa, sb, kind, pick, f, scale) in &pairs {
                let [a, b] = [sa, sb].map(|s| outline(s, SCALES[*scale]));
                let [a, b] = pair(*kind, a, b, *pick, *f);
                for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                    x.intersection_into(y, &mut scratch, &mut out);
                    prop_assert_eq!(&out, &reference_intersection(x, y), "{:?} ∩ {:?}", x, y);
                }
            }
        }

        /// Along a chain of clips — cuts, degenerate halfplanes, lines
        /// through a vertex — `clip_in_place` on one warm scratch stays
        /// bitwise equal to the reference clip and says whether it cut, and
        /// every slack it computed is `HalfPlane::signed_slack`'s, bit for
        /// bit.
        #[test]
        fn clip_in_place_is_bitwise_identical_to_the_reference_on_random_outlines(
            spec in outline_spec(),
            scale in 0usize..4,
            cuts in proptest::collection::vec(cut_spec(), 1..8),
        ) {
            let scale = SCALES[scale];
            let mut in_place = outline(&spec, scale);
            let mut scratch = ClipScratch::new();
            for (x, y, turn, kind, pick) in cuts {
                let site = Point::new(x * scale, y * scale);
                let vertices = in_place.vertices();
                let hp = match kind {
                    // A bisector between the outline's centroid and a point
                    // `site` away from it.
                    0 => {
                        let centroid = in_place.centroid().unwrap_or(Point::new(0.0, 0.0));
                        HalfPlane::bisector(&centroid, &(centroid + site))
                    }
                    // A degenerate halfplane: it clips nothing.
                    1 => HalfPlane::bisector(&site, &site),
                    // A line through a vertex: that vertex's slack is ~0.
                    _ => {
                        let on = vertices.get(pick % vertices.len().max(1)).copied();
                        let on = on.unwrap_or(site);
                        let along = Point::new(-turn.sin(), turn.cos()) * scale;
                        HalfPlane::edge(&on, &(on + along))
                    }
                };
                let before = in_place.clone();
                let dropped = before.vertices().iter().any(|v| !hp.contains(v));
                let cut = in_place.clip_in_place(&hp, &mut scratch);
                prop_assert_eq!(cut, dropped);
                let reference = sutherland_hodgman(&before, &hp);
                prop_assert_eq!(&in_place, &reference, "{:?} clipped by {:?}", before, hp);
                if cut {
                    for (v, slack) in before.vertices().iter().zip(&scratch.slacks) {
                        prop_assert_eq!(slack.to_bits(), hp.signed_slack(v).to_bits());
                    }
                }
            }
        }
    }

    /// A row of the box kernel's tables: its kind, an outline and a pick.
    type RowSpec = (usize, OutlineSpec, usize);

    /// The row counts the kernel is tried at: none, one, and either side of
    /// its 64-row chunk.
    const ROW_COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 200];

    /// Every row spec a table can take, and which of [`ROW_COUNTS`] to
    /// keep.
    fn rows_spec() -> impl Strategy<Value = (usize, Vec<RowSpec>)> {
        let row = (0usize..8, outline_spec(), 0usize..16);
        (
            0..ROW_COUNTS.len(),
            proptest::collection::vec(row, 200..201),
        )
    }

    /// `x` moved `k` ulps away from zero.
    fn ulps(x: f64, k: u64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add(k))
    }

    /// The polygon of row spec `(kind, spec, pick)` after the rows `before`:
    /// 0–1 a random outline, 2 the empty polygon, 3 a point, 4 a segment,
    /// 5 the previous row's outline nudged `pick % 3 + 1` ulps, 6 an outline
    /// with a NaN coordinate, 7 one with a `±∞` coordinate.
    fn kernel_row((kind, spec, pick): &RowSpec, before: &[ConvexPolygon]) -> ConvexPolygon {
        let p = outline(spec, SCALES[pick % SCALES.len()]);
        let v = p.vertices().to_vec();
        let with = |i: usize, at: Point| {
            let mut v = v.clone();
            let n = v.len().max(1);
            if let Some(vi) = v.get_mut(i % n) {
                *vi = at;
            }
            ConvexPolygon::new(v)
        };
        match kind {
            2 => ConvexPolygon::empty(),
            3 => ConvexPolygon::new(v.into_iter().take(1).collect()),
            4 => ConvexPolygon::new(v.into_iter().take(2).collect()),
            5 => {
                let prev = before.last().map_or(&[][..], |b| b.vertices());
                let k = *pick as u64 % 3 + 1;
                let nudged = prev.iter().map(|q| Point::new(ulps(q.x, k), ulps(q.y, k)));
                ConvexPolygon::new(nudged.collect())
            }
            6 => with(*pick, Point::new(f64::NAN, 1.0)),
            7 => {
                let inf = [f64::INFINITY, f64::NEG_INFINITY][pick % 2];
                with(*pick, Point::new(inf, inf * 0.5))
            }
            _ => p,
        }
    }

    /// The query boxes tried against a table of `rows`: the widened box of
    /// every fourth row, the boxes touching it exactly on each edge and at
    /// each corner, and the same one ulp away; then the empty box, a NaN
    /// box and the whole plane.
    fn kernel_queries(rows: &[ConvexPolygon]) -> Vec<Rect> {
        let mut queries = Vec::new();
        for b in rows
            .iter()
            .step_by(4)
            .map(|r| tolerance::widened(&r.bbox()))
        {
            queries.push(b);
            let (w, h) = (b.width().max(1.0), b.height().max(1.0));
            // Per axis, a side `d` of `b`: past its high end (1), its low
            // end (−1) or across it (0) — touching it exactly, or one ulp
            // further out.
            let touching = |d: i32, lo: f64, hi: f64, len: f64| match d {
                1 => (hi, hi + len),
                -1 => (lo - len, lo),
                _ => (lo, hi),
            };
            let apart = |d: i32, (lo, hi): (f64, f64)| match d {
                1 => (lo.next_up(), hi),
                -1 => (lo, hi.next_down()),
                _ => (lo, hi),
            };
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1)] {
                let x = touching(dx, b.lo.x, b.hi.x, w);
                let y = touching(dy, b.lo.y, b.hi.y, h);
                let (ax, ay) = (apart(dx, x), apart(dy, y));
                queries.extend([
                    Rect {
                        lo: Point::new(x.0, y.0),
                        hi: Point::new(x.1, y.1),
                    },
                    Rect {
                        lo: Point::new(ax.0, ay.0),
                        hi: Point::new(ax.1, ay.1),
                    },
                ]);
            }
        }
        let nan = Point::new(f64::NAN, f64::NAN);
        let all = Rect {
            lo: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            hi: Point::new(f64::INFINITY, f64::INFINITY),
        };
        queries.extend([Rect::empty(), Rect { lo: nan, hi: nan }, all]);
        queries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The box kernel returns, ascending, exactly the rows whose
        /// polygon is non-empty and whose widened box `Rect::intersects`
        /// the query — over the whole table and over a run of rows not
        /// starting at zero, on a table rebuilt after `clear` — and for
        /// every pair of rows, the kernel followed by `meets` answers what
        /// `ConvexPolygon::intersects` answers.
        #[test]
        fn the_box_kernel_returns_exactly_the_rows_whose_boxes_intersect(
            (count, specs) in rows_spec(),
            cut in (0usize..=200, 0usize..=200),
        ) {
            let mut rows: Vec<ConvexPolygon> = Vec::new();
            for spec in &specs[..ROW_COUNTS[count]] {
                let row = kernel_row(spec, &rows);
                rows.push(row);
            }
            let mut table = EdgeTable::default();
            table.push(&unit_square());
            table.clear();
            for row in &rows {
                table.push(row);
            }
            let n = rows.len();
            let (a, b) = (cut.0.min(n), cut.1.min(n));
            let runs = [0..n, a.min(b)..a.max(b)];
            let mut hits = vec![7u32];
            for query in kernel_queries(&rows) {
                for run in runs.clone() {
                    table.overlapping(&query, run.clone(), &mut hits);
                    let want: Vec<u32> = run
                        .filter(|&r| {
                            !rows[r].is_empty()
                                && tolerance::widened(&rows[r].bbox()).intersects(&query)
                        })
                        .map(|r| r as u32)
                        .collect();
                    prop_assert_eq!(&hits, &want, "query {:?}", query);
                }
            }
            for (j, b) in rows.iter().enumerate() {
                table.overlapping(&tolerance::widened(&b.bbox()), 0..n, &mut hits);
                for (i, a) in rows.iter().enumerate() {
                    let found =
                        hits.binary_search(&(i as u32)).is_ok() && table.meets(i, a, j, b);
                    let what = format!("row {i} {a:?} vs row {j} {b:?}");
                    prop_assert_eq!(found, a.intersects(b), "{}", what);
                }
            }
        }
    }
}
