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
//! Halfplane clipping comes in two forms that produce bit-for-bit identical
//! vertex sets:
//!
//! * [`ConvexPolygon::clip`] / [`ConvexPolygon::clip_bisector`] — the
//!   allocating form: returns a fresh polygon (with a fast path that skips
//!   the rebuild entirely when no vertex is clipped).
//! * [`ConvexPolygon::clip_in_place`] / [`ConvexPolygon::clip_into`] /
//!   [`ConvexPolygon::clip_bisector_in_place`] — the batch form used by the
//!   hot loops: one pass over the outline computes every vertex slack (the
//!   expression [`HalfPlane::signed_slack`] evaluates, so the same bits)
//!   and whether all of them are inside, and the surviving vertices are
//!   written through a caller-owned [`ClipScratch`], so a steady-state clip
//!   performs **zero** heap allocation.
//!
//! Polygon intersection follows the same split:
//! [`ConvexPolygon::intersection`] is the allocating reference,
//! [`ConvexPolygon::intersection_into`] the same edge-by-edge clipping
//! through `clip_in_place` into a caller-owned output polygon.
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
//! either polygon yields a constraint — the edge's outward normal and a
//! threshold just beyond the polygon's own extent along it — and the
//! polygons are disjoint when the other one lies wholly beyond some
//! threshold. A constraint depends on its own polygon alone, so a caller
//! that tests one polygon against many builds it once: an [`EdgeTable`]
//! holds the constraints and bounding boxes of a batch of polygons, and
//! [`EdgeTable::intersects`] answers exactly what `intersects` answers.
//! Both compute a constraint and apply it through the same two functions.

use crate::halfplane::HalfPlane;
use crate::point::Point;
use crate::rect::Rect;
use crate::EPS;

/// A convex polygon with vertices in counter-clockwise order.
///
/// The polygon may be *empty* (no vertices) — e.g. after clipping with a
/// halfplane that excludes it entirely — or degenerate (fewer than three
/// distinct vertices). Empty polygons intersect nothing and contain nothing.
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
/// ([`ConvexPolygon::clip_in_place`], [`ConvexPolygon::clip_into`]).
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

    /// The rectangle `r` as a convex polygon (counter-clockwise corners).
    pub fn from_rect(r: &Rect) -> Self {
        ConvexPolygon {
            vertices: r.corners().to_vec(),
        }
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
        // In-place compaction keeping the first of each run of near-equal
        // vertices — same comparisons as a copy-based pass, zero allocation.
        let mut w = 1;
        for r in 1..self.vertices.len() {
            let v = self.vertices[r];
            if self.vertices[w - 1].dist_sq(&v) > EPS * EPS {
                self.vertices[w] = v;
                w += 1;
            }
        }
        self.vertices.truncate(w);
        // The polygon is cyclic: the last vertex may duplicate the first.
        while self.vertices.len() > 1
            && self.vertices[0].dist_sq(self.vertices.last().unwrap()) <= EPS * EPS
        {
            self.vertices.pop();
        }
    }

    /// Clips the polygon with a halfplane (Sutherland–Hodgman against a
    /// single boundary line), returning the part of the polygon inside the
    /// halfplane.
    ///
    /// This is the "update `Vc(pi)` by `⊥pi(pi, pj)`" step of Algorithms 1
    /// and 2. Degenerate halfplanes leave the polygon unchanged.
    pub fn clip(&self, hp: &HalfPlane) -> ConvexPolygon {
        if hp.is_degenerate() || self.is_empty() {
            return self.clone();
        }
        let n = self.vertices.len();
        if n == 1 {
            return if hp.contains(&self.vertices[0]) {
                self.clone()
            } else {
                ConvexPolygon::empty()
            };
        }
        // Fast path: no vertex is clipped, so the rebuilt outline would be
        // exactly the current vertex list — clone it and only normalize
        // (one allocation instead of the rebuild-plus-dedup pair).
        if self.vertices.iter().all(|v| hp.contains(v)) {
            let mut poly = self.clone();
            poly.dedup();
            return poly;
        }
        let mut out: Vec<Point> = Vec::with_capacity(n + 2);
        for i in 0..n {
            let cur = self.vertices[i];
            let next = self.vertices[(i + 1) % n];
            let cur_in = hp.contains(&cur);
            let next_in = hp.contains(&next);
            if cur_in {
                out.push(cur);
            }
            if cur_in != next_in {
                if let Some(t) = hp.boundary_param(&cur, &next) {
                    let t = t.clamp(0.0, 1.0);
                    out.push(cur + (next - cur) * t);
                }
            }
        }
        let mut poly = ConvexPolygon { vertices: out };
        poly.dedup();
        poly
    }

    /// In-place variant of [`ConvexPolygon::clip`]: leaves the surviving
    /// outline in `self`, building it through the caller-owned scratch.
    ///
    /// One pass computes every vertex slack — `offset - (nx * x + ny * y)`,
    /// the multiply-add [`HalfPlane::signed_slack`] performs, so the same
    /// bits — and whether every vertex is inside; the containment
    /// threshold, the crossing parameter and the emitted crossing point are
    /// the exact expressions of the allocating path, so the resulting vertex
    /// set is bit-for-bit identical to `*self = self.clip(hp)`. In steady
    /// state (warm scratch) the call performs no heap allocation.
    pub fn clip_in_place(&mut self, hp: &HalfPlane, scratch: &mut ClipScratch) {
        if hp.is_degenerate() || self.is_empty() {
            return;
        }
        let n = self.vertices.len();
        if n == 1 {
            if !hp.contains(&self.vertices[0]) {
                self.vertices.clear();
            }
            return;
        }
        // The tolerance `HalfPlane::contains` applies, hoisted out of the
        // loop (the expression is deterministic, so the comparisons below
        // are the comparisons `contains` performs).
        let tol = -EPS * (1.0 + hp.normal.norm());
        let (nx, ny) = (hp.normal.x, hp.normal.y);
        scratch.slacks.clear();
        let mut all_inside = true;
        for v in &self.vertices {
            let slack = hp.offset - (nx * v.x + ny * v.y);
            all_inside &= slack >= tol;
            scratch.slacks.push(slack);
        }
        if all_inside {
            // Untouched fast path, mirroring `clip`: only normalize.
            self.dedup();
            return;
        }
        scratch.out.clear();
        for i in 0..n {
            let j = if i + 1 == n { 0 } else { i + 1 };
            let cur = self.vertices[i];
            let next = self.vertices[j];
            let (sa, sb) = (scratch.slacks[i], scratch.slacks[j]);
            let cur_in = sa >= tol;
            let next_in = sb >= tol;
            if cur_in {
                scratch.out.push(cur);
            }
            if cur_in != next_in {
                // `HalfPlane::boundary_param` on the precomputed slacks.
                let denom = sa - sb;
                if denom.abs() > f64::EPSILON {
                    let t = (sa / denom).clamp(0.0, 1.0);
                    scratch.out.push(cur + (next - cur) * t);
                }
            }
        }
        // Ping-pong: the old outline becomes the next call's build buffer.
        std::mem::swap(&mut self.vertices, &mut scratch.out);
        self.dedup();
    }

    /// Clips `self` by `hp` into `out` (reusing `out`'s vertex allocation),
    /// leaving `self` untouched. Equivalent to `*out = self.clip(hp)`
    /// without the allocation.
    pub fn clip_into(&self, hp: &HalfPlane, scratch: &mut ClipScratch, out: &mut ConvexPolygon) {
        out.clone_from(self);
        out.clip_in_place(hp, scratch);
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

    /// Whether the polygon contains the point (boundary inclusive).
    pub fn contains_point(&self, p: &Point) -> bool {
        let n = self.vertices.len();
        if n == 0 {
            return false;
        }
        if n == 1 {
            return self.vertices[0].dist_sq(p) <= EPS * EPS;
        }
        if n == 2 {
            let seg = crate::segment::Segment::new(self.vertices[0], self.vertices[1]);
            return seg.mindist_point(p) <= EPS;
        }
        // CCW polygon: the point must be on the left of (or on) every edge.
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let cross = (b - a).cross(&(*p - a));
            if cross < -EPS * (1.0 + a.dist(&b)) {
                return false;
            }
        }
        true
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
        if area2.abs() <= EPS {
            return Point::centroid(&self.vertices);
        }
        Some(Point::new(cx / (3.0 * area2), cy / (3.0 * area2)))
    }

    /// Whether two convex polygons intersect (sharing a boundary point
    /// counts), using the separating-axis test.
    ///
    /// This is the intersection predicate of the CIJ definition: `(p, q)` is
    /// a result pair iff `V(p, P)` and `V(q, Q)` intersect.
    pub fn intersects(&self, other: &ConvexPolygon) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        // Quick reject on bounding boxes.
        if !self.bbox().intersects(&other.bbox()) {
            return false;
        }
        // Handle point/segment degeneracies via containment & distance.
        if self.vertices.len() < 3 {
            return other.touches_low_dim(self);
        }
        if other.vertices.len() < 3 {
            return self.touches_low_dim(other);
        }
        let (va, vb) = (self.vertices(), other.vertices());
        let separates = |a: &[Point], b: &[Point]| {
            (0..a.len()).any(|i| {
                let (normal, limit) = edge_constraint(a, i);
                separated_by(normal, limit, b)
            })
        };
        !separates(va, vb) && !separates(vb, va)
    }

    /// Intersection test against a degenerate (point or segment) polygon.
    fn touches_low_dim(&self, low: &ConvexPolygon) -> bool {
        match low.vertices.len() {
            0 => false,
            1 => self.contains_or_near(&low.vertices[0]),
            _ => {
                // Sample the segment endpoints and check edge crossings.
                let a = low.vertices[0];
                let b = low.vertices[1];
                if self.contains_or_near(&a) || self.contains_or_near(&b) {
                    return true;
                }
                // The segment may stab the polygon without containing an
                // endpoint; check whether any polygon edge intersects it.
                let n = self.vertices.len();
                for i in 0..n {
                    let c = self.vertices[i];
                    let d = self.vertices[(i + 1) % n];
                    if segments_intersect(&a, &b, &c, &d) {
                        return true;
                    }
                }
                false
            }
        }
    }

    fn contains_or_near(&self, p: &Point) -> bool {
        if self.vertices.len() >= 3 {
            self.contains_point(p)
        } else if self.vertices.len() == 2 {
            crate::segment::Segment::new(self.vertices[0], self.vertices[1]).mindist_point(p) <= EPS
        } else if self.vertices.len() == 1 {
            self.vertices[0].dist_sq(p) <= EPS * EPS
        } else {
            false
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
        if self.is_empty() || other.is_empty() {
            return ConvexPolygon::empty();
        }
        if other.vertices.len() < 3 {
            // Degenerate clip region: the intersection has no area; report
            // empty (callers use this for area analysis only).
            return ConvexPolygon::empty();
        }
        let mut out = self.clone();
        let n = other.vertices.len();
        for i in 0..n {
            let hp = edge_halfplane(&other.vertices[i], &other.vertices[(i + 1) % n]);
            out = out.clip(&hp);
            if out.is_empty() {
                break;
            }
        }
        out
    }

    /// [`ConvexPolygon::intersection`] written into `out` (reusing its
    /// vertex allocation, whatever it held) through a caller-owned
    /// [`ClipScratch`], leaving `self` untouched. Same edge halfplanes in
    /// the same order through the bit-identical
    /// [`ConvexPolygon::clip_in_place`], so `out` ends up vertex-for-vertex
    /// equal to `self.intersection(other)`. The clipping itself runs in the
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
        let n = other.vertices.len();
        for i in 0..n {
            let hp = edge_halfplane(&other.vertices[i], &other.vertices[(i + 1) % n]);
            work.clip_in_place(&hp, scratch);
            if work.is_empty() {
                break;
            }
        }
        out.vertices.extend_from_slice(&work.vertices);
        scratch.work = work;
    }
}

/// The halfplane left of the directed edge `a → b` — the interior side of a
/// counter-clockwise polygon's edge:
/// `cross(d, x - a) >= 0  <=>  d.y * x.x - d.x * x.y <= d.y * a.x - d.x * a.y`.
fn edge_halfplane(a: &Point, b: &Point) -> HalfPlane {
    let d = *b - *a;
    HalfPlane::new(Point::new(d.y, -d.x), d.y * a.x - d.x * a.y)
}

/// The separating-axis constraint of edge `i` of the counter-clockwise
/// outline `a`: the edge's outward normal, and the threshold
/// `max_a + EPS · scale` beyond which a polygon projected onto that normal
/// lies wholly outside `a` — `max_a` being the largest projection of a
/// vertex of `a`, `scale` the normal's length (at least 1).
fn edge_constraint(a: &[Point], i: usize) -> (Point, f64) {
    let p0 = a[i];
    let p1 = a[if i + 1 == a.len() { 0 } else { i + 1 }];
    let edge = p1 - p0;
    // Outward normal for a CCW polygon points to the right of the edge.
    let normal = Point::new(edge.y, -edge.x);
    let scale = normal.norm().max(1.0);
    // For a CCW convex polygon every vertex projection is <= the edge's
    // own projection, so max_a equals the edge offset.
    let mut max_a = f64::NEG_INFINITY;
    for v in a {
        max_a = max_a.max(normal.dot(v));
    }
    (normal, max_a + EPS * scale)
}

/// Whether the outline `b` lies strictly beyond the constraint `limit`
/// along `normal` (see [`edge_constraint`]): its smallest projection
/// exceeds the threshold.
fn separated_by(normal: Point, limit: f64, b: &[Point]) -> bool {
    let mut min_b = f64::INFINITY;
    for v in b {
        min_b = min_b.min(normal.dot(v));
    }
    min_b > limit
}

/// The bounding boxes and separating-axis constraints of a batch of convex
/// polygons, built once so that testing each against many others pays for
/// neither again — everything [`ConvexPolygon::intersects`] computes about
/// one polygon without looking at the other.
///
/// Rows are numbered in the order their polygons were pushed; the
/// constraints of every row sit in one flat array, row `k`'s at
/// `ends[k]..ends[k + 1]`. Meant to live in a per-worker scratch:
/// [`EdgeTable::clear`] keeps every allocation.
#[derive(Debug)]
pub struct EdgeTable {
    boxes: Vec<Rect>,
    normals: Vec<Point>,
    limits: Vec<f64>,
    /// One more entry than there are rows; starts at `[0]`.
    ends: Vec<usize>,
}

impl Default for EdgeTable {
    fn default() -> Self {
        EdgeTable {
            boxes: Vec::new(),
            normals: Vec::new(),
            limits: Vec::new(),
            ends: vec![0],
        }
    }
}

impl EdgeTable {
    /// Removes every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.boxes.clear();
        self.normals.clear();
        self.limits.clear();
        self.ends.truncate(1);
    }

    /// Appends `polygon` as the next row: its bounding box and, when it has
    /// at least three vertices, one constraint per edge.
    pub fn push(&mut self, polygon: &ConvexPolygon) {
        let v = polygon.vertices();
        self.boxes.push(polygon.bbox());
        if v.len() >= 3 {
            for i in 0..v.len() {
                let (normal, limit) = edge_constraint(v, i);
                self.normals.push(normal);
                self.limits.push(limit);
            }
        }
        self.ends.push(self.normals.len());
    }

    /// Whether `a` (pushed as row `i`) and `b` (row `j`) intersect: exactly
    /// `a.intersects(b)`, the boxes and edge constraints read from the
    /// table instead of recomputed.
    pub fn intersects(&self, i: usize, a: &ConvexPolygon, j: usize, b: &ConvexPolygon) -> bool {
        if a.is_empty() || b.is_empty() || !self.boxes[i].intersects(&self.boxes[j]) {
            return false;
        }
        if a.vertices.len() < 3 {
            return b.touches_low_dim(a);
        }
        if b.vertices.len() < 3 {
            return a.touches_low_dim(b);
        }
        !self.separates(i, b.vertices()) && !self.separates(j, a.vertices())
    }

    /// Whether a constraint of row `k` separates the outline `other`.
    fn separates(&self, k: usize, other: &[Point]) -> bool {
        let edges = self.ends[k]..self.ends[k + 1];
        let (normals, limits) = (&self.normals[edges.clone()], &self.limits[edges]);
        (normals.iter().zip(limits)).any(|(&normal, &limit)| separated_by(normal, limit, other))
    }
}

/// Proper or touching intersection test for two segments.
fn segments_intersect(a: &Point, b: &Point, c: &Point, d: &Point) -> bool {
    fn orient(p: &Point, q: &Point, r: &Point) -> f64 {
        (*q - *p).cross(&(*r - *p))
    }
    fn on_segment(p: &Point, q: &Point, r: &Point) -> bool {
        r.x >= p.x.min(q.x) - EPS
            && r.x <= p.x.max(q.x) + EPS
            && r.y >= p.y.min(q.y) - EPS
            && r.y <= p.y.max(q.y) + EPS
    }
    let d1 = orient(c, d, a);
    let d2 = orient(c, d, b);
    let d3 = orient(a, b, c);
    let d4 = orient(a, b, d);
    if ((d1 > EPS && d2 < -EPS) || (d1 < -EPS && d2 > EPS))
        && ((d3 > EPS && d4 < -EPS) || (d3 < -EPS && d4 > EPS))
    {
        return true;
    }
    (d1.abs() <= EPS && on_segment(c, d, a))
        || (d2.abs() <= EPS && on_segment(c, d, b))
        || (d3.abs() <= EPS && on_segment(a, b, c))
        || (d4.abs() <= EPS && on_segment(a, b, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0))
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
        assert!(!e.contains_point(&Point::ORIGIN));
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
    fn clip_in_place_is_bitwise_identical_to_clip() {
        // Drive both clip forms through an identical random-ish clip
        // sequence and require *exact* vertex equality at every step —
        // including empty results, untouched fast paths and degenerate
        // halfplanes.
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
        let mut allocating = ConvexPolygon::from_rect(&domain);
        for other in others {
            allocating = allocating.clip_bisector(&me, &other);
            in_place.clip_bisector_in_place(&me, &other, &mut scratch);
            assert_eq!(in_place, allocating, "diverged after clipping vs {other}");
        }
        // Clip to empty and keep going: both stay empty.
        let far = Point::new(4_321.0, 5_678.5);
        for _ in 0..3 {
            allocating = allocating.clip_bisector(&far, &me);
            in_place.clip_bisector_in_place(&far, &me, &mut scratch);
            assert_eq!(in_place, allocating);
        }
    }

    #[test]
    fn clip_into_leaves_source_untouched() {
        let sq = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let hp = HalfPlane::bisector(&Point::new(2.0, 5.0), &Point::new(8.0, 5.0));
        let mut scratch = ClipScratch::new();
        let mut out = ConvexPolygon::empty();
        sq.clip_into(&hp, &mut scratch, &mut out);
        assert_eq!(out, sq.clip(&hp));
        assert_eq!(sq.len(), 4, "source polygon must not change");
        // A second clip into the same buffer reuses it.
        sq.clip_into(&hp, &mut scratch, &mut out);
        assert_eq!(out, sq.clip(&hp));
    }

    #[test]
    fn untouched_clip_still_normalizes_duplicate_vertices() {
        // `from_rect` of a degenerate rectangle carries duplicate corners;
        // the historical clip deduped them through `ConvexPolygon::new`, so
        // the fast path (and the in-place form) must too.
        let degenerate = ConvexPolygon::from_rect(&Rect::from_point(Point::new(5.0, 5.0)));
        assert_eq!(degenerate.len(), 4);
        let hp = HalfPlane::bisector(&Point::new(5.0, 5.0), &Point::new(9.0, 9.0));
        let clipped = degenerate.clip(&hp);
        assert_eq!(clipped.len(), 1);
        let mut in_place = ConvexPolygon::from_rect(&Rect::from_point(Point::new(5.0, 5.0)));
        in_place.clip_in_place(&hp, &mut ClipScratch::new());
        assert_eq!(in_place, clipped);
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
    }

    /// Coordinate scales the equivalence properties run at: the tolerance
    /// `EPS` is large against the first and below the rounding of the last.
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

    /// A pair of polygons of one of six kinds: unrelated; the two sides of
    /// one cut (a shared edge); touching at a vertex; facing across an edge
    /// with a gap of `f` times the tolerance; identical; a polygon against
    /// a point, a segment or nothing.
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
                let normal = Point::new(turn.cos(), turn.sin());
                let cut = HalfPlane::new(normal, normal.dot(&centroid));
                let other = HalfPlane::new(Point::new(-normal.x, -normal.y), -cut.offset);
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
                let len = edge.norm();
                let outward = Point::new(edge.y / len, -edge.x / len);
                let gap = f * EPS * len.max(1.0) / len;
                let b = mirrored(&a, p0.midpoint(&p1));
                let shifted = b.vertices().iter().map(|&v| v + outward * gap);
                [a, ConvexPolygon::new(shifted.collect())]
            }
            4 => [a.clone(), a],
            5 => {
                let low = b.vertices()[..(pick % 3).min(b.len())].to_vec();
                [a, ConvexPolygon::new(low)]
            }
            _ => [a, b],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The table path and `intersects` agree as a `bool`, both ways
        /// round, on rows that do not start at zero.
        #[test]
        fn edge_tables_answer_exactly_what_intersects_answers(
            specs in (outline_spec(), outline_spec(), outline_spec()),
            kind in 0usize..6,
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
            let (ab, ba) = (table.intersects(1, &a, 2, &b), table.intersects(2, &b, 1, &a));
            prop_assert_eq!(ab, a.intersects(&b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(ba, b.intersects(&a), "{:?} vs {:?}", b, a);
        }

        /// Along a chain of clips — cuts, degenerate halfplanes, lines
        /// through a vertex — `clip_in_place` on one warm scratch stays
        /// bitwise equal to the allocating `clip`, and every slack it
        /// computed is `HalfPlane::signed_slack`'s, bit for bit.
        #[test]
        fn clip_in_place_is_bitwise_identical_to_clip_on_random_outlines(
            spec in outline_spec(),
            scale in 0usize..4,
            cuts in proptest::collection::vec(cut_spec(), 1..8),
        ) {
            let scale = SCALES[scale];
            let mut allocating = outline(&spec, scale);
            let mut in_place = allocating.clone();
            let mut scratch = ClipScratch::new();
            for (x, y, turn, kind, pick) in cuts {
                let site = Point::new(x * scale, y * scale);
                let vertices = allocating.vertices();
                let hp = match kind {
                    // A bisector between the outline's centroid and a point
                    // `site` away from it.
                    0 => {
                        let centroid = allocating.centroid().unwrap_or(Point::ORIGIN);
                        HalfPlane::bisector(&centroid, &(centroid + site))
                    }
                    // A degenerate halfplane: it clips nothing.
                    1 => HalfPlane::bisector(&site, &site),
                    // A line through a vertex: that vertex's slack is ~0.
                    _ => {
                        let on = vertices.get(pick % vertices.len().max(1)).copied();
                        let normal = Point::new(turn.cos(), turn.sin()) * scale;
                        HalfPlane::new(normal, normal.dot(&on.unwrap_or(site)))
                    }
                };
                let before = in_place.clone();
                allocating = allocating.clip(&hp);
                in_place.clip_in_place(&hp, &mut scratch);
                prop_assert_eq!(&in_place, &allocating, "{:?} clipped by {:?}", before, hp);
                if !hp.is_degenerate() && before.len() >= 2 {
                    for (v, slack) in before.vertices().iter().zip(&scratch.slacks) {
                        prop_assert_eq!(slack.to_bits(), hp.signed_slack(v).to_bits());
                    }
                }
            }
        }
    }
}
