//! Uniform-grid spatial bucketing: the index structures behind the
//! sub-quadratic conditional-filter kernel.
//!
//! Two flavours over one shared [`GridFrame`] (a bounds rectangle divided
//! into `res × res` equal buckets):
//!
//! * [`PointGrid`] — a *dynamic* index of point items. Items are inserted as
//!   they are discovered and queried by expanding Chebyshev **rings** around
//!   a query point, so a caller can visit items roughly nearest-first and
//!   stop as soon as a distance bound proves the remaining rings irrelevant
//!   ([`PointGrid::ring_mindist`] is the per-ring lower bound that makes the
//!   early exit sound; [`PointGrid::for_each_ring_bucket_within`] walks one
//!   ring, leaving out the buckets beyond the caller's bound).
//! * [`RectGrid`] — a *static* index of rectangle items (bounding boxes).
//!   Each rectangle is registered in every bucket it overlaps; a query
//!   gathers the items whose buckets overlap a query rectangle, visiting
//!   each item at most once (stamp-based deduplication).
//!
//! Both indexes are conservative: they only narrow *where to look*, never
//! answer a geometric predicate themselves — callers re-check exact
//! conditions on the returned item indices, so replacing a linear scan with
//! a grid query can never change a decision.
//!
//! # Points outside the frame
//!
//! A frame need not cover its items: the conditional filter frames its
//! candidate grid on the probe group's bounding box, and most candidates
//! and examined points lie around that box, not in it. [`GridFrame::bucket_of`]
//! clamps such a coordinate to the border row/column, so along each axis
//! column `0` holds everything below `lo + w`, column `res − 1` everything
//! from `lo + (res − 1)·w` upwards, and a zero-width axis sends every
//! coordinate to column `0`. Both distance bounds of [`PointGrid`] are
//! stated over that clamped mapping:
//!
//! * [`GridFrame::bucket_rect`] returns the **preimage** of a bucket under
//!   `bucket_of` — border buckets extend to infinity on their outward
//!   sides — so `bucket_rect(i, j).mindist_point_sq(p)` is a lower bound on
//!   the distance from `p` to every item stored in the bucket, clamped or
//!   not. The preimage is a product of two spans, one per axis, so the
//!   bound is a sum of two per-axis terms: `dx(i)² + dy(j)²`, with `dx(i)`
//!   the distance from `p.x` to the span of column `i` (zero inside it, and
//!   on the open side of a border column) and `dy(j)` likewise for row `j`.
//!   The ring walk hands out exactly this sum, each term computed once per
//!   column or row of the ring.
//! * [`PointGrid::ring_mindist`] holds for a clamped query point too: if
//!   the query maps to column `i` and an item to column `i'` with
//!   `|i' − i| = r`, the `r − 1` columns strictly between them are interior
//!   (their indices lie strictly between two valid indices), hence exactly
//!   one bucket width each, and the query and the item lie on opposite
//!   sides of that strip however far outside the frame either is. The same
//!   holds per row, and a Chebyshev ring `r` bucket differs by `r` in at
//!   least one axis. (On a zero-width axis every index is `0`, the step is
//!   `0` and the bound degenerates to the trivially valid `0`.)
//!
//! # The reach window
//!
//! Both callers of the ring walk hold a squared bound — four times the
//! squared reach of the cell they are clipping — and have no use for a
//! bucket whose `mindist²` exceeds it. The walk takes that bound as
//! `limit_sq` and does not visit such buckets at all: a row with
//! `dy(j)² > limit_sq` or a column with `dx(i)² > limit_sq` is skipped
//! whole (either term alone is at most the sum), and within the rest a
//! bucket with `dx(i)² + dy(j)² > limit_sq`. A caller's bound only shrinks
//! while a ring is walked (clips shrink the cell), so the value at the
//! start of the ring is the largest a per-bucket test against the current
//! bound would compare with: what the window removes, that test rejects. A
//! caller whose bound can shrink mid-ring keeps that test for the buckets
//! the window lets through; the order of the remaining buckets is the full
//! ring's, and the return value does not depend on the limit — the window
//! changes which closures run, never a decision.

use crate::point::Point;
use crate::rect::Rect;

/// Hard ceiling on grid resolutions: beyond this, bucket administration
/// costs more than the scan it saves.
pub const MAX_GRID_RESOLUTION: usize = 512;

/// A bounds rectangle divided into `res × res` equal buckets, with the
/// coordinate mapping shared by [`PointGrid`] and [`RectGrid`].
#[derive(Debug, Clone)]
pub struct GridFrame {
    bounds: Rect,
    res: usize,
    bucket_w: f64,
    bucket_h: f64,
}

impl GridFrame {
    /// Creates a frame over `bounds` with `res × res` buckets (`res` is
    /// clamped to `1..=`[`MAX_GRID_RESOLUTION`]). Degenerate bounds (zero
    /// width or height) are handled: every coordinate maps into the single
    /// row/column that exists.
    pub fn new(bounds: &Rect, res: usize) -> GridFrame {
        let res = res.clamp(1, MAX_GRID_RESOLUTION);
        GridFrame {
            bounds: *bounds,
            res,
            bucket_w: (bounds.width() / res as f64).max(0.0),
            bucket_h: (bounds.height() / res as f64).max(0.0),
        }
    }

    /// Buckets per axis.
    pub fn res(&self) -> usize {
        self.res
    }

    /// The indexed bounds.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// The smaller bucket extent — the per-ring distance step used by
    /// [`PointGrid::ring_mindist`].
    pub fn min_bucket_extent(&self) -> f64 {
        self.bucket_w.min(self.bucket_h)
    }

    fn axis_bucket(&self, coord: f64, lo: f64, extent: f64) -> usize {
        if extent <= 0.0 {
            return 0;
        }
        (((coord - lo) / extent).floor() as isize).clamp(0, self.res as isize - 1) as usize
    }

    /// The bucket containing `p` (coordinates outside the bounds clamp to
    /// the border buckets).
    pub fn bucket_of(&self, p: &Point) -> (usize, usize) {
        (
            self.axis_bucket(p.x, self.bounds.lo.x, self.bucket_w),
            self.axis_bucket(p.y, self.bounds.lo.y, self.bucket_h),
        )
    }

    /// The inclusive bucket-index range `(i0, j0, i1, j1)` overlapped by
    /// `r`, or `None` when `r` misses the bounds entirely.
    pub fn bucket_range(&self, r: &Rect) -> Option<(usize, usize, usize, usize)> {
        if !self.bounds.intersects(r) {
            return None;
        }
        let (i0, j0) = self.bucket_of(&r.lo);
        let (i1, j1) = self.bucket_of(&r.hi);
        Some((i0, j0, i1, j1))
    }

    /// The span of coordinates [`GridFrame::axis_bucket`] maps to `idx`:
    /// one bucket extent for interior indices, open to infinity on the
    /// outward side of the two border indices (which receive the clamped
    /// coordinates), and the whole axis when the extent is zero.
    fn axis_span(&self, idx: usize, lo: f64, extent: f64) -> (f64, f64) {
        if extent <= 0.0 {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        let from = if idx == 0 {
            f64::NEG_INFINITY
        } else {
            lo + idx as f64 * extent
        };
        let to = if idx + 1 == self.res {
            f64::INFINITY
        } else {
            lo + (idx + 1) as f64 * extent
        };
        (from, to)
    }

    /// The region of the plane [`GridFrame::bucket_of`] maps to bucket
    /// `(i, j)`: its cell of the frame, extended to infinity on the outward
    /// sides of border buckets (see the module docs).
    pub fn bucket_rect(&self, i: usize, j: usize) -> Rect {
        let (x0, x1) = self.axis_span(i, self.bounds.lo.x, self.bucket_w);
        let (y0, y1) = self.axis_span(j, self.bounds.lo.y, self.bucket_h);
        Rect::from_coords(x0, y0, x1, y1)
    }

    /// Distance from `coord` to the span of index `idx` along one axis: the
    /// per-axis term of `bucket_rect(..).mindist_point_sq(..)`, from the
    /// same [`GridFrame::axis_span`] in the same operation order.
    fn axis_mindist(&self, idx: usize, lo: f64, extent: f64, coord: f64) -> f64 {
        let (from, to) = self.axis_span(idx, lo, extent);
        (from - coord).max(0.0).max(coord - to)
    }

    fn bucket_index(&self, i: usize, j: usize) -> usize {
        j * self.res + i
    }

    /// Replaces `self` by a frame over `bounds` with `res × res` buckets
    /// and readies `buckets` for it: the outgoing frame's buckets (the only
    /// ones that can hold items) are emptied, their allocations kept, and
    /// the vector grown to the new bucket count if needed — surplus buckets
    /// of an earlier, finer frame stay behind, empty, for later.
    fn reframe(&mut self, bounds: &Rect, res: usize, buckets: &mut Vec<Vec<u32>>) {
        for bucket in &mut buckets[..self.res * self.res] {
            bucket.clear();
        }
        *self = GridFrame::new(bounds, res);
        let n = self.res * self.res;
        if buckets.len() < n {
            buckets.resize_with(n, Vec::new);
        }
    }
}

/// A dynamic uniform-grid index of points, queried by expanding rings.
///
/// Items are external: the grid stores only `u32` indices (plus the point
/// used for bucketing), so the caller keeps the authoritative item storage.
///
/// A grid is meant to live in a per-worker scratch: [`PointGrid::reset`]
/// re-frames it and empties the buckets while keeping every bucket's
/// allocation, so a warm grid indexes a new item set without allocating.
#[derive(Debug, Clone)]
pub struct PointGrid {
    frame: GridFrame,
    /// At least `res × res` buckets; a grid re-framed to a lower resolution
    /// keeps the surplus (empty) buckets and their capacity for later.
    buckets: Vec<Vec<u32>>,
    /// Item order of the grid being rebuilt by [`PointGrid::grow`].
    spill: Vec<u32>,
    len: usize,
}

impl Default for PointGrid {
    /// An empty one-bucket grid; [`PointGrid::reset`] frames it for use.
    fn default() -> Self {
        PointGrid::new(&Rect::from_coords(0.0, 0.0, 1.0, 1.0), 1)
    }
}

impl PointGrid {
    /// An empty grid over `bounds` with `res × res` buckets.
    pub fn new(bounds: &Rect, res: usize) -> PointGrid {
        let frame = GridFrame::new(bounds, res);
        let n = frame.res() * frame.res();
        PointGrid {
            frame,
            buckets: vec![Vec::new(); n],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Empties the grid and re-frames it over `bounds` with `res × res`
    /// buckets, keeping the bucket allocations.
    pub fn reset(&mut self, bounds: &Rect, res: usize) {
        self.frame.reframe(bounds, res, &mut self.buckets);
        self.len = 0;
    }

    /// The coordinate frame (for [`GridFrame::bucket_of`] etc.).
    pub fn frame(&self) -> &GridFrame {
        &self.frame
    }

    /// Number of inserted items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no item has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers item `idx` at position `p`.
    pub fn insert(&mut self, p: &Point, idx: u32) {
        let (i, j) = self.frame.bucket_of(p);
        let slot = self.frame.bucket_index(i, j);
        self.buckets[slot].push(idx);
        self.len += 1;
    }

    /// Whether the grid has outgrown its resolution (average bucket load
    /// above ~3) and a [`PointGrid::grow`] rebuild would pay off.
    pub fn needs_growth(&self) -> bool {
        let res = self.frame.res();
        res < MAX_GRID_RESOLUTION && self.len > 3 * res * res
    }

    /// Rebuilds the grid in place at twice the resolution over the same
    /// bounds; `position_of` resolves an item index back to its point (the
    /// grid does not store positions). Items are re-inserted in bucket
    /// order, so the rebuilt buckets list them in a deterministic order.
    pub fn grow(&mut self, position_of: impl Fn(u32) -> Point) {
        let mut spill = std::mem::take(&mut self.spill);
        spill.clear();
        for bucket in &self.buckets {
            spill.extend_from_slice(bucket);
        }
        let bounds = *self.frame.bounds();
        self.reset(&bounds, self.frame.res() * 2);
        for &idx in &spill {
            self.insert(&position_of(idx), idx);
        }
        self.spill = spill;
    }

    /// Lower bound on the distance from a point mapped to the center bucket
    /// to any item of a bucket on Chebyshev ring `ring`: a bucket `ring`
    /// steps away is separated from the query point by at least `ring − 1`
    /// full bucket extents, wherever outside the frame the point or the item
    /// lies (see the module docs). Rings 0 and 1 may touch the query point
    /// itself.
    pub fn ring_mindist(&self, ring: usize) -> f64 {
        ring.saturating_sub(1) as f64 * self.frame.min_bucket_extent()
    }

    /// Visits the buckets of Chebyshev ring `ring` around the bucket
    /// `center` that lie within `limit_sq` of `p`, handing `f` each bucket's
    /// `mindist²` from `p` — bit for bit
    /// `bucket_rect(i, j).mindist_point_sq(p)` — and its item slice. The
    /// order is fixed: the ring's top and bottom rows interleaved column by
    /// column, then its left and right columns interleaved row by row. Rows,
    /// columns and buckets farther than `limit_sq` are skipped without a
    /// call (module docs, "The reach window"). Returns `false` when the
    /// whole ring lies outside the grid, whatever the limit — no larger ring
    /// can contain anything either, so callers stop expanding.
    pub fn for_each_ring_bucket_within(
        &self,
        center: (usize, usize),
        p: &Point,
        ring: usize,
        limit_sq: f64,
        mut f: impl FnMut(f64, &[u32]),
    ) -> bool {
        let frame = &self.frame;
        let res = frame.res;
        let (ci, cj) = center;
        debug_assert!(ci < res && cj < res, "the centre is a bucket of the grid");
        let dx_sq = |i: usize| {
            let d = frame.axis_mindist(i, frame.bounds.lo.x, frame.bucket_w, p.x);
            d * d
        };
        let dy_sq = |j: usize| {
            let d = frame.axis_mindist(j, frame.bounds.lo.y, frame.bucket_h, p.y);
            d * d
        };
        let beyond = |d_sq: f64| d_sq > limit_sq;
        let mut visit = |i: usize, j: usize, d_sq: f64| {
            if !beyond(d_sq) {
                f(d_sq, &self.buckets[frame.bucket_index(i, j)]);
            }
        };
        if ring == 0 {
            visit(ci, cj, dx_sq(ci) + dy_sq(cj));
            return true;
        }
        // The ring's two rows and two columns; `None` when off the grid.
        let rows = [cj.checked_sub(ring), Some(cj + ring).filter(|&j| j < res)];
        let cols = [ci.checked_sub(ring), Some(ci + ring).filter(|&i| i < res)];
        // Each with its own axis distance², dropped when that alone is
        // beyond the limit.
        let [top, bottom] = rows.map(|j| j.map(|j| (j, dy_sq(j))).filter(|e| !beyond(e.1)));
        if top.is_some() || bottom.is_some() {
            for i in ci.saturating_sub(ring)..=(ci + ring).min(res - 1) {
                let dx = dx_sq(i);
                if beyond(dx) {
                    continue;
                }
                for (j, dy) in [top, bottom].into_iter().flatten() {
                    visit(i, j, dx + dy);
                }
            }
        }
        let [left, right] = cols.map(|i| i.map(|i| (i, dx_sq(i))).filter(|e| !beyond(e.1)));
        if left.is_some() || right.is_some() {
            for j in (cj + 1).saturating_sub(ring)..=(cj + ring - 1).min(res - 1) {
                let dy = dy_sq(j);
                if beyond(dy) {
                    continue;
                }
                for (i, dx) in [left, right].into_iter().flatten() {
                    visit(i, j, dx + dy);
                }
            }
        }
        rows.iter().chain(&cols).any(Option::is_some)
    }
}

/// A static uniform-grid index of rectangles with stamp-deduplicated
/// queries.
///
/// Like [`PointGrid`], an index is meant to live in a per-worker scratch:
/// [`RectGrid::rebuild`] re-frames it over a new rectangle set while keeping
/// every bucket's allocation.
#[derive(Debug, Clone)]
pub struct RectGrid {
    frame: GridFrame,
    /// At least `res × res` buckets; an index rebuilt at a lower resolution
    /// keeps the surplus (empty) buckets and their capacity for later.
    buckets: Vec<Vec<u32>>,
    /// Per-item stamp of the last query round that reported the item, so a
    /// rectangle spanning several queried buckets is visited once.
    stamps: Vec<u32>,
    round: u32,
}

impl Default for RectGrid {
    /// An empty one-bucket index; [`RectGrid::rebuild`] fills it.
    fn default() -> Self {
        RectGrid {
            frame: GridFrame::new(&Rect::from_coords(0.0, 0.0, 1.0, 1.0), 1),
            buckets: vec![Vec::new()],
            stamps: Vec::new(),
            round: 0,
        }
    }
}

impl RectGrid {
    /// Builds the index over `rects` (bounds = union of the rectangles,
    /// resolution ≈ `√n` so the average bucket holds O(1) item *origins*).
    pub fn build(rects: &[Rect]) -> RectGrid {
        let mut grid = RectGrid::default();
        grid.rebuild(rects);
        grid
    }

    /// Re-indexes `rects` in place — the same frame, buckets and item order
    /// [`RectGrid::build`] produces — keeping the bucket allocations, so a
    /// warm index takes a new rectangle set without allocating.
    pub fn rebuild(&mut self, rects: &[Rect]) {
        let bounds = rects
            .iter()
            .filter(|r| !r.is_empty())
            .fold(Rect::empty(), |acc, r| acc.union(r));
        let bounds = if bounds.is_empty() {
            Rect::from_coords(0.0, 0.0, 1.0, 1.0)
        } else {
            bounds
        };
        let res = ((rects.len() as f64).sqrt().ceil() as usize).clamp(1, 64);
        self.frame.reframe(&bounds, res, &mut self.buckets);
        for (idx, r) in rects.iter().enumerate() {
            if let Some((i0, j0, i1, j1)) = self.frame.bucket_range(r) {
                for j in j0..=j1 {
                    for i in i0..=i1 {
                        self.buckets[self.frame.bucket_index(i, j)].push(idx as u32);
                    }
                }
            }
        }
        self.stamps.clear();
        self.stamps.resize(rects.len(), 0);
        self.round = 0;
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the index holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Calls `f` with the index of every rectangle whose bucket range
    /// overlaps `query` — a superset of the rectangles intersecting it
    /// (callers re-check exactly) — each at most once. `f` returns whether
    /// to continue; returning `false` short-circuits the query.
    pub fn for_each_overlapping(&mut self, query: &Rect, mut f: impl FnMut(u32) -> bool) {
        let Some((i0, j0, i1, j1)) = self.frame.bucket_range(query) else {
            return;
        };
        self.round += 1;
        for j in j0..=j1 {
            for i in i0..=i1 {
                for &idx in &self.buckets[self.frame.bucket_index(i, j)] {
                    if self.stamps[idx as usize] == self.round {
                        continue;
                    }
                    self.stamps[idx as usize] = self.round;
                    if !f(idx) {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl PointGrid {
        /// The full-ring walk [`PointGrid::for_each_ring_bucket_within`]
        /// replaced, kept as its reference: every in-grid bucket of the ring
        /// with its extent, a bounds test and a `bucket_rect` per bucket.
        fn for_each_ring_bucket(
            &self,
            center: (usize, usize),
            ring: usize,
            mut f: impl FnMut(&Rect, &[u32]),
        ) -> bool {
            let res = self.frame.res() as isize;
            let (ci, cj) = (center.0 as isize, center.1 as isize);
            let r = ring as isize;
            let mut any = false;
            let mut visit = |i: isize, j: isize| {
                if i < 0 || j < 0 || i >= res || j >= res {
                    return;
                }
                any = true;
                let (i, j) = (i as usize, j as usize);
                let rect = self.frame.bucket_rect(i, j);
                f(&rect, &self.buckets[self.frame.bucket_index(i, j)]);
            };
            if ring == 0 {
                visit(ci, cj);
                return any;
            }
            for i in (ci - r)..=(ci + r) {
                visit(i, cj - r);
                visit(i, cj + r);
            }
            for j in (cj - r + 1)..=(cj + r - 1) {
                visit(ci - r, j);
                visit(ci + r, j);
            }
            any
        }
    }

    #[test]
    fn frame_maps_points_and_rects_to_buckets() {
        let frame = GridFrame::new(&Rect::from_coords(0.0, 0.0, 100.0, 100.0), 10);
        assert_eq!(frame.res(), 10);
        assert_eq!(frame.bucket_of(&Point::new(5.0, 5.0)), (0, 0));
        assert_eq!(frame.bucket_of(&Point::new(95.0, 15.0)), (9, 1));
        // Out-of-bounds coordinates clamp to border buckets.
        assert_eq!(frame.bucket_of(&Point::new(-5.0, 500.0)), (0, 9));
        let range = frame
            .bucket_range(&Rect::from_coords(12.0, 12.0, 38.0, 22.0))
            .unwrap();
        assert_eq!(range, (1, 1, 3, 2));
        assert!(frame
            .bucket_range(&Rect::from_coords(200.0, 200.0, 300.0, 300.0))
            .is_none());
        let b = frame.bucket_rect(1, 1);
        assert_eq!(b, Rect::from_coords(10.0, 10.0, 20.0, 20.0));
    }

    #[test]
    fn degenerate_bounds_map_everything_to_one_bucket() {
        let frame = GridFrame::new(&Rect::from_coords(5.0, 0.0, 5.0, 10.0), 4);
        assert_eq!(frame.bucket_of(&Point::new(5.0, 5.0)).0, 0);
        assert_eq!(frame.min_bucket_extent(), 0.0);
    }

    /// A spread of items and query points of which most lie outside a frame
    /// of `bounds` (they clamp to border buckets).
    fn scattered(n: usize, bounds: &Rect) -> Vec<Point> {
        let c = bounds.center();
        let (w, h) = (bounds.width().max(1.0), bounds.height().max(1.0));
        (0..n)
            .map(|i| {
                let fx = ((i * 37 % 101) as f64 / 100.0 - 0.5) * 5.0;
                let fy = ((i * 59 % 103) as f64 / 102.0 - 0.5) * 5.0;
                Point::new(c.x + fx * w, c.y + fy * h)
            })
            .collect()
    }

    /// Walks every ring around `from`, unwindowed, and checks the three
    /// contracts the filter's cutoff relies on: the rings partition the
    /// items, and both the ring bound and the reported bucket distance are
    /// lower bounds on the distance to every item they cover.
    fn assert_ring_contracts(grid: &PointGrid, points: &[Point], from: &Point) {
        let frame = grid.frame();
        for item in points {
            let (i, j) = frame.bucket_of(item);
            assert!(
                frame.bucket_rect(i, j).contains_point(item),
                "bucket ({i}, {j}) misses its own item {item}"
            );
        }
        let center = frame.bucket_of(from);
        let mut seen = Vec::new();
        let mut ring = 0;
        loop {
            let lb = grid.ring_mindist(ring);
            let in_range = grid.for_each_ring_bucket_within(
                center,
                from,
                ring,
                f64::INFINITY,
                |bucket_sq, items| {
                    for &idx in items {
                        let item = &points[idx as usize];
                        assert!(
                            item.dist(from) >= lb,
                            "ring {ring} holds {item} closer to {from} than its bound {lb}"
                        );
                        assert!(
                            bucket_sq <= item.dist_sq(from),
                            "bucket distance² {bucket_sq} is no lower bound for {item} from {from}"
                        );
                    }
                    seen.extend_from_slice(items);
                },
            );
            if !in_range {
                break;
            }
            ring += 1;
        }
        seen.sort_unstable();
        let expected: Vec<u32> = (0..points.len() as u32).collect();
        assert_eq!(seen, expected, "rings must partition the items");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The windowed walk reports exactly the full-ring reference's
        /// buckets within the limit: same order, same buckets, bitwise-equal
        /// distances, same return value.
        #[test]
        fn windowed_walk_reports_the_reference_buckets_within_the_limit(
            frame_kind in 0usize..4,
            items_inside in 0usize..2,
            res_pick in 0usize..5,
            origin in (-50.0f64..50.0, -50.0f64..50.0),
            extent in (1.0f64..100.0, 1.0f64..100.0),
            queries in proptest::collection::vec((-3.0f64..4.0, -3.0f64..4.0), 5..6),
            far in (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6),
        ) {
            // In-frame, zero-width, zero-height and point frames.
            let (w, h) = match frame_kind {
                0 => extent,
                1 => (0.0, extent.1),
                2 => (extent.0, 0.0),
                _ => (0.0, 0.0),
            };
            let bounds = Rect::from_coords(origin.0, origin.1, origin.0 + w, origin.1 + h);
            let res = [1usize, 2, 5, 8, 16][res_pick];
            let at = |f: (f64, f64)| Point::new(origin.0 + f.0 * w.max(1.0), origin.1 + f.1 * h.max(1.0));
            let points: Vec<Point> = if items_inside == 1 {
                (0..60).map(|i| at(((i * 37 % 101) as f64 / 101.0, (i * 59 % 103) as f64 / 103.0))).collect()
            } else {
                scattered(60, &bounds)
            };
            let mut grid = PointGrid::new(&bounds, res);
            for (i, p) in points.iter().enumerate() {
                grid.insert(p, i as u32);
            }
            // A marker per bucket, so that equal slices mean the same bucket.
            for (slot, bucket) in grid.buckets.iter_mut().enumerate() {
                bucket.push(1_000_000 + slot as u32);
            }
            // Inside (fractions in 0..1), around and far outside the frame.
            let mut froms: Vec<Point> = queries.iter().map(|&f| at(f)).collect();
            froms.push(Point::new(far.0, far.1));
            froms.push(bounds.lo);
            for from in &froms {
                let center = grid.frame().bucket_of(from);
                let extent_sq = grid.frame().min_bucket_extent().powi(2);
                let mid_sq = from.dist_sq(&bounds.center()).max(extent_sq) * 0.5;
                for ring in 0..res + 2 {
                    let mut reference = Vec::new();
                    let expected = grid.for_each_ring_bucket(center, ring, |bucket, items| {
                        reference.push((bucket.mindist_point_sq(from), items.to_vec()));
                    });
                    for limit_sq in [0.0, extent_sq, mid_sq, f64::INFINITY] {
                        let mut reported = Vec::new();
                        let in_range = grid.for_each_ring_bucket_within(
                            center, from, ring, limit_sq,
                            |d_sq, items| reported.push((d_sq.to_bits(), items.to_vec())),
                        );
                        let within: Vec<(u64, Vec<u32>)> = reference
                            .iter()
                            .filter(|(d_sq, _)| *d_sq <= limit_sq)
                            .map(|(d_sq, items)| (d_sq.to_bits(), items.clone()))
                            .collect();
                        prop_assert_eq!(in_range, expected, "ring {} from {}", ring, from);
                        prop_assert_eq!(
                            reported, within,
                            "ring {} from {} within {}", ring, from, limit_sq
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn items_and_queries_inside_the_frame_keep_every_ring_contract() {
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let points: Vec<Point> = (0..80)
            .map(|i| Point::new((i * 7 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        for res in [8usize, 10] {
            let mut grid = PointGrid::new(&bounds, res);
            for (i, p) in points.iter().enumerate() {
                grid.insert(p, i as u32);
            }
            assert_eq!(grid.len(), points.len());
            for from in [
                Point::new(50.0, 50.0),
                Point::new(3.0, 97.0),
                Point::new(55.0, 42.0),
            ] {
                assert_ring_contracts(&grid, &points, &from);
            }
        }
    }

    #[test]
    fn items_and_queries_outside_the_frame_keep_every_ring_contract() {
        let bounds = Rect::from_coords(40.0, 40.0, 60.0, 50.0);
        let points = scattered(120, &bounds);
        assert!(
            points.iter().filter(|p| !bounds.contains_point(p)).count() > points.len() / 2,
            "the fixture must mostly lie outside the frame"
        );
        for res in [1usize, 2, 5, 16] {
            let mut grid = PointGrid::new(&bounds, res);
            for (i, p) in points.iter().enumerate() {
                grid.insert(p, i as u32);
            }
            for from in scattered(40, &bounds) {
                assert_ring_contracts(&grid, &points, &from);
            }
            // Growth keeps the frame, so the contracts survive a rebuild.
            let mut grown = grid.clone();
            grown.grow(|i| points[i as usize]);
            assert_eq!(grown.frame().bounds(), grid.frame().bounds());
            assert_ring_contracts(&grown, &points, &Point::new(-500.0, 47.0));
        }
    }

    #[test]
    fn border_buckets_extend_to_infinity_and_interior_ones_do_not() {
        let frame = GridFrame::new(&Rect::from_coords(0.0, 0.0, 30.0, 30.0), 3);
        let corner = frame.bucket_rect(0, 2);
        assert_eq!(corner.lo.x, f64::NEG_INFINITY);
        assert_eq!(corner.hi.x, 10.0);
        assert_eq!(corner.lo.y, 20.0);
        assert_eq!(corner.hi.y, f64::INFINITY);
        assert_eq!(
            frame.bucket_rect(1, 1),
            Rect::from_coords(10.0, 10.0, 20.0, 20.0)
        );
        // A far-away clamped item is at distance 0 from its own bucket, and
        // the bucket is still a finite distance from points on the far side.
        let far = Point::new(-1.0e6, 1.0e6);
        assert_eq!(frame.bucket_of(&far), (0, 2));
        assert_eq!(corner.mindist_point_sq(&far), 0.0);
        assert_eq!(corner.mindist_point_sq(&Point::new(25.0, 5.0)), 450.0);
        // One bucket per axis: the single bucket is the whole plane.
        let whole = GridFrame::new(&Rect::from_coords(0.0, 0.0, 1.0, 1.0), 1).bucket_rect(0, 0);
        assert_eq!(whole.mindist_point_sq(&far), 0.0);
    }

    #[test]
    fn degenerate_frames_keep_every_ring_contract() {
        for bounds in [
            Rect::from_coords(5.0, 0.0, 5.0, 10.0),
            Rect::from_coords(0.0, 7.0, 10.0, 7.0),
            Rect::from_point(Point::new(3.0, 3.0)),
        ] {
            let points = scattered(60, &Rect::from_coords(-5.0, -5.0, 15.0, 15.0));
            let mut grid = PointGrid::new(&bounds, 4);
            for (i, p) in points.iter().enumerate() {
                grid.insert(p, i as u32);
            }
            assert_eq!(grid.ring_mindist(3), 0.0, "no step on a zero-width axis");
            for from in [Point::new(5.0, 5.0), Point::new(-40.0, 90.0)] {
                assert_ring_contracts(&grid, &points, &from);
            }
        }
    }

    #[test]
    fn point_grid_growth_preserves_items() {
        let bounds = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut grid = PointGrid::new(&bounds, 2);
        let points: Vec<Point> = (0..40)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        for (i, p) in points.iter().enumerate() {
            grid.insert(p, i as u32);
        }
        assert!(grid.needs_growth());
        let mut grown = grid.clone();
        grown.grow(|i| points[i as usize]);
        assert_eq!(grown.frame().res(), 4);
        assert_eq!(grown.len(), grid.len());
        let mut seen = 0usize;
        let mut ring = 0;
        let origin = Point::new(0.0, 0.0);
        while grown.for_each_ring_bucket_within((0, 0), &origin, ring, f64::INFINITY, |_, items| {
            seen += items.len()
        }) {
            ring += 1;
        }
        assert_eq!(seen, 40);
    }

    #[test]
    fn reset_reframes_an_emptied_grid_and_keeps_every_ring_contract() {
        let first = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let mut grid = PointGrid::default();
        assert!(grid.is_empty());
        grid.reset(&first, 9);
        for (i, p) in scattered(90, &first).iter().enumerate() {
            grid.insert(p, i as u32);
        }
        // Down to a coarser frame elsewhere: nothing of the first item set
        // may survive in the buckets the new frame uses (or in the surplus).
        let second = Rect::from_coords(40.0, 40.0, 60.0, 50.0);
        let points = scattered(30, &second);
        grid.reset(&second, 3);
        assert!(grid.is_empty());
        assert_eq!(grid.frame().res(), 3);
        assert_eq!(grid.frame().bounds(), &second);
        for (i, p) in points.iter().enumerate() {
            grid.insert(p, i as u32);
        }
        assert_ring_contracts(&grid, &points, &Point::new(47.0, 44.0));
        // And back up, through growth, past the first resolution.
        grid.grow(|i| points[i as usize]);
        grid.grow(|i| points[i as usize]);
        assert_eq!(grid.frame().res(), 12);
        assert_eq!(grid.len(), points.len());
        assert_ring_contracts(&grid, &points, &Point::new(-3.0, 90.0));
    }

    #[test]
    fn rect_grid_reports_a_superset_of_intersections_without_duplicates() {
        let rects: Vec<Rect> = (0..30)
            .map(|i| {
                let x = (i * 17 % 90) as f64;
                let y = (i * 29 % 90) as f64;
                Rect::from_coords(x, y, x + 12.0, y + 7.0)
            })
            .collect();
        let mut grid = RectGrid::build(&rects);
        assert_eq!(grid.len(), rects.len());
        for query in [
            Rect::from_coords(10.0, 10.0, 30.0, 30.0),
            Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            Rect::from_coords(80.0, 80.0, 99.0, 99.0),
            Rect::from_coords(500.0, 500.0, 600.0, 600.0),
        ] {
            let mut reported = Vec::new();
            grid.for_each_overlapping(&query, |idx| {
                reported.push(idx);
                true
            });
            let mut dedup = reported.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), reported.len(), "duplicate item reported");
            for (i, r) in rects.iter().enumerate() {
                if r.intersects(&query) {
                    assert!(
                        reported.contains(&(i as u32)),
                        "rect {i} intersects the query but was not reported"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuilt_rect_grid_reports_exactly_what_a_fresh_build_reports() {
        let set = |n: usize, stride: usize, size: f64| -> Vec<Rect> {
            (0..n)
                .map(|i| {
                    let x = (i * stride % 90) as f64;
                    let y = (i * (stride + 12) % 90) as f64;
                    Rect::from_coords(x, y, x + size, y + size * 0.5)
                })
                .collect()
        };
        // One warm index taken through larger, smaller and empty sets (a
        // lower resolution leaves surplus buckets behind, and stamps of an
        // earlier set must not hide items of a later one).
        let mut warm = RectGrid::default();
        for rects in [
            set(40, 17, 12.0),
            set(3, 29, 30.0),
            Vec::new(),
            set(90, 7, 4.0),
        ] {
            warm.rebuild(&rects);
            let mut fresh = RectGrid::build(&rects);
            assert_eq!(warm.len(), fresh.len());
            for query in [
                Rect::from_coords(10.0, 10.0, 30.0, 30.0),
                Rect::from_coords(0.0, 0.0, 100.0, 100.0),
                Rect::from_coords(500.0, 500.0, 600.0, 600.0),
            ] {
                let report = |grid: &mut RectGrid| {
                    let mut reported = Vec::new();
                    grid.for_each_overlapping(&query, |idx| {
                        reported.push(idx);
                        true
                    });
                    reported
                };
                assert_eq!(report(&mut warm), report(&mut fresh));
            }
        }
    }

    #[test]
    fn rect_grid_query_short_circuits() {
        let rects = vec![Rect::from_coords(0.0, 0.0, 10.0, 10.0); 5];
        let mut grid = RectGrid::build(&rects);
        let mut calls = 0;
        grid.for_each_overlapping(&Rect::from_coords(1.0, 1.0, 2.0, 2.0), |_| {
            calls += 1;
            false
        });
        assert_eq!(calls, 1);
    }
}
