//! Uniform-grid spatial bucketing: the overlap index behind the conditional
//! filter's probe-polygon tests, and the frame the grouped nearest-neighbour
//! claim buckets its locations in.
//!
//! * [`GridFrame`] — a bounds rectangle divided into `res × res` equal
//!   buckets. [`GridFrame::bucket_of`] clamps a coordinate outside the
//!   bounds to the border row/column, so along each axis column `0` holds
//!   everything below `lo + w`, column `res − 1` everything from
//!   `lo + (res − 1)·w` upwards, and a zero-width axis sends every
//!   coordinate to column `0`.
//! * [`RectGrid`] — a *static* index of rectangle items (bounding boxes).
//!   Each rectangle is registered in every bucket it overlaps; a query
//!   gathers the items whose buckets overlap a query rectangle, visiting
//!   each item at most once (stamp-based deduplication).
//!
//! The index is conservative: it only narrows *where to look*, never
//! answers a geometric predicate itself — callers re-check exact conditions
//! on the returned item indices, so replacing a linear scan with a grid
//! query can never change a decision.

use crate::point::Point;
use crate::rect::Rect;

/// Hard ceiling on grid resolutions: beyond this, bucket administration
/// costs more than the scan it saves.
pub const MAX_GRID_RESOLUTION: usize = 512;

/// A bounds rectangle divided into `res × res` equal buckets, with the
/// coordinate mapping [`RectGrid`] indexes by.
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

    /// The column of `coord` along an axis from `lo` with buckets `extent`
    /// wide. The cast truncates rather than floors: the two differ only on
    /// negative non-integers, which both clamp to column 0, and NaN and ±∞
    /// saturate alike — so the libm `floor` call is not needed.
    fn axis_bucket(&self, coord: f64, lo: f64, extent: f64) -> usize {
        if extent <= 0.0 {
            return 0;
        }
        (((coord - lo) / extent) as isize).clamp(0, self.res as isize - 1) as usize
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

/// A static uniform-grid index of rectangles with stamp-deduplicated
/// queries.
///
/// An index is meant to live in a per-worker scratch:
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
        // A far-away coordinate clamps to the border bucket on its side.
        assert_eq!(frame.bucket_of(&Point::new(-1.0e6, 1.0e6)), (0, 9));
    }

    #[test]
    fn truncated_bucketing_equals_floored_bucketing() {
        let floored = |v: f64, res: usize| (v.floor() as isize).clamp(0, res as isize - 1) as usize;
        let mut values = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.0,
            -0.0,
            isize::MAX as f64,
            isize::MIN as f64,
        ];
        for k in [-2.0, -1.0, 0.0, 1.0, 6.0, 7.0, 8.0, 511.0, 512.0, 513.0] {
            let (mut below, mut above) = (k, k);
            for _ in 0..3 {
                below = f64::next_down(below);
                above = f64::next_up(above);
                values.extend([below, above]);
            }
            values.extend([k, k - 0.5, k + 0.5]);
        }
        // A seeded sample: uniform around the grid, then raw bit patterns.
        let mut rng = crate::TestRng(0x5eed);
        for _ in 0..100_000 {
            values.push(rng.unit() * 2_048.0 - 1_024.0);
            values.push(f64::from_bits(rng.next()));
        }
        for res in [1, 7, MAX_GRID_RESOLUTION] {
            // A unit-width frame from 0, so the bucket coordinate is `v`.
            let frame = GridFrame::new(&Rect::from_coords(0.0, 0.0, res as f64, res as f64), res);
            for &v in &values {
                assert_eq!(
                    frame.bucket_of(&Point::new(v, v)).0,
                    floored(v, res),
                    "{v:e} at {res}"
                );
            }
        }
    }

    #[test]
    fn degenerate_bounds_map_everything_to_one_bucket() {
        let frame = GridFrame::new(&Rect::from_coords(5.0, 0.0, 5.0, 10.0), 4);
        assert_eq!(frame.bucket_of(&Point::new(5.0, 5.0)).0, 0);
        assert_eq!(frame.bucket_of(&Point::new(-50.0, 5.0)).0, 0);
        assert_eq!(frame.bucket_of(&Point::new(50.0, 5.0)).0, 0);
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
