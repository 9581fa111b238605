//! Axis-aligned rectangles (minimum bounding rectangles).

use crate::point::Point;
use crate::segment::Segment;
use std::fmt;

/// An axis-aligned rectangle, the MBR of an R-tree entry.
///
/// A `Rect` is always well-formed: `lo.x <= hi.x` and `lo.y <= hi.y`.
/// Degenerate rectangles (points and horizontal/vertical segments) are
/// allowed — an R-tree leaf entry for a point stores a degenerate MBR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// The default space domain used throughout the paper: `[0, 10000]²`.
    pub const DOMAIN: Rect = Rect {
        lo: Point::new(0.0, 0.0),
        hi: Point::new(10_000.0, 10_000.0),
    };

    /// Creates a rectangle from two corner points, normalising the corner
    /// order so the result is well-formed.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from `(min_x, min_y, max_x, max_y)`.
    #[inline]
    pub fn from_coords(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y))
    }

    /// The degenerate rectangle covering a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { lo: p, hi: p }
    }

    /// An "empty" rectangle that acts as the identity for [`Rect::union`].
    ///
    /// Any union with it yields the other operand; it intersects nothing.
    #[inline]
    pub fn empty() -> Self {
        Rect {
            lo: Point::new(f64::INFINITY, f64::INFINITY),
            hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Whether this is the [`Rect::empty`] identity rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.hi.x - self.lo.x).max(0.0)
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        (self.hi.y - self.lo.y).max(0.0)
    }

    /// Area of the rectangle (0 for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// Smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Smallest rectangle containing this rectangle and a point.
    #[inline]
    pub fn union_point(&self, p: Point) -> Rect {
        self.union(&Rect::from_point(p))
    }

    /// Whether the two rectangles intersect (boundaries touching counts).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// The intersection of two rectangles, if it is non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// Whether the rectangle contains the point (boundary inclusive).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Whether `self` fully contains `other`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty() && self.contains_point(&other.lo) && self.contains_point(&other.hi)
    }

    /// Minimum distance from the rectangle to a point (`mindist(e, p)` in
    /// the paper). Zero if the point lies inside the rectangle.
    #[inline]
    pub fn mindist_point(&self, p: &Point) -> f64 {
        self.mindist_point_sq(p).sqrt()
    }

    /// Squared minimum distance from the rectangle to a point.
    #[inline]
    pub fn mindist_point_sq(&self, p: &Point) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        dx * dx + dy * dy
    }

    /// Maximum distance from any point of the rectangle to `p`.
    ///
    /// Used to upper-bound distances during pruning.
    pub fn maxdist_point(&self, p: &Point) -> f64 {
        let dx = (p.x - self.lo.x).abs().max((p.x - self.hi.x).abs());
        let dy = (p.y - self.lo.y).abs().max((p.y - self.hi.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum distance between two rectangles (`mindist(eP, eQ)`), the lower
    /// bound used by the synchronous-traversal distance join.
    pub fn mindist_rect(&self, other: &Rect) -> f64 {
        let dx = (self.lo.x - other.hi.x)
            .max(0.0)
            .max(other.lo.x - self.hi.x);
        let dy = (self.lo.y - other.hi.y)
            .max(0.0)
            .max(other.lo.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corner points in counter-clockwise order starting at `lo`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.lo,
            Point::new(self.hi.x, self.lo.y),
            self.hi,
            Point::new(self.lo.x, self.hi.y),
        ]
    }

    /// The four sides as segments, counter-clockwise.
    ///
    /// These are the segments `L` of a non-leaf entry used by the Φ(L, p)
    /// pruning rule of Section IV-A.
    pub fn sides(&self) -> [Segment; 4] {
        let c = self.corners();
        [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ]
    }

    /// The MBR of a non-empty set of points; `None` for an empty slice.
    pub fn bounding(points: &[Point]) -> Option<Rect> {
        let mut it = points.iter();
        let first = it.next()?;
        let mut r = Rect::from_point(*first);
        for p in it {
            r = r.union_point(*p);
        }
        Some(r)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} - {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn new_normalises_corners() {
        let rect = Rect::new(Point::new(5.0, 1.0), Point::new(2.0, 7.0));
        assert_eq!(rect.lo, Point::new(2.0, 1.0));
        assert_eq!(rect.hi, Point::new(5.0, 7.0));
    }

    #[test]
    fn area() {
        let rect = r(0.0, 0.0, 4.0, 3.0);
        assert_eq!(rect.area(), 12.0);
        assert_eq!(Rect::from_point(Point::new(1.0, 1.0)).area(), 0.0);
    }

    #[test]
    fn empty_rect_behaves_as_identity() {
        let e = Rect::empty();
        let a = r(1.0, 1.0, 2.0, 2.0);
        assert!(e.is_empty());
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
        assert!(!e.intersects(&a));
        assert_eq!(e.area(), 0.0);
    }

    #[test]
    fn union_contains_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(5.0, -2.0, 6.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -2.0, 6.0, 1.0));
    }

    #[test]
    fn intersection_tests() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        let c = r(5.0, 5.0, 7.0, 7.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b), Some(r(2.0, 2.0, 4.0, 4.0)));
        assert_eq!(a.intersection(&c), None);
        // Touching boundaries intersect.
        let d = r(4.0, 0.0, 5.0, 4.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn mindist_point_inside_is_zero() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        assert_eq!(a.mindist_point(&Point::new(2.0, 2.0)), 0.0);
        assert_eq!(a.mindist_point(&Point::new(4.0, 4.0)), 0.0);
    }

    #[test]
    fn mindist_point_outside() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        // Directly right of the rectangle.
        assert!((a.mindist_point(&Point::new(7.0, 2.0)) - 3.0).abs() < 1e-12);
        // Diagonal from the corner.
        assert!((a.mindist_point(&Point::new(7.0, 8.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mindist_is_lower_bound_of_contained_point_distance() {
        let a = r(10.0, 10.0, 20.0, 30.0);
        let q = Point::new(0.0, 0.0);
        for p in [
            Point::new(10.0, 10.0),
            Point::new(15.0, 25.0),
            Point::new(20.0, 30.0),
        ] {
            assert!(a.mindist_point(&q) <= q.dist(&p) + 1e-12);
            assert!(a.maxdist_point(&q) >= q.dist(&p) - 1e-12);
        }
    }

    #[test]
    fn mindist_rect_disjoint_and_overlapping() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        assert!((a.mindist_rect(&b) - 5.0).abs() < 1e-12);
        let c = r(0.5, 0.5, 2.0, 2.0);
        assert_eq!(a.mindist_rect(&c), 0.0);
    }

    #[test]
    fn corners_and_sides_are_consistent() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let corners = a.corners();
        assert_eq!(corners[0], Point::new(0.0, 0.0));
        assert_eq!(corners[2], Point::new(2.0, 1.0));
        let sides = a.sides();
        assert_eq!(sides.len(), 4);
        // Each side endpoint must be a corner of the rectangle.
        for s in &sides {
            assert!(a.contains_point(&s.a));
            assert!(a.contains_point(&s.b));
        }
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let b = Rect::bounding(&pts).unwrap();
        assert_eq!(b, r(-2.0, -1.0, 4.0, 5.0));
        assert!(Rect::bounding(&[]).is_none());
    }

    #[test]
    fn domain_constant_matches_paper() {
        assert_eq!(Rect::DOMAIN.lo, Point::new(0.0, 0.0));
        assert_eq!(Rect::DOMAIN.hi, Point::new(10000.0, 10000.0));
    }
}
