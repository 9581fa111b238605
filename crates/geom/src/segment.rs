//! Line segments and point/segment distances.

use crate::point::Point;

/// A line segment between two endpoints.
///
/// Segments appear in the CIJ algorithms as the sides `L` of non-leaf R-tree
/// MBRs, over which the Φ(L, p) pruning region of Section IV-A is defined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(&self.b)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(&self.b)
    }

    /// The point on the segment closest to `p`.
    ///
    /// For a degenerate segment (both endpoints equal, so an exactly zero
    /// length) this is the endpoint.
    pub fn closest_point(&self, p: &Point) -> Point {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq == 0.0 {
            return self.a;
        }
        let t = ((*p - self.a).dot(&d) / len_sq).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Minimum distance from `p` to any location on the segment
    /// (`mindist(L, b)` in Eq. 3 of the paper).
    #[inline]
    pub fn mindist_point(&self, p: &Point) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// Squared minimum distance from `p` to the segment.
    #[inline]
    pub fn mindist_point_sq(&self, p: &Point) -> f64 {
        self.closest_point(p).dist_sq(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_to_interior_projection() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Projects onto the interior of the segment.
        assert!((s.mindist_point(&Point::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        assert_eq!(s.closest_point(&Point::new(5.0, 3.0)), Point::new(5.0, 0.0));
    }

    #[test]
    fn distance_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Beyond endpoint a.
        assert!((s.mindist_point(&Point::new(-3.0, 4.0)) - 5.0).abs() < 1e-12);
        // Beyond endpoint b.
        assert!((s.mindist_point(&Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_acts_as_point() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert!((s.mindist_point(&Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn point_on_segment_has_zero_distance() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        assert!(s.mindist_point(&Point::new(2.0, 2.0)) < 1e-12);
        assert!(s.mindist_point(&Point::new(0.0, 0.0)) < 1e-12);
        assert!(s.mindist_point(&Point::new(4.0, 4.0)) < 1e-12);
    }

    #[test]
    fn midpoint_and_length() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(6.0, 8.0));
        assert_eq!(s.midpoint(), Point::new(3.0, 4.0));
        assert!((s.length() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mindist_never_exceeds_endpoint_distance() {
        let s = Segment::new(Point::new(-1.0, 7.0), Point::new(3.0, -2.0));
        for p in [
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(-5.0, 3.0),
        ] {
            let d = s.mindist_point(&p);
            assert!(d <= p.dist(&s.a) + 1e-12);
            assert!(d <= p.dist(&s.b) + 1e-12);
        }
    }
}
