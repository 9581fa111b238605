//! Points in the Euclidean plane.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or free vector) in the two-dimensional Euclidean plane.
///
/// `Point` is `Copy` and deliberately tiny (16 bytes) because the CIJ
/// algorithms shuffle millions of points through priority queues and
/// candidate sets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Prefer this over [`Point::dist`] when only comparisons are needed;
    /// it avoids the square root.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Dot product, treating both points as vectors from the origin.
    #[inline]
    pub fn dot(&self, other: &Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product, treating both points as vectors.
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(&self, other: &Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared length of the vector from the origin to this point.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Length of the vector from the origin to this point.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Centroid (arithmetic mean) of a non-empty slice of points.
    ///
    /// Returns `None` for an empty slice. Used by BatchVoronoi (Algorithm 2)
    /// and the BatchConditionalFilter, which order R-tree traversal by
    /// distance from the group centroid.
    pub fn centroid(points: &[Point]) -> Option<Point> {
        Point::centroid_of(points.iter().copied())
    }

    /// [`Point::centroid`] over any sequence of points (the one summation
    /// behind both, so callers holding their points in another shape get
    /// the bitwise-same centroid).
    pub fn centroid_of(points: impl IntoIterator<Item = Point>) -> Option<Point> {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut n = 0usize;
        for p in points {
            sx += p.x;
            sy += p.y;
            n += 1;
        }
        (n > 0).then(|| Point::new(sx / n as f64, sy / n as f64))
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-7.25, 9.0);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(2.0, 8.0);
        let b = Point::new(10.0, -4.0);
        let m = a.midpoint(&b);
        assert!((m.dist(&a) - m.dist(&b)).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_symmetric_square_is_center() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        let c = Point::centroid(&pts).unwrap();
        assert!((c.x - 1.0).abs() < 1e-12);
        assert!((c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_empty_slice_is_none() {
        assert!(Point::centroid(&[]).is_none());
    }

    #[test]
    fn cross_sign_detects_orientation() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert!(a.cross(&b) > 0.0);
        assert!(b.cross(&a) < 0.0);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a + b, Point::new(4.0, 7.0));
        assert_eq!(b - a, Point::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
    }

    #[test]
    fn display_is_compact() {
        let p = Point::new(1.0, 2.5);
        assert_eq!(format!("{p}"), "(1.000, 2.500)");
    }
}
