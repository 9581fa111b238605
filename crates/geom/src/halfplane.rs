//! Halfplanes, in particular perpendicular-bisector halfplanes.
//!
//! Equation (1) of the paper defines the halfplane `⊥p(p, q)` as the set of
//! locations at least as close to `p` as to `q`. Voronoi cells (Eq. 2) are
//! intersections of such halfplanes, computed here by clipping a convex
//! polygon with [`HalfPlane`]s.

use crate::point::Point;
use crate::EPS;

/// A closed halfplane `{ a | normal · a <= offset }`.
///
/// The *inside* of the halfplane is where the linear functional is at most
/// `offset`; [`HalfPlane::signed_slack`] is positive strictly inside,
/// negative strictly outside and ~0 on the boundary line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    /// Normal vector pointing towards the *excluded* side.
    pub normal: Point,
    /// Offset of the boundary line along the normal.
    pub offset: f64,
}

impl HalfPlane {
    /// Constructs the halfplane `{ a | normal · a <= offset }` directly.
    #[inline]
    pub const fn new(normal: Point, offset: f64) -> Self {
        HalfPlane { normal, offset }
    }

    /// The perpendicular-bisector halfplane `⊥p(p, q)`: all locations closer
    /// to (or equidistant from) `p` than `q` (Eq. 1 of the paper).
    ///
    /// # Panics
    ///
    /// Does not panic, but if `p == q` the resulting halfplane degenerates to
    /// the whole plane (zero normal), which never refines a cell — matching
    /// the paper's convention that a point does not constrain itself.
    #[inline]
    pub fn bisector(p: &Point, q: &Point) -> Self {
        // dist(a, p) <= dist(a, q)
        //   <=>  -2 a·p + |p|^2 <= -2 a·q + |q|^2
        //   <=>  a·(q - p) <= (|q|^2 - |p|^2) / 2
        let normal = *q - *p;
        let offset = (q.norm_sq() - p.norm_sq()) * 0.5;
        HalfPlane { normal, offset }
    }

    /// Signed slack of a point: `offset - normal · a`.
    ///
    /// Positive inside the halfplane, negative outside, ~0 on the boundary.
    #[inline]
    pub fn signed_slack(&self, a: &Point) -> f64 {
        self.offset - self.normal.dot(a)
    }

    /// Whether the point lies inside the (closed) halfplane, with a small
    /// tolerance so that boundary points are included.
    #[inline]
    pub fn contains(&self, a: &Point) -> bool {
        self.signed_slack(a) >= -EPS * (1.0 + self.normal.norm())
    }

    /// Whether this halfplane is degenerate (zero normal), i.e. covers the
    /// whole plane and can never refine a Voronoi cell.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.normal.norm_sq() <= f64::EPSILON
    }

    /// Intersection parameter of the boundary line with the segment `a..b`,
    /// i.e. the `t ∈ ℝ` with `slack(a + t (b - a)) = 0`, or `None` when the
    /// segment is parallel to the boundary.
    pub(crate) fn boundary_param(&self, a: &Point, b: &Point) -> Option<f64> {
        let sa = self.signed_slack(a);
        let sb = self.signed_slack(b);
        let denom = sa - sb;
        if denom.abs() <= f64::EPSILON {
            None
        } else {
            Some(sa / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisector_separates_the_two_points() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(10.0, 0.0);
        let hp = HalfPlane::bisector(&p, &q);
        assert!(hp.contains(&p));
        assert!(!hp.contains(&q));
        // The midpoint lies exactly on the boundary.
        let m = p.midpoint(&q);
        assert!(hp.signed_slack(&m).abs() < 1e-9);
        assert!(hp.contains(&m));
    }

    #[test]
    fn bisector_matches_distance_predicate() {
        let p = Point::new(3.0, -2.0);
        let q = Point::new(-1.0, 7.5);
        let hp = HalfPlane::bisector(&p, &q);
        let samples = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(-4.0, 9.0),
            Point::new(3.0, -2.0),
            Point::new(1.0, 2.75),
        ];
        for a in samples {
            let closer_to_p = a.dist(&p) <= a.dist(&q) + 1e-9;
            assert_eq!(
                hp.contains(&a),
                closer_to_p,
                "disagreement at {a} (dp={}, dq={})",
                a.dist(&p),
                a.dist(&q)
            );
        }
    }

    #[test]
    fn degenerate_bisector_of_identical_points() {
        let p = Point::new(1.0, 1.0);
        let hp = HalfPlane::bisector(&p, &p);
        assert!(hp.is_degenerate());
        assert!(hp.contains(&Point::new(100.0, -50.0)));
    }

    #[test]
    fn boundary_param_finds_crossing() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(4.0, 0.0);
        let hp = HalfPlane::bisector(&p, &q);
        // Segment from (0,1) to (4,1) crosses the bisector x=2 at t=0.5.
        let t = hp
            .boundary_param(&Point::new(0.0, 1.0), &Point::new(4.0, 1.0))
            .unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        // Parallel segment yields None.
        assert!(hp
            .boundary_param(&Point::new(2.0, 0.0), &Point::new(2.0, 5.0))
            .is_none());
    }

    #[test]
    fn contains_is_tolerant_near_boundary() {
        let hp = HalfPlane::new(Point::new(1.0, 0.0), 5.0);
        assert!(hp.contains(&Point::new(5.0, 3.0)));
        assert!(hp.contains(&Point::new(5.0 + 1e-9, 3.0)));
        assert!(!hp.contains(&Point::new(5.1, 3.0)));
    }
}
