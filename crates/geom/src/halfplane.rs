//! Halfplanes, in particular perpendicular-bisector halfplanes.
//!
//! Equation (1) of the paper defines the halfplane `⊥p(p, q)` as the set of
//! locations at least as close to `p` as to `q`. Voronoi cells (Eq. 2) are
//! intersections of such halfplanes, computed here by clipping a convex
//! polygon with [`HalfPlane`]s.

use crate::point::Point;
use crate::tolerance::{self, magnitude};

/// A closed halfplane `{ a | normal · a <= offset }`.
///
/// The *inside* of the halfplane is where the linear functional is at most
/// `offset`; [`HalfPlane::signed_slack`] is positive strictly inside,
/// negative strictly outside and ~0 on the boundary line. Each halfplane
/// carries the threshold of its sidedness decisions, computed once at
/// construction from the magnitude of the points that define it
/// ([`tolerance::slack`]); [`HalfPlane::contains`] is the one sidedness
/// test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    /// Normal vector pointing towards the *excluded* side.
    pub normal: Point,
    /// Offset of the boundary line along the normal.
    pub offset: f64,
    /// How far below zero a slack may fall and still count as inside.
    pub(crate) tolerance: f64,
}

impl HalfPlane {
    /// The halfplane left of the directed edge `a → b` — the interior side
    /// of a counter-clockwise polygon's edge:
    /// `cross(b − a, x − a) >= 0`.
    #[inline]
    pub fn edge(a: &Point, b: &Point) -> Self {
        let d = *b - *a;
        let normal = Point::new(d.y, -d.x);
        HalfPlane {
            normal,
            offset: d.y * a.x - d.x * a.y,
            tolerance: tolerance::slack(&normal, magnitude(a).max(magnitude(b))),
        }
    }

    /// The perpendicular-bisector halfplane `⊥p(p, q)`: all locations closer
    /// to (or equidistant from) `p` than `q` (Eq. 1 of the paper).
    ///
    /// If `p == q` the halfplane degenerates to the whole plane (zero
    /// normal), which never refines a cell — the paper's convention that a
    /// point does not constrain itself.
    #[inline]
    pub fn bisector(p: &Point, q: &Point) -> Self {
        // dist(a, p) <= dist(a, q)
        //   <=>  -2 a·p + |p|^2 <= -2 a·q + |q|^2
        //   <=>  a·(q - p) <= (|q|^2 - |p|^2) / 2
        let normal = *q - *p;
        HalfPlane {
            normal,
            offset: (q.norm_sq() - p.norm_sq()) * 0.5,
            tolerance: tolerance::slack(&normal, magnitude(p).max(magnitude(q))),
        }
    }

    /// Signed slack of a point: `offset - normal · a`.
    ///
    /// Positive inside the halfplane, negative outside, ~0 on the boundary.
    #[inline]
    pub fn signed_slack(&self, a: &Point) -> f64 {
        self.offset - self.normal.dot(a)
    }

    /// Whether the point lies inside the closed halfplane: its slack is no
    /// further below zero than the halfplane's threshold, so a point on the
    /// boundary line is inside.
    #[inline]
    pub fn contains(&self, a: &Point) -> bool {
        self.signed_slack(a) >= -self.tolerance
    }

    /// Whether the point lies on the boundary line: its slack is within the
    /// halfplane's threshold on either side.
    #[inline]
    pub fn on_boundary(&self, a: &Point) -> bool {
        self.signed_slack(a).abs() <= self.tolerance
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

    /// The bisector of a site with itself keeps every point, so it cuts
    /// nothing — what the filter's "a degenerate bisector cuts nothing"
    /// rests on.
    #[test]
    fn degenerate_bisector_of_identical_points() {
        let p = Point::new(1.0, 1.0);
        let hp = HalfPlane::bisector(&p, &p);
        assert!(hp.contains(&Point::new(100.0, -50.0)));
    }

    /// The line `x = 5`, kept side `x <= 5`: a point a few `τ` past it is
    /// inside, a point a hundred `τ` past it is not — at every scale.
    #[test]
    fn contains_is_tolerant_near_boundary_at_every_scale() {
        for k in [-40, 0, 30] {
            let s = 2f64.powi(k);
            let hp = HalfPlane::edge(&Point::new(5.0 * s, 0.0), &Point::new(5.0 * s, 6.0 * s));
            assert!(hp.contains(&Point::new(5.0 * s, 3.0 * s)));
            assert!(hp.contains(&Point::new((5.0 + 3e-11) * s, 3.0 * s)));
            assert!(!hp.contains(&Point::new((5.0 + 1e-9) * s, 3.0 * s)));
        }
    }
}
