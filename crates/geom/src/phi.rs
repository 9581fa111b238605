//! The Φ(L, p) pruning region of Section IV-A.
//!
//! Given a line segment `L` (a side of a non-leaf R-tree entry's MBR) and a
//! data point `p`, Eq. (3) of the paper defines
//!
//! ```text
//! Φ(L, p) = { b | dist(p, b) <= mindist(L, b) }
//! ```
//!
//! i.e. the set of locations at least as close to `p` as to *any* location
//! on `L`. The paper describes Φ's boundary as a piecewise curve (two
//! perpendicular-bisector pieces and one parabolic piece) so that membership
//! can be decided in constant time; the direct formulation used here —
//! comparing `dist(p, b)` with the point-to-segment distance — is the same
//! constant-time predicate without the case analysis.
//!
//! Lemma 3: if every vertex of a convex polygon `T` lies in Φ(L, p), then all
//! of `T` does (both sets are convex). The CIJ ConditionalFilter uses this to
//! prune a non-leaf entry `e`: if some candidate `p` exists with `T ⊆ Φ(L, p)`
//! for *every* side `L` of `e`, then no point inside `e` can have a Voronoi
//! cell intersecting `T`.

use crate::point::Point;
use crate::polygon::ConvexPolygon;
use crate::segment::Segment;

/// Whether location `b` lies in Φ(L, p) with room to spare: strictly closer
/// to `p` than to every location of the segment `L`, by more than `margin`
/// in squared-distance units. Pruning on Φ discards, so "on the boundary"
/// is outside (crate docs, "Tolerance policy"); `margin` is the decision's
/// [`sq_margin`](crate::tolerance::sq_margin), computed once per entry by
/// the caller.
#[inline]
pub fn phi_contains_point(l: &Segment, p: &Point, b: &Point, margin: f64) -> bool {
    b.dist_sq(p) < l.mindist_point_sq(b) - margin
}

/// Lemma 3: whether the convex polygon `t` lies entirely within Φ(L, p),
/// every vertex by more than `margin` ([`phi_contains_point`]).
///
/// Returns `false` for an empty polygon (an empty region cannot certify a
/// prune — the caller should never reach this case, but being conservative
/// here can only cost extra work, never correctness).
pub fn polygon_within_phi(l: &Segment, p: &Point, t: &ConvexPolygon, margin: f64) -> bool {
    if t.is_empty() {
        return false;
    }
    t.vertices()
        .iter()
        .all(|v| phi_contains_point(l, p, v, margin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;
    use crate::tolerance::{self, rect_magnitude};

    /// The full non-leaf pruning rule of Section IV-A: whether `t` falls
    /// within Φ(L, p) for every side `L` of the entry `e`, under the margin
    /// of their magnitude — the rule the conditional filter tabulates.
    fn rect_within_phi_all_sides(e: &Rect, p: &Point, t: &ConvexPolygon) -> bool {
        let m = rect_magnitude(&e.union(&t.bbox()));
        let margin = tolerance::sq_margin(m * m);
        e.sides()
            .iter()
            .all(|l| polygon_within_phi(l, p, t, margin))
    }

    /// The margin of operands of magnitude 10: `sq_margin(10²)`.
    const MARGIN: f64 = tolerance::TAU * 100.0;

    #[test]
    fn phi_contains_points_near_p_and_far_from_l() {
        let l = Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 10.0));
        let p = Point::new(0.0, 5.0);
        // Points close to p and far from L are inside Φ.
        assert!(phi_contains_point(&l, &p, &p, MARGIN));
        assert!(phi_contains_point(&l, &p, &Point::new(1.0, 5.0), MARGIN));
        // The midpoint between p and L is on the boundary: Φ discards, so
        // the boundary is outside.
        assert!(!phi_contains_point(&l, &p, &Point::new(5.0, 5.0), MARGIN));
        assert!(phi_contains_point(
            &l,
            &p,
            &Point::new(5.0 - 1e-9, 5.0),
            MARGIN
        ));
        // Points close to L are outside.
        assert!(!phi_contains_point(&l, &p, &Point::new(9.0, 5.0), MARGIN));
        assert!(!phi_contains_point(&l, &p, &Point::new(10.0, 0.0), MARGIN));
    }

    #[test]
    fn phi_respects_segment_extent_not_just_its_line() {
        // L is a short segment; far beyond its endpoints the region Φ is
        // bounded by the bisector with the nearest endpoint, not the line.
        let l = Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 1.0));
        let p = Point::new(0.0, 0.0);
        // High above the segment: distance to L is dominated by the endpoint
        // (10, 1), so locations near x=10 but high up can still be closer to
        // the endpoint than to p... verify against the definition directly.
        let b = Point::new(4.0, 40.0);
        let expected = b.dist(&p) < l.mindist_point(&b);
        assert_eq!(phi_contains_point(&l, &p, &b, MARGIN), expected);
    }

    #[test]
    fn polygon_within_phi_requires_all_vertices() {
        let l = Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 10.0));
        let p = Point::new(0.0, 5.0);
        let inside = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 4.0, 2.0, 6.0));
        let straddling = ConvexPolygon::from_rect(&Rect::from_coords(3.0, 4.0, 8.0, 6.0));
        assert!(polygon_within_phi(&l, &p, &inside, MARGIN));
        assert!(!polygon_within_phi(&l, &p, &straddling, MARGIN));
        assert!(!polygon_within_phi(&l, &p, &ConvexPolygon::empty(), MARGIN));
    }

    #[test]
    fn rect_pruning_rule_matches_intuition() {
        // Candidate point p sits between the polygon T and the entry e: any
        // point inside e is "shadowed" by p, so e can be pruned.
        let t = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let p = Point::new(3.0, 0.5);
        let far_entry = Rect::from_coords(8.0, 0.0, 9.0, 1.0);
        assert!(rect_within_phi_all_sides(&far_entry, &p, &t));

        // An entry on the opposite side of T is NOT shadowed by p.
        let near_entry = Rect::from_coords(-2.0, 0.0, -1.0, 1.0);
        assert!(!rect_within_phi_all_sides(&near_entry, &p, &t));
    }

    #[test]
    fn pruned_entries_really_cannot_join() {
        // Semantic check of the pruning rule: when the rule fires for entry e
        // and candidate p, no point inside e can have a Voronoi cell (w.r.t.
        // {p, that point}) that intersects T. We verify on a grid of
        // hypothetical points inside e.
        let t = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let p = Point::new(2.5, 0.5);
        let e = Rect::from_coords(6.0, -2.0, 8.0, 3.0);
        assert!(rect_within_phi_all_sides(&e, &p, &t));
        let domain = Rect::from_coords(-10.0, -10.0, 20.0, 20.0);
        for i in 0..5 {
            for j in 0..5 {
                let x = e.lo.x + e.width() * (i as f64) / 4.0;
                let y = e.lo.y + e.height() * (j as f64) / 4.0;
                let candidate = Point::new(x, y);
                // Voronoi cell of `candidate` within {candidate, p}.
                let cell = ConvexPolygon::from_rect(&domain).clip_bisector(&candidate, &p);
                assert!(
                    !cell.intersects(&t),
                    "point {candidate} inside pruned entry joins with T"
                );
            }
        }
    }
}
