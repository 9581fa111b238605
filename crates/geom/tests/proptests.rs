//! Property-based tests for the geometry primitives.
//!
//! These exercise the invariants the CIJ algorithms depend on: metric
//! properties of distances, the lower-bounding property of `mindist`, the
//! semantics of bisector halfplanes, monotonicity of polygon clipping and the
//! soundness of the Φ(L, p) predicate.

use cij_geom::{ConvexPolygon, HalfPlane, Point, Rect, Segment};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Coordinates in the paper's normalised domain.
    0.0..10_000.0f64
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), point()).prop_map(|(a, b)| Rect::new(a, b))
}

proptest! {
    #[test]
    fn distance_is_a_metric(a in point(), b in point(), c in point()) {
        // Symmetry.
        prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-9);
        // Identity of indiscernibles (approximately).
        prop_assert!(a.dist(&a) == 0.0);
        // Triangle inequality.
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-6);
    }

    #[test]
    fn mindist_lower_bounds_all_contained_points(r in rect(), q in point(), fx in 0.0..1.0f64, fy in 0.0..1.0f64) {
        // Any point inside the rectangle is at least mindist away from q.
        let p = Point::new(
            r.lo.x + fx * r.width(),
            r.lo.y + fy * r.height(),
        );
        prop_assert!(r.mindist_point(&q) <= q.dist(&p) + 1e-6);
    }

    #[test]
    fn rect_mindist_lower_bounds_point_pairs(r1 in rect(), r2 in rect(),
                                             f in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64)) {
        let p1 = Point::new(r1.lo.x + f.0 * r1.width(), r1.lo.y + f.1 * r1.height());
        let p2 = Point::new(r2.lo.x + f.2 * r2.width(), r2.lo.y + f.3 * r2.height());
        prop_assert!(r1.mindist_rect(&r2) <= p1.dist(&p2) + 1e-6);
    }

    #[test]
    fn union_contains_operands(r1 in rect(), r2 in rect()) {
        let u = r1.union(&r2);
        prop_assert!(u.contains_rect(&r1));
        prop_assert!(u.contains_rect(&r2));
        prop_assert!(u.area() + 1e-9 >= r1.area().max(r2.area()));
    }

    #[test]
    fn bisector_halfplane_matches_distances(p in point(), q in point(), a in point()) {
        prop_assume!(p.dist(&q) > 1e-6);
        let hp = HalfPlane::bisector(&p, &q);
        let closer_to_p = a.dist(&p) <= a.dist(&q);
        // Near the boundary the two predicates may disagree within tolerance;
        // only check clear-cut cases.
        if (a.dist(&p) - a.dist(&q)).abs() > 1e-6 {
            prop_assert_eq!(hp.contains(&a), closer_to_p);
        }
    }

    #[test]
    fn clipping_never_grows_a_polygon(p in point(), q in point()) {
        prop_assume!(p.dist(&q) > 1e-6);
        let domain = ConvexPolygon::from_rect(&Rect::DOMAIN);
        let clipped = domain.clip_bisector(&p, &q);
        prop_assert!(clipped.area() <= domain.area() + 1e-6);
        // The generating point p stays inside its own halfplane's clip
        // whenever it is inside the domain.
        if Rect::DOMAIN.contains_point(&p) {
            prop_assert!(clipped.contains_point(&p));
        }
        // And q must not be strictly inside (it is closer to itself).
        if q.dist(&p) > 1.0 {
            prop_assert!(!clipped.contains_point(&q));
        }
    }

    #[test]
    fn clipped_polygon_stays_within_halfplane(p in point(), q in point(), r in point(), s in point()) {
        prop_assume!(p.dist(&q) > 1e-6 && r.dist(&s) > 1e-6);
        let cell = ConvexPolygon::from_rect(&Rect::DOMAIN)
            .clip_bisector(&p, &q)
            .clip_bisector(&r, &s);
        let hp1 = HalfPlane::bisector(&p, &q);
        let hp2 = HalfPlane::bisector(&r, &s);
        for v in cell.vertices() {
            prop_assert!(hp1.signed_slack(v) >= -1e-3);
            prop_assert!(hp2.signed_slack(v) >= -1e-3);
        }
    }

    #[test]
    fn polygon_intersection_is_symmetric(a1 in point(), a2 in point(), b1 in point(), b2 in point()) {
        let pa = ConvexPolygon::from_rect(&Rect::new(a1, a2));
        let pb = ConvexPolygon::from_rect(&Rect::new(b1, b2));
        prop_assert_eq!(pa.intersects(&pb), pb.intersects(&pa));
        // For axis-aligned boxes the polygon test must agree with the
        // rectangle test.
        prop_assert_eq!(pa.intersects(&pb), Rect::new(a1, a2).intersects(&Rect::new(b1, b2)));
    }

    #[test]
    fn phi_predicate_matches_definition(lx in point(), ly in point(), p in point(), b in point()) {
        let l = Segment::new(lx, ly);
        let inside = cij_geom::phi_contains_point(&l, &p, &b, 0.0);
        let expected = b.dist(&p) < l.mindist_point(&b);
        // Allow tolerance-band disagreement only near the boundary.
        if (b.dist(&p) - l.mindist_point(&b)).abs() > 1e-5 {
            prop_assert_eq!(inside, expected);
        }
    }

    #[test]
    fn centroid_lies_inside_convex_polygon(p1 in point(), p2 in point()) {
        let r = Rect::new(p1, p2);
        prop_assume!(r.area() > 1.0);
        let poly = ConvexPolygon::from_rect(&r);
        let c = poly.centroid().unwrap();
        prop_assert!(poly.contains_point(&c));
        prop_assert!(r.contains_point(&c));
    }
}
