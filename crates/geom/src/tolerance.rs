//! The one tolerance policy behind every geometric decision (crate docs,
//! "Tolerance policy", state the rule, the direction and the contract).
//!
//! Every yes/no question the join asks of its geometry compares a rounded
//! quantity with zero, so it needs a threshold; this module owns all of
//! them. A threshold is [`TAU`] times the magnitude of the operands
//! ([`magnitude`], [`rect_magnitude`]) in the units of the quantity: `τ·M`
//! for a distance ([`distance`]), `τ·M·‖n‖₁` for the slack `c − n·x` of a
//! line ([`slack`]), `τ·M²` for a difference of squared distances
//! ([`sq_margin`]). Each is homogeneous of its quantity's degree, so scaling
//! every coordinate by `2^k` — exact in `f64` — scales quantity and
//! threshold alike and leaves every decision bit for bit as it was. Callers
//! compute a threshold once per halfplane, edge or entry and state only the
//! direction: `>= -threshold` to keep, `< -threshold` to discard, and
//! `> +threshold` for strictly inside, where a shortcut skips the keep
//! decision's work ([`ConvexPolygon::strictly_contains_point`]).
//!
//! [`ConvexPolygon::strictly_contains_point`]: crate::ConvexPolygon::strictly_contains_point

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;

/// The relative tolerance `τ` of every geometric decision (module docs).
pub const TAU: f64 = 1e-11;

/// The magnitude of a point: its largest absolute coordinate.
#[inline]
pub fn magnitude(p: &Point) -> f64 {
    p.x.abs().max(p.y.abs())
}

/// The magnitude of a rectangle: the largest absolute coordinate of its
/// corners (infinite for [`Rect::empty`]).
#[inline]
pub fn rect_magnitude(r: &Rect) -> f64 {
    magnitude(&r.lo).max(magnitude(&r.hi))
}

/// The distance below which two locations of magnitude at most `m` are one
/// location: `τ·m`.
#[inline]
pub fn distance(m: f64) -> f64 {
    TAU * m
}

/// The threshold of a line's slack `c − n·x` over operands of magnitude `m`:
/// `τ·m·‖n‖₁`, the distance threshold carried through the normal (the 1-norm
/// needs no square root and is within `√2` of the Euclidean one).
#[inline]
pub fn slack(normal: &Point, m: f64) -> f64 {
    TAU * m * (normal.x.abs() + normal.y.abs())
}

/// The margin of a comparison between squared distances whose operands have
/// squared magnitude `m_sq`: `τ·m_sq`.
#[inline]
pub fn sq_margin(m_sq: f64) -> f64 {
    TAU * m_sq
}

/// `r` grown on every side by its own distance threshold: the box that a
/// tolerant decision about the contents of `r` may still reach. The empty
/// rectangle stays empty.
pub fn widened(r: &Rect) -> Rect {
    if r.is_empty() {
        return *r;
    }
    let pad = distance(rect_magnitude(r));
    Rect {
        lo: Point::new(r.lo.x - pad, r.lo.y - pad),
        hi: Point::new(r.hi.x + pad, r.hi.y + pad),
    }
}

/// Whether `a` and `b` are one location: no coordinate differs by more than
/// the distance threshold of `a` (points that coincide have magnitudes
/// within a factor `1 + τ` of each other, so taking `a`'s moves the
/// threshold by a relative `τ` at most).
#[inline]
pub(crate) fn coincide(a: &Point, b: &Point) -> bool {
    let gap = (a.x - b.x).abs().max((a.y - b.y).abs());
    gap <= distance(magnitude(a))
}

/// Whether `p` lies on the closed segment `s`, within the distance threshold
/// of the three points.
pub(crate) fn on_segment(s: &Segment, p: &Point) -> bool {
    let m = magnitude(&s.a).max(magnitude(&s.b)).max(magnitude(p));
    s.mindist_point(p) <= distance(m)
}

/// Whether the closed segments `a b` and `c d` meet: they cross properly
/// (each one's endpoints strictly on opposite sides of the other's line), or
/// an endpoint of one lies on the other.
pub(crate) fn segments_touch(a: &Point, b: &Point, c: &Point, d: &Point) -> bool {
    let orient = |p: &Point, q: &Point, r: &Point| (*q - *p).cross(&(*r - *p));
    let opposite = |s: f64, t: f64| (s < 0.0 && t > 0.0) || (s > 0.0 && t < 0.0);
    if opposite(orient(c, d, a), orient(c, d, b)) && opposite(orient(a, b, c), orient(a, b, d)) {
        return true;
    }
    let (ab, cd) = (Segment::new(*a, *b), Segment::new(*c, *d));
    on_segment(&cd, a) || on_segment(&cd, b) || on_segment(&ab, c) || on_segment(&ab, d)
}

/// Whether a polygon with twice-signed-area `area2` and bounding box `bbox`
/// is flat: its area is no more than its extent times the distance
/// threshold, so it has no width the policy can tell from a segment.
pub(crate) fn flat(area2: f64, bbox: &Rect) -> bool {
    let extent = bbox.width().max(bbox.height());
    area2.abs() <= 2.0 * distance(rect_magnitude(bbox)) * extent
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every threshold scales with the coordinates: at scale `2^k` each
    /// decision is bit for bit the decision at scale 1.
    #[test]
    fn decisions_repeat_at_every_power_of_two_scale() {
        let (a, near, off) = (
            Point::new(3.0, 7.0),
            Point::new(3.0, 7.0 + 5e-11),
            Point::new(3.0, 7.0 + 1e-9),
        );
        let (c, d, up) = (
            Point::new(0.0, 7.0),
            Point::new(6.0, 7.0),
            Point::new(3.0, 9.0),
        );
        for k in [-40, -20, 0, 20, 40] {
            let s = 2f64.powi(k);
            let at = |p: &Point| *p * s;
            assert!(coincide(&at(&a), &at(&near)), "k = {k}");
            assert!(!coincide(&at(&a), &at(&off)), "k = {k}");
            assert!(segments_touch(&at(&near), &at(&up), &at(&c), &at(&d)));
            assert!(!segments_touch(&at(&off), &at(&up), &at(&c), &at(&d)));
            // Collinear and apart, whatever the signs of the zero orientations.
            let (e, f) = (Point::new(7.0, 7.0), Point::new(9.0, 7.0));
            assert!(!segments_touch(&at(&c), &at(&d), &at(&e), &at(&f)));
            assert!(!segments_touch(&at(&f), &at(&e), &at(&d), &at(&c)));
            let sliver = Rect::new(at(&Point::ORIGIN), at(&Point::new(4.0, 1e-12)));
            let square = Rect::new(at(&Point::ORIGIN), at(&Point::new(4.0, 4.0)));
            assert!(flat(2.0 * sliver.area(), &sliver) && !flat(2.0 * square.area(), &square));
        }
    }

    #[test]
    fn widening_keeps_the_empty_rectangle_empty() {
        assert!(widened(&Rect::empty()).is_empty());
        let r = widened(&Rect::from_coords(0.0, 0.0, 1e4, 1e4));
        assert_eq!((r.lo.x, r.hi.y), (-1e-7, 1e4 + 1e-7));
    }
}
