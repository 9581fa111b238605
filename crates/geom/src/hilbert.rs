//! Hilbert space-filling curve.
//!
//! Section III-C of the paper orders leaf accesses and bulk-loads the Voronoi
//! R-trees `R'P`/`R'Q` by the Hilbert values of entry centroids, so that
//! consecutively produced Voronoi cells are close in space (as in the Hilbert
//! R-tree of Kamel & Faloutsos). This module provides the `xy2d`/`d2xy`
//! conversion on a `2^order × 2^order` grid plus a helper that maps
//! real-valued points in a domain rectangle onto the curve.
//!
//! Every bulk load computes one key per object, so [`xy_to_hilbert`] is the
//! loaders' inner loop. It is a table-driven kernel rather than the classic
//! bit-at-a-time loop: the loop's state at any level is whether the
//! coordinates are currently **swapped** and whether they are
//! **complemented** (4 states), and one step of a const-built 1 024-entry
//! table (`STEP`) — indexed by that state and the next 4 bits of `x` and of
//! `y` — yields the next 8 bits of the index and the next state. An order
//! that is not a multiple of 4 is padded with leading zero levels, each of
//! which emits digit 0 and toggles the swap, so the kernel starts swapped
//! exactly when the order is odd. No step takes a data-dependent branch.
//! The grid coordinate of [`hilbert_value_with_order`] is rounded half away
//! from zero by truncating and adding one if the remainder is at least one
//! half (`round_half_away`): bit-identical to `f64::round` on every input
//! the key meets, without the libm call `f64::round` is on the baseline
//! x86-64 target.
//!
//! The classic loop survives as a `#[cfg(test)]` reference: the kernel is
//! held to it on every cell of orders 1 to 10, on whole edge rows and
//! columns and a seeded sample at order 16, and — in an `#[ignore]`d
//! release range — on every cell up to order 12 and 10^8 seeded cells at
//! order 16.

use crate::point::Point;
use crate::rect::Rect;

/// Default curve order used by the bulk loader: a `2^16 × 2^16` grid is far
/// finer than the page-level granularity the ordering needs.
pub const DEFAULT_ORDER: u32 = 16;

/// Bits of each coordinate one [`STEP`] consumes.
const STEP_BITS: u32 = 4;

/// The kernel's state machine, 4 levels per step. Entry
/// `state << 8 | x_nibble << 4 | y_nibble`, with `state` = `swapped |
/// complemented << 1`, holds the 8 index bits of those 4 levels in its low
/// byte and the state after them in bits 8–9 — already in place for the
/// next entry's index.
const STEP: [u16; 1 << 10] = step_table();

/// Builds [`STEP`] by running the classic loop's level step on every state
/// and nibble pair: the quadrant of the (possibly swapped and complemented)
/// coordinate bits is the digit `3·rx ^ ry`; the lower-left quadrant swaps,
/// the lower-right one swaps and complements.
const fn step_table() -> [u16; 1 << 10] {
    let mut table = [0u16; 1 << 10];
    let mut entry = 0;
    while entry < table.len() {
        let (mut swapped, mut complemented) = ((entry >> 8) & 1, (entry >> 9) & 1);
        let (x, y) = ((entry >> 4) & 15, entry & 15);
        let mut digits = 0;
        let mut level = STEP_BITS;
        while level > 0 {
            level -= 1;
            let (bx, by) = ((x >> level) & 1, (y >> level) & 1);
            let (rx, ry) = if swapped == 1 {
                (by ^ complemented, bx ^ complemented)
            } else {
                (bx ^ complemented, by ^ complemented)
            };
            digits = (digits << 2) | ((3 * rx) ^ ry);
            if ry == 0 {
                complemented ^= rx;
                swapped ^= 1;
            }
        }
        table[entry] = (((complemented << 1 | swapped) << 8) | digits) as u16;
        entry += 1;
    }
    table
}

/// Converts grid coordinates `(x, y)` on a `2^order` grid (`order ≤ 32`) to
/// the Hilbert curve index (the distance along the curve).
///
/// Coordinates outside the grid are clamped.
pub fn xy_to_hilbert(order: u32, x: u32, y: u32) -> u64 {
    debug_assert!(order <= 32, "a 2^{order} grid overflows the u64 index");
    let max = ((1u64 << order) - 1) as u32;
    let (x, y) = (x.min(max), y.min(max));
    let mut state = ((order & 1) as usize) << 8;
    let mut d: u64 = 0;
    for step in (0..order.div_ceil(STEP_BITS)).rev() {
        let shift = step * STEP_BITS;
        let nibbles = ((((x >> shift) & 15) << 4) | ((y >> shift) & 15)) as usize;
        let entry = STEP[state | nibbles];
        d = (d << (2 * STEP_BITS)) | u64::from(entry & 0xff);
        state = usize::from(entry & 0x300);
    }
    d
}

/// Hilbert value of a real-valued point within a domain rectangle, using the
/// default curve order.
///
/// Points outside the domain are clamped to it. Degenerate domains map every
/// point to 0.
pub fn hilbert_value(p: &Point, domain: &Rect) -> u64 {
    hilbert_value_with_order(p, domain, DEFAULT_ORDER)
}

/// Hilbert value of a real-valued point within a domain rectangle at a given
/// curve order.
pub fn hilbert_value_with_order(p: &Point, domain: &Rect, order: u32) -> u64 {
    let n = (1u64 << order) as f64;
    let w = domain.width();
    let h = domain.height();
    if w <= 0.0 || h <= 0.0 {
        return 0;
    }
    let fx = ((p.x - domain.lo.x) / w).clamp(0.0, 1.0);
    let fy = ((p.y - domain.lo.y) / h).clamp(0.0, 1.0);
    let gx = round_half_away(fx * (n - 1.0));
    let gy = round_half_away(fy * (n - 1.0));
    xy_to_hilbert(order, gx, gy)
}

/// `v.round() as u32` for the non-negative, finite-or-NaN `v ≤ u32::MAX`
/// a grid coordinate is: truncate, then add one if the remainder is at least
/// one half. The remainder `v − ⌊v⌋` is exact below `2^52`, so a tie rounds
/// up (away from zero) and `0.49999999999999994` rounds down, as
/// `f64::round` does; NaN truncates to 0 and its remainder compares false.
fn round_half_away(v: f64) -> u32 {
    let whole = v as i64;
    (whole + i64::from(v - whole as f64 >= 0.5)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestRng;

    /// Converts a Hilbert curve index back to grid coordinates on a `2^order`
    /// grid. Inverse of [`xy_to_hilbert`].
    fn hilbert_to_xy(order: u32, d: u64) -> (u32, u32) {
        let n: u64 = 1 << order;
        let mut rx: u64;
        let mut ry: u64;
        let mut x: u64 = 0;
        let mut y: u64 = 0;
        let mut t = d;
        let mut s: u64 = 1;
        while s < n {
            rx = 1 & (t / 2);
            ry = 1 & (t ^ rx);
            // Rotate back.
            if ry == 0 {
                if rx == 1 {
                    x = s - 1 - x;
                    y = s - 1 - y;
                }
                std::mem::swap(&mut x, &mut y);
            }
            x += s * rx;
            y += s * ry;
            t /= 4;
            s *= 2;
        }
        (x as u32, y as u32)
    }

    /// The classic bit-at-a-time `xy2d` loop the kernel replaced, with its
    /// reflection over the full grid: the reference [`xy_to_hilbert`] is
    /// held to.
    fn xy_to_hilbert_reference(order: u32, x: u32, y: u32) -> u64 {
        let n: u64 = 1 << order;
        let mut rx: u64;
        let mut ry: u64;
        let mut d: u64 = 0;
        let max = (n - 1) as u32;
        let mut x = u64::from(x.min(max));
        let mut y = u64::from(y.min(max));
        let mut s: u64 = n / 2;
        while s > 0 {
            rx = u64::from(x & s > 0);
            ry = u64::from(y & s > 0);
            d += s * s * ((3 * rx) ^ ry);
            // Rotate the quadrant (reflection is over the full grid size).
            if ry == 0 {
                if rx == 1 {
                    x = (n - 1) - x;
                    y = (n - 1) - y;
                }
                std::mem::swap(&mut x, &mut y);
            }
            s /= 2;
        }
        d
    }

    fn assert_kernel_is_the_loop(order: u32, x: u32, y: u32) {
        assert_eq!(
            xy_to_hilbert(order, x, y),
            xy_to_hilbert_reference(order, x, y),
            "order {order}, cell ({x}, {y})"
        );
    }

    /// Every cell of every order up to `max_order`.
    fn every_cell_up_to(max_order: u32) {
        for order in 0..=max_order {
            let n = 1u32 << order;
            for x in 0..n {
                for y in 0..n {
                    assert_kernel_is_the_loop(order, x, y);
                }
            }
        }
    }

    /// `cells` seeded cells at `order`; one draw in eight is an arbitrary
    /// `u32` pair, which the grid clamps.
    fn seeded_cells(order: u32, cells: u64, seed: u64) {
        let mut rng = TestRng(seed);
        let mask = ((1u64 << order) - 1) as u32;
        for _ in 0..cells {
            let bits = rng.next();
            let (x, y) = (bits as u32, (bits >> 32) as u32);
            if bits.is_multiple_of(8) {
                assert_kernel_is_the_loop(order, x, y);
            } else {
                assert_kernel_is_the_loop(order, x & mask, y & mask);
            }
        }
    }

    #[test]
    fn the_kernel_equals_the_loop_on_every_cell_up_to_order_10() {
        every_cell_up_to(10);
    }

    #[test]
    fn the_kernel_equals_the_loop_on_the_edges_and_a_sample_at_order_16() {
        let max = (1u32 << 16) - 1;
        for i in 0..=max {
            for (x, y) in [(i, 0), (i, max), (0, i), (max, i)] {
                assert_kernel_is_the_loop(16, x, y);
            }
        }
        seeded_cells(16, 200_000, 16);
        // Every other order, odd ones included (they start swapped), up to
        // the widest grid a u32 coordinate spans.
        for order in 11..=32 {
            seeded_cells(order, 2_000, u64::from(order));
        }
    }

    /// The release stress range: every cell up to order 12 and 10^8 seeded
    /// cells at order 16 (`cargo test --release -p cij-geom --lib
    /// the_kernel_equals_the_loop_on_every_cell_up_to_order_12_and_1e8_cells_at_order_16
    /// -- --ignored`).
    #[test]
    #[ignore = "release stress range, a CI step of its own"]
    fn the_kernel_equals_the_loop_on_every_cell_up_to_order_12_and_1e8_cells_at_order_16() {
        every_cell_up_to(12);
        seeded_cells(16, 100_000_000, 1_600);
    }

    #[test]
    fn round_half_away_is_f64_round_on_grid_coordinates() {
        let mut inputs = vec![
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            65_534.5,
            65_535.0,
            f64::NAN,
            f64::from(u32::MAX),
        ];
        inputs.extend((0..65_535u32).map(|k| f64::from(k) + 0.5));
        // Neighbours of every tie and of every integer, a few ulps away.
        for k in [0u32, 1, 2, 3, 1_000, 32_767, 65_534, 65_535] {
            for v in [f64::from(k), f64::from(k) + 0.5] {
                let (mut below, mut above) = (v, v);
                for _ in 0..4 {
                    below = f64::from_bits(below.to_bits().saturating_sub(1)).max(0.0);
                    above = f64::from_bits(above.to_bits() + 1);
                    inputs.extend([below, above]);
                }
            }
        }
        let mut rng = TestRng(7);
        inputs.extend((0..100_000).map(|_| rng.unit() * 65_535.0));
        for v in inputs {
            assert_eq!(round_half_away(v), v.round() as u32, "{v:e}");
        }
    }

    #[test]
    fn roundtrip_every_cell_up_to_order_10() {
        for order in 0..=10 {
            let n = 1u32 << order;
            for x in 0..n {
                for y in 0..n {
                    let d = xy_to_hilbert(order, x, y);
                    let (rx, ry) = hilbert_to_xy(order, d);
                    assert_eq!((x, y), (rx, ry), "order {order}: ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn curve_is_a_bijection_on_the_grid() {
        let order = 4;
        let n = 1u64 << order;
        let mut seen = vec![false; (n * n) as usize];
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                let d = xy_to_hilbert(order, x, y) as usize;
                assert!(!seen[d], "duplicate Hilbert index {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_indices_are_grid_neighbors() {
        // The defining locality property of the Hilbert curve: cells with
        // consecutive indices are adjacent on the grid.
        let order = 5;
        let n = 1u64 << order;
        for d in 0..(n * n - 1) {
            let (x0, y0) = hilbert_to_xy(order, d);
            let (x1, y1) = hilbert_to_xy(order, d + 1);
            let manhattan =
                (i64::from(x0) - i64::from(x1)).abs() + (i64::from(y0) - i64::from(y1)).abs();
            assert_eq!(manhattan, 1, "indices {d} and {} not adjacent", d + 1);
        }
    }

    #[test]
    fn real_valued_points_clamp_to_domain() {
        let domain = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let inside = hilbert_value(&Point::new(50.0, 50.0), &domain);
        let clamped = hilbert_value(&Point::new(-10.0, 50.0), &domain);
        let edge = hilbert_value(&Point::new(0.0, 50.0), &domain);
        assert_eq!(clamped, edge);
        assert_ne!(inside, clamped);
    }

    #[test]
    fn nearby_points_tend_to_have_nearby_values() {
        // Not a strict guarantee for arbitrary pairs, but the curve must map
        // identical points to identical values and keep a tight cluster's
        // values far from a distant cluster's values on average.
        let domain = Rect::DOMAIN;
        let a = hilbert_value(&Point::new(10.0, 10.0), &domain);
        let a2 = hilbert_value(&Point::new(10.0, 10.0), &domain);
        assert_eq!(a, a2);
        let near = hilbert_value(&Point::new(11.0, 10.5), &domain);
        let far = hilbert_value(&Point::new(9990.0, 9990.0), &domain);
        let near_gap = a.abs_diff(near);
        let far_gap = a.abs_diff(far);
        assert!(near_gap < far_gap);
    }

    #[test]
    fn degenerate_domain_maps_to_zero() {
        let domain = Rect::from_point(Point::new(5.0, 5.0));
        assert_eq!(hilbert_value(&Point::new(5.0, 5.0), &domain), 0);
        assert_eq!(hilbert_value(&Point::new(7.0, 1.0), &domain), 0);
    }
}
