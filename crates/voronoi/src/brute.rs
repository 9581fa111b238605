//! Brute-force Voronoi computations, used as correctness oracles.
//!
//! Equation (2) of the paper: the Voronoi cell of `pi` is the intersection of
//! the halfplanes `⊥pi(pi, pj)` over every other point `pj`. The functions
//! here apply that definition literally (O(n) per cell, O(n²) per diagram),
//! which is far too slow for the experiments but right for checking the
//! R-tree based algorithms' traversals on small inputs.
//!
//! They clip with the product's own `cij_geom` kernels under the same
//! tolerance policy, so they cannot catch a fault in those kernels. The
//! truth on lattice inputs is the integer oracle of `tests/exact_oracle.rs`,
//! which shares no arithmetic with them.

use cij_geom::{ConvexPolygon, Point, Rect};

/// Computes the exact Voronoi cell of `points[i]` within `points`, clipped to
/// `domain`, by intersecting all bisector halfplanes (Eq. 2).
pub fn brute_force_cell(points: &[Point], i: usize, domain: &Rect) -> ConvexPolygon {
    let pi = points[i];
    let mut cell = ConvexPolygon::from_rect(domain);
    for (j, pj) in points.iter().enumerate() {
        if j == i {
            continue;
        }
        cell = cell.clip_bisector(&pi, pj);
        if cell.is_empty() {
            break;
        }
    }
    cell
}

/// Computes the whole Voronoi diagram by brute force: one cell per input
/// point, in input order.
pub fn brute_force_diagram(points: &[Point], domain: &Rect) -> Vec<ConvexPolygon> {
    (0..points.len())
        .map(|i| brute_force_cell(points, i, domain))
        .collect()
}

/// Finds the index of the nearest point of `points` to `q` (ties broken by
/// index). Returns `None` for an empty slice.
pub fn nearest_index(points: &[Point], q: &Point) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.dist_sq(q).partial_cmp(&b.dist_sq(q)).unwrap())
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    #[test]
    fn single_point_owns_the_whole_domain() {
        let pts = vec![Point::new(5_000.0, 5_000.0)];
        let cell = brute_force_cell(&pts, 0, &Rect::DOMAIN);
        assert!((cell.area() - Rect::DOMAIN.area()).abs() < 1e-3);
    }

    #[test]
    fn two_points_split_the_domain_in_half() {
        let pts = vec![Point::new(2_500.0, 5_000.0), Point::new(7_500.0, 5_000.0)];
        let c0 = brute_force_cell(&pts, 0, &Rect::DOMAIN);
        let c1 = brute_force_cell(&pts, 1, &Rect::DOMAIN);
        assert!((c0.area() - Rect::DOMAIN.area() / 2.0).abs() < 1e-3);
        assert!((c1.area() - Rect::DOMAIN.area() / 2.0).abs() < 1e-3);
    }

    #[test]
    fn cells_contain_their_sites_and_tile_the_domain() {
        let pts = random_points(60, 11);
        let cells = brute_force_diagram(&pts, &Rect::DOMAIN);
        let mut total_area = 0.0;
        for (p, cell) in pts.iter().zip(&cells) {
            assert!(cell.contains_point(p), "cell must contain its site");
            total_area += cell.area();
        }
        // Voronoi cells partition the domain (boundaries overlap only on
        // measure-zero sets), so the areas must sum to the domain area.
        assert!(
            (total_area - Rect::DOMAIN.area()).abs() / Rect::DOMAIN.area() < 1e-6,
            "areas sum to {total_area}"
        );
    }

    #[test]
    fn any_location_falls_in_the_cell_of_its_nearest_site() {
        let pts = random_points(40, 3);
        let cells = brute_force_diagram(&pts, &Rect::DOMAIN);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let q = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
            let nn = nearest_index(&pts, &q).unwrap();
            assert!(
                cells[nn].contains_point(&q),
                "location {q} not inside the cell of its nearest site"
            );
        }
    }

    #[test]
    fn neighbouring_cells_touch_but_do_not_overlap_interiors() {
        let pts = random_points(25, 8);
        let cells = brute_force_diagram(&pts, &Rect::DOMAIN);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if cells[i].intersects(&cells[j]) {
                    // The shared region must have (near) zero area: sample the
                    // midpoint of the two sites only when they are Voronoi
                    // neighbours and check that interiors don't overlap by
                    // testing that each site is excluded from the other cell.
                    assert!(!cells[j].contains_point(&pts[i]) || pts[i].dist(&pts[j]) < 1e-9);
                    assert!(!cells[i].contains_point(&pts[j]) || pts[i].dist(&pts[j]) < 1e-9);
                }
            }
        }
    }

    #[test]
    fn nearest_index_on_empty_slice_is_none() {
        assert!(nearest_index(&[], &Point::new(0.0, 0.0)).is_none());
    }
}
