//! Brute-force CIJ oracle.
//!
//! Computes `CIJ(P, Q)` straight from the definition: build both Voronoi
//! diagrams by halfplane intersection and test every pair of cells for
//! intersection. O(|P|·|Q|) pair tests on top of O(n²) diagram construction —
//! usable only for small inputs.
//!
//! It shares the product's `cij_geom` kernels and tolerance policy, so it
//! checks the joins' traversals and pruning, not their geometry: on lattice
//! inputs the truth is the integer oracle of `tests/exact_oracle.rs`, which
//! holds this function to it too.

use cij_geom::{Point, Rect};
use cij_voronoi::brute_force_diagram;

/// Computes the CIJ result of two pointsets by brute force, returning sorted
/// `(p_index, q_index)` pairs.
pub fn brute_force_cij(p: &[Point], q: &[Point], domain: &Rect) -> Vec<(u64, u64)> {
    let cells_p = brute_force_diagram(p, domain);
    let cells_q = brute_force_diagram(q, domain);
    let mut out = Vec::new();
    for (i, cp) in cells_p.iter().enumerate() {
        for (j, cq) in cells_q.iter().enumerate() {
            if cp.intersects(cq) {
                out.push((i as u64, j as u64));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1a_style_example() {
        // Two small pointsets where every cell of P overlaps at least one
        // cell of Q; the result must be symmetric in the sense that each
        // point appears in at least one pair (footnote 3 of the paper: every
        // point participates in the CIJ).
        let p = vec![
            Point::new(2_000.0, 2_000.0),
            Point::new(8_000.0, 2_000.0),
            Point::new(2_000.0, 8_000.0),
            Point::new(8_000.0, 8_000.0),
        ];
        let q = vec![
            Point::new(5_000.0, 5_000.0),
            Point::new(1_000.0, 5_000.0),
            Point::new(9_000.0, 5_000.0),
        ];
        let pairs = brute_force_cij(&p, &q, &Rect::DOMAIN);
        for i in 0..p.len() as u64 {
            assert!(pairs.iter().any(|&(a, _)| a == i), "p{i} missing from CIJ");
        }
        for j in 0..q.len() as u64 {
            assert!(pairs.iter().any(|&(_, b)| b == j), "q{j} missing from CIJ");
        }
    }

    #[test]
    fn identical_singletons_join() {
        let p = vec![Point::new(5_000.0, 5_000.0)];
        let q = vec![Point::new(1_000.0, 1_000.0)];
        // With one point per set both cells are the whole domain.
        assert_eq!(brute_force_cij(&p, &q, &Rect::DOMAIN), vec![(0, 0)]);
    }

    #[test]
    fn distant_pair_can_join_when_no_other_points_interfere() {
        // Figure 1b of the paper: a pair can join even when the two points
        // are far apart, as long as their influence regions meet.
        // P sits on the left edge: p0 high up, p1 below it, so V(p0, P) is
        // the whole strip y >= 8500. Q sits on the bottom edge: q0 far right,
        // q1 to its left, so V(q0, Q) is the whole strip x >= 8500. The two
        // strips meet in the top-right corner although p0 and q0 are the
        // mutually furthest pair (Figure 1b of the paper).
        let p = vec![Point::new(1_000.0, 9_000.0), Point::new(1_000.0, 8_000.0)];
        let q = vec![Point::new(9_000.0, 1_000.0), Point::new(8_000.0, 1_000.0)];
        let pairs = brute_force_cij(&p, &q, &Rect::DOMAIN);
        assert!(
            pairs.contains(&(0, 0)),
            "distant pair (p0, q0) expected in {pairs:?}"
        );
        // And the distance between p0 and q0 is indeed the largest distance
        // across the two sets.
        let max_dist = p
            .iter()
            .flat_map(|a| q.iter().map(move |b| a.dist(b)))
            .fold(0.0f64, f64::max);
        assert!((p[0].dist(&q[0]) - max_dist).abs() < 1e-9);
    }

    #[test]
    fn every_point_participates() {
        // Random small instance; property from footnote 3.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        let p: Vec<Point> = (0..20)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect();
        let q: Vec<Point> = (0..25)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect();
        let pairs = brute_force_cij(&p, &q, &Rect::DOMAIN);
        for i in 0..p.len() as u64 {
            assert!(pairs.iter().any(|&(a, _)| a == i));
        }
        for j in 0..q.len() as u64 {
            assert!(pairs.iter().any(|&(_, b)| b == j));
        }
        // And the result is far smaller than the Cartesian product.
        assert!(pairs.len() < p.len() * q.len());
    }
}
