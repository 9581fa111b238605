//! # cij-datagen
//!
//! Workload generators for the CIJ reproduction.
//!
//! The paper evaluates on (i) **uniform synthetic datasets** ("generated by
//! assigning random locations to points") and (ii) **five real datasets of
//! geographical features** from the U.S. Board on Geographic Names (Table I:
//! PP, SC, CE, LO, PA), all normalised to the domain `[0, 10000]²`.
//!
//! The real files are not redistributable here, so this crate provides
//! *synthetic stand-ins* ([`real_like`]) that reproduce the properties the
//! CIJ algorithms are sensitive to — cardinality and spatial skew (cluster
//! structure) — as documented in DESIGN.md. Uniform and generic clustered /
//! skewed generators are also provided for the synthetic experiments and for
//! tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod clustered;
pub mod real_like;
pub mod uniform;

pub use clustered::{clustered_points, ClusterSpec};
pub use real_like::{RealDataset, ALL_REAL_DATASETS};
pub use uniform::uniform_points;

use cij_geom::{Point, Rect};

/// Clamps every point into the domain (guards against Gaussian tails).
pub fn clamp_to_domain(points: &mut [Point], domain: &Rect) {
    for p in points.iter_mut() {
        p.x = p.x.clamp(domain.lo.x, domain.hi.x);
        p.y = p.y.clamp(domain.lo.y, domain.hi.y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_keeps_points_inside() {
        let domain = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut pts = vec![Point::new(-5.0, 3.0), Point::new(4.0, 20.0)];
        clamp_to_domain(&mut pts, &domain);
        for p in &pts {
            assert!(domain.contains_point(p));
        }
    }
}
