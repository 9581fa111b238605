//! Synthetic stand-ins for the paper's real USGS datasets (Table I).
//!
//! The paper uses five pointsets of geographical features from the U.S.
//! Board on Geographic Names. The raw files are not bundled with this
//! reproduction, so each dataset is replaced by a clustered synthetic
//! generator whose **cardinality matches Table I exactly** and whose skew
//! parameters differ per dataset (populated places are far more clustered
//! than parks, etc.). DESIGN.md discusses why this substitution preserves
//! the behaviour the experiments measure.

use crate::clustered::{clustered_points, ClusterSpec};
use cij_geom::{Point, Rect};

/// One of the five real datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RealDataset {
    /// Populated Places (177,983 points).
    PP,
    /// Schools (172,188 points).
    SC,
    /// Cemeteries (124,336 points).
    CE,
    /// Locales (128,476 points).
    LO,
    /// Parks (58,312 points).
    PA,
}

/// All five datasets, in the order of Table I.
pub const ALL_REAL_DATASETS: [RealDataset; 5] = [
    RealDataset::PP,
    RealDataset::SC,
    RealDataset::CE,
    RealDataset::LO,
    RealDataset::PA,
];

impl RealDataset {
    /// Two-letter name used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            RealDataset::PP => "PP",
            RealDataset::SC => "SC",
            RealDataset::CE => "CE",
            RealDataset::LO => "LO",
            RealDataset::PA => "PA",
        }
    }

    /// Human-readable contents description from Table I.
    pub fn description(&self) -> &'static str {
        match self {
            RealDataset::PP => "Populated Places",
            RealDataset::SC => "Schools",
            RealDataset::CE => "Cemeteries",
            RealDataset::LO => "Locales",
            RealDataset::PA => "Parks",
        }
    }

    /// Cardinality from Table I of the paper.
    pub fn cardinality(&self) -> usize {
        match self {
            RealDataset::PP => 177_983,
            RealDataset::SC => 172_188,
            RealDataset::CE => 124_336,
            RealDataset::LO => 128_476,
            RealDataset::PA => 58_312,
        }
    }

    /// Generator parameters emulating the dataset's spatial skew.
    fn spec(&self, n: usize) -> ClusterSpec {
        match self {
            // Populated places: strongly clustered around metro areas.
            RealDataset::PP => ClusterSpec {
                n,
                clusters: 400,
                sigma_fraction: 0.012,
                background_fraction: 0.08,
                size_skew: 1.0,
            },
            // Schools follow population but are a bit more spread out.
            RealDataset::SC => ClusterSpec {
                n,
                clusters: 450,
                sigma_fraction: 0.018,
                background_fraction: 0.12,
                size_skew: 0.9,
            },
            // Cemeteries: moderately clustered, more rural coverage.
            RealDataset::CE => ClusterSpec {
                n,
                clusters: 350,
                sigma_fraction: 0.025,
                background_fraction: 0.2,
                size_skew: 0.7,
            },
            // Locales: mild clustering, lots of background.
            RealDataset::LO => ClusterSpec {
                n,
                clusters: 300,
                sigma_fraction: 0.03,
                background_fraction: 0.3,
                size_skew: 0.6,
            },
            // Parks: sparse and comparatively even.
            RealDataset::PA => ClusterSpec {
                n,
                clusters: 200,
                sigma_fraction: 0.04,
                background_fraction: 0.35,
                size_skew: 0.5,
            },
        }
    }

    /// Deterministic per-dataset seed so joins between datasets always see
    /// the same point configurations.
    fn seed(&self) -> u64 {
        match self {
            RealDataset::PP => 0x5050,
            RealDataset::SC => 0x5343,
            RealDataset::CE => 0x4345,
            RealDataset::LO => 0x4C4F,
            RealDataset::PA => 0x5041,
        }
    }

    /// Generates the stand-in dataset at full Table-I cardinality.
    pub fn generate(&self) -> Vec<Point> {
        self.generate_scaled(1.0)
    }

    /// Generates the stand-in dataset scaled to `scale * cardinality` points
    /// (the experiment harness uses scales < 1 for quick runs and prints the
    /// actual sizes in its tables).
    pub fn generate_scaled(&self, scale: f64) -> Vec<Point> {
        let n = ((self.cardinality() as f64) * scale).round().max(1.0) as usize;
        clustered_points(&self.spec(n), &Rect::DOMAIN, self.seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_cardinalities() {
        assert_eq!(RealDataset::PP.cardinality(), 177_983);
        assert_eq!(RealDataset::SC.cardinality(), 172_188);
        assert_eq!(RealDataset::CE.cardinality(), 124_336);
        assert_eq!(RealDataset::LO.cardinality(), 128_476);
        assert_eq!(RealDataset::PA.cardinality(), 58_312);
    }

    #[test]
    fn scaled_generation_matches_requested_size() {
        for ds in ALL_REAL_DATASETS {
            let pts = ds.generate_scaled(0.01);
            let expected = ((ds.cardinality() as f64) * 0.01).round() as usize;
            assert_eq!(pts.len(), expected, "{}", ds.name());
            assert!(pts.iter().all(|p| Rect::DOMAIN.contains_point(p)));
        }
    }

    #[test]
    fn generation_is_deterministic_per_dataset() {
        let a = RealDataset::PA.generate_scaled(0.02);
        let b = RealDataset::PA.generate_scaled(0.02);
        assert_eq!(a, b);
        let c = RealDataset::CE.generate_scaled(0.02);
        assert_ne!(a.len(), 0);
        assert_ne!(a, c.iter().take(a.len()).cloned().collect::<Vec<_>>());
    }

    #[test]
    fn names_and_descriptions_are_consistent() {
        for ds in ALL_REAL_DATASETS {
            assert_eq!(ds.name().len(), 2);
            assert!(!ds.description().is_empty());
        }
    }

    #[test]
    fn populated_places_more_clustered_than_parks() {
        let pp = RealDataset::PP.generate_scaled(0.02);
        let pa = RealDataset::PA.generate_scaled(0.06); // similar absolute size
        let occupancy = |pts: &[Point]| {
            let mut cells = vec![false; 64 * 64];
            for p in pts {
                let i = ((p.x / 10_000.0) * 63.0) as usize;
                let j = ((p.y / 10_000.0) * 63.0) as usize;
                cells[i * 64 + j] = true;
            }
            cells.iter().filter(|&&c| c).count() as f64 / pts.len() as f64
        };
        assert!(
            occupancy(&pp) < occupancy(&pa),
            "PP should occupy fewer grid cells per point than PA"
        );
    }
}
