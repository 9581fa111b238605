//! Materialisation of Voronoi R-trees (`R'P` / `R'Q`).
//!
//! Section III-C: the FM-CIJ and PM-CIJ algorithms traverse the input tree's
//! leaves in Hilbert order, compute the Voronoi cells of each leaf's points
//! in batch (Algorithm 2), and pack the resulting cells into a new R-tree
//! bottom-up so that construction costs exactly one sequential write of the
//! new tree and the packed tree has Hilbert-R-tree-like search quality.

use crate::config::CijConfig;
use cij_pagestore::IoStats;
use cij_rtree::{CellObject, PointObject, RTree};
use cij_voronoi::{compute_diagram, DiagramMethod};

/// Computes the full Voronoi diagram of the points indexed by `tree`
/// (batched per leaf, leaves in Hilbert order) and returns the cells in
/// traversal order; panics on a storage failure, like [`compute_diagram`].
pub fn compute_all_cells(tree: &mut RTree<PointObject>, config: &CijConfig) -> Vec<CellObject> {
    compute_diagram(tree, &config.domain, DiagramMethod::Batch).cells
}

/// Builds the Voronoi R-tree over `cells` (Hilbert-packed bulk load), flushes
/// it so every node write is accounted, and applies the configured buffer
/// fraction.
pub fn build_voronoi_rtree(
    cells: Vec<CellObject>,
    config: &CijConfig,
    stats: IoStats,
) -> RTree<CellObject> {
    let mut tree =
        RTree::bulk_load_with_stats_on(config.rtree, stats, cells, 1.0, config.storage_backend);
    // Materialisation cost = writing the nodes of the new tree to disk.
    tree.flush();
    tree.set_buffer_pages(config.buffer_pages_for(tree.num_pages()));
    tree
}

/// Convenience composition: computes all cells of `tree` and materialises the
/// Voronoi R-tree in one go (the per-dataset materialisation step of FM-CIJ
/// and PM-CIJ).
pub fn materialize_voronoi_rtree(
    tree: &mut RTree<PointObject>,
    config: &CijConfig,
) -> RTree<CellObject> {
    let cells = compute_all_cells(tree, config);
    build_voronoi_rtree(cells, config, tree.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::{Point, Rect};
    use cij_rtree::{RTreeConfig, RTreeObject};
    use cij_voronoi::brute_force_diagram;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> CijConfig {
        CijConfig::default().with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    #[test]
    fn all_cells_match_brute_force() {
        let pts = random_points(180, 55);
        let mut tree = RTree::bulk_load(config().rtree, PointObject::from_points(&pts));
        let cells = compute_all_cells(&mut tree, &config());
        assert_eq!(cells.len(), pts.len());
        let oracle = brute_force_diagram(&pts, &Rect::DOMAIN);
        for c in &cells {
            let expected = &oracle[c.id.0 as usize];
            assert!(
                (expected.area() - c.cell.area()).abs() < 1e-3,
                "cell {:?}",
                c.id
            );
        }
    }

    #[test]
    fn voronoi_rtree_contains_every_cell_and_is_valid() {
        let pts = random_points(300, 7);
        let mut tree = RTree::bulk_load(config().rtree, PointObject::from_points(&pts));
        let vor = materialize_voronoi_rtree(&mut tree, &config());
        assert_eq!(vor.len(), pts.len());
        vor.check_invariants().unwrap();
        let mut vor = vor;
        let mut ids: Vec<u64> = vor.scan_all().iter().map(|c| c.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..pts.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn materialisation_io_includes_writing_the_new_tree() {
        let pts = random_points(400, 3);
        let stats = IoStats::new();
        let mut tree = RTree::bulk_load_with_stats_on(
            config().rtree,
            stats.clone(),
            PointObject::from_points(&pts),
            1.0,
            config().storage_backend,
        );
        tree.drop_buffer();
        stats.reset();
        let vor = materialize_voronoi_rtree(&mut tree, &config());
        let snap = stats.snapshot();
        assert!(
            snap.physical_writes as usize >= vor.num_pages(),
            "writes {} must cover the {} pages of R'P",
            snap.physical_writes,
            vor.num_pages()
        );
        assert!(snap.physical_reads > 0, "cell computation must read RP");
    }

    #[test]
    fn cells_can_be_probed_by_range_queries() {
        let pts = random_points(250, 21);
        let mut tree = RTree::bulk_load(config().rtree, PointObject::from_points(&pts));
        let mut vor = materialize_voronoi_rtree(&mut tree, &config());
        // Probing with a small rectangle around a random location must return
        // at least the cell of the nearest site (that cell contains it).
        let q = Point::new(4_321.0, 8_765.0);
        let nn = cij_voronoi::nearest_index(&pts, &q).unwrap();
        let hits = vor.range_query(&Rect::from_point(q));
        assert!(
            hits.iter().any(|c| c.id.0 == nn as u64),
            "range probe must find the cell containing the probe point"
        );
    }
}
