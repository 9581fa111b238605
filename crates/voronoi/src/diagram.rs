//! Whole-diagram computation: the ITER and BATCH methods of Section V-A and
//! the traversal lower bound LB.
//!
//! Both methods walk the leaves of the input R-tree in the Hilbert order of
//! Section III-C and compute the exact Voronoi cell of every data point:
//! ITER calls Algorithm 1 once per point, BATCH calls Algorithm 2 once per
//! leaf. LB is the I/O cost of reading the tree exactly once — the paper's
//! lower bound for any diagram-computation (and CIJ) method, since every
//! point participates in the result.

use crate::batch::{batch_voronoi, NoCache, VorScratch};
use crate::single::single_voronoi;
use cij_geom::Rect;
use cij_pagestore::IoSnapshot;
use cij_rtree::{CellObject, NodeReader, PointObject, RTree};
use std::time::{Duration, Instant};

/// Which per-leaf strategy a diagram computation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagramMethod {
    /// One [`single_voronoi`] traversal per point (ITER).
    Iter,
    /// One [`batch_voronoi`] traversal per leaf (BATCH).
    Batch,
}

/// Outcome of a whole-diagram computation.
#[derive(Debug, Clone)]
pub struct DiagramResult {
    /// One Voronoi cell per data point, in leaf-traversal order.
    pub cells: Vec<CellObject>,
    /// I/O incurred by the computation.
    pub io: IoSnapshot,
    /// Wall-clock CPU time of the computation.
    pub cpu: Duration,
}

/// Computes the Voronoi cells of every point indexed by `tree`, walking
/// leaves in Hilbert order and using `method` per leaf. A storage failure
/// panics (`"CIJ storage failure: …"`): the tree's [`NodeReader`] latch is
/// taken per leaf, before the group's cells are kept.
pub fn compute_diagram(
    tree: &mut RTree<PointObject>,
    domain: &Rect,
    method: DiagramMethod,
) -> DiagramResult {
    let start_io = tree.stats().snapshot();
    // Wall-clock feeds `DiagramResult::cpu` only — never cells or counters
    // (allowlisted CIJ-D101).
    let start = Instant::now();
    let mut cells = Vec::with_capacity(tree.len());
    let leaves = tree.leaf_pages_hilbert_order(domain);
    let mut scratch = VorScratch::for_budget(tree.config().node_byte_budget());
    for leaf in leaves {
        let group = NodeReader::read(tree, leaf).objects;
        let group_cells = match method {
            DiagramMethod::Iter => group
                .iter()
                .map(|member| single_voronoi(tree, member.point, member.id, domain))
                .collect(),
            DiagramMethod::Batch => batch_voronoi(tree, &group, domain, &mut NoCache, &mut scratch),
        };
        if let Some(e) = tree.take_io_error() {
            panic!("CIJ storage failure: {e}");
        }
        for (member, cell) in group.iter().zip(group_cells) {
            cells.push(CellObject::new(member.id.0, member.point, cell));
        }
    }
    DiagramResult {
        cells,
        io: tree.stats().snapshot().since(&start_io),
        cpu: start.elapsed(),
    }
}

/// The traversal lower bound LB: the number of pages of the tree, i.e. the
/// cost of reading it exactly once.
pub fn lower_bound_io(tree: &RTree<PointObject>) -> u64 {
    tree.num_pages() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_diagram;
    use cij_geom::Point;
    use cij_rtree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> RTreeConfig {
        RTreeConfig {
            page_size: 256,
            max_entries: 64,
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    #[test]
    fn both_methods_match_the_brute_force_diagram() {
        let pts = random_points(150, 33);
        let oracle = brute_force_diagram(&pts, &Rect::DOMAIN);
        for method in [DiagramMethod::Iter, DiagramMethod::Batch] {
            let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
            let result = compute_diagram(&mut tree, &Rect::DOMAIN, method);
            assert_eq!(result.cells.len(), pts.len());
            for cell in &result.cells {
                let expected = &oracle[cell.id.0 as usize];
                assert!(
                    (expected.area() - cell.cell.area()).abs() < 1e-3,
                    "{method:?} cell {:?}: {} vs {}",
                    cell.id,
                    expected.area(),
                    cell.cell.area()
                );
            }
        }
    }

    #[test]
    fn a_batch_diagram_is_the_oracles_or_a_storage_panic_at_every_fault_point() {
        // Read attempt `at` of a cold tree fails for good: the diagram dies
        // naming that read — never a diagram computed past a failed read
        // (the poll rule of `NodeReader::take_error`) — until `at` passes
        // the last read, where it equals the oracle's with no error latched.
        use cij_pagestore::{FaultKind, FaultProfile};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pts = random_points(150, 33);
        let oracle = brute_force_diagram(&pts, &Rect::DOMAIN);
        for at in 0.. {
            let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
            tree.set_buffer_pages(tree.num_pages());
            tree.flush();
            tree.inject_fault(FaultProfile::fail_read(at, FaultKind::Persistent));
            let run = catch_unwind(AssertUnwindSafe(|| {
                compute_diagram(&mut tree, &Rect::DOMAIN, DiagramMethod::Batch)
            }));
            match run {
                Ok(result) => {
                    assert_eq!(tree.fault_stats().injected_read_faults, 0, "{at}: fired");
                    assert_eq!(tree.take_io_error(), None, "read {at}: returned past");
                    assert_eq!(result.cells.len(), pts.len(), "read {at}");
                    for cell in &result.cells {
                        let expected = oracle[cell.id.0 as usize].area();
                        assert!((expected - cell.cell.area()).abs() < 1e-3, "read {at}");
                    }
                    assert!(at > 4, "the diagram read only {at} pages");
                    break;
                }
                Err(payload) => {
                    let message = payload.downcast_ref::<String>().expect("a formatted panic");
                    let attempt = format!("injected at read attempt {at}");
                    assert!(
                        message.contains("persistent read error on frame")
                            && message.ends_with(&attempt),
                        "read {at}: {message}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagram_cells_tile_the_domain() {
        let pts = random_points(120, 4);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        let result = compute_diagram(&mut tree, &Rect::DOMAIN, DiagramMethod::Batch);
        let total: f64 = result.cells.iter().map(|c| c.cell.area()).sum();
        assert!((total - Rect::DOMAIN.area()).abs() / Rect::DOMAIN.area() < 1e-6);
    }

    #[test]
    fn batch_costs_less_io_than_iter_and_both_exceed_lb() {
        let pts = random_points(4_000, 10);
        let objects = PointObject::from_points(&pts);

        let mut tree_iter = RTree::bulk_load(config(), objects.clone());
        tree_iter.set_buffer_fraction(0.02);
        tree_iter.drop_buffer();
        tree_iter.stats().reset();
        let iter_res = compute_diagram(&mut tree_iter, &Rect::DOMAIN, DiagramMethod::Iter);

        let mut tree_batch = RTree::bulk_load(config(), objects);
        tree_batch.set_buffer_fraction(0.02);
        tree_batch.drop_buffer();
        tree_batch.stats().reset();
        let batch_res = compute_diagram(&mut tree_batch, &Rect::DOMAIN, DiagramMethod::Batch);

        let lb = lower_bound_io(&tree_batch);
        let iter_io = iter_res.io.page_accesses();
        let batch_io = batch_res.io.page_accesses();
        assert!(
            batch_io <= iter_io,
            "BATCH ({batch_io}) should not exceed ITER ({iter_io})"
        );
        assert!(batch_io >= lb, "no method can beat LB ({batch_io} < {lb})");
    }

    #[test]
    fn empty_tree_gives_empty_diagram() {
        let mut tree: RTree<PointObject> = RTree::bulk_load(config(), Vec::new());
        let result = compute_diagram(&mut tree, &Rect::DOMAIN, DiagramMethod::Batch);
        assert!(result.cells.is_empty());
    }
}
