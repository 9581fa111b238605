//! Workload construction helpers: building the two input R-trees the way the
//! paper's experiments do.

use crate::config::CijConfig;
use cij_geom::Point;
use cij_pagestore::IoStats;
use cij_rtree::{PointObject, RTree};

/// The two input trees `RP` and `RQ` plus the shared I/O counters.
///
/// Both trees share a single [`IoStats`] so algorithms that touch both (all
/// of them) report one combined page-access figure, like the paper.
#[derive(Debug)]
pub struct Workload {
    /// R-tree on the pointset `P`.
    pub rp: RTree<PointObject>,
    /// R-tree on the pointset `Q`.
    pub rq: RTree<PointObject>,
    /// Shared I/O counters of both trees (and of any tree the algorithms
    /// build during evaluation).
    pub stats: IoStats,
}

impl Workload {
    /// Builds bulk-loaded R-trees over `p` and `q`, applies the configured
    /// buffer fraction to each, clears the construction I/O and returns the
    /// ready-to-measure workload.
    pub fn build(p: &[Point], q: &[Point], config: &CijConfig) -> Workload {
        let stats = IoStats::new();
        let rp = build_input_tree(p, config, &stats);
        let rq = build_input_tree(q, config, &stats);
        stats.reset();
        Workload { rp, rq, stats }
    }

    /// The traversal lower bound LB for CIJ on this workload: reading both
    /// trees exactly once (footnote 3 of the paper).
    pub fn lower_bound_io(&self) -> u64 {
        (self.rp.num_pages() + self.rq.num_pages()) as u64
    }

    /// Combined backend byte counters of the two *input* trees `RP`/`RQ`:
    /// the bytes actually transferred by their storage backends.
    ///
    /// Covers every byte of an NM-CIJ run (it touches only the input
    /// trees), so there `bytes_read == physical_reads × page_size` against
    /// [`Workload::stats`]. FM/PM additionally materialise Voronoi R-trees
    /// whose stores share the *counters* of [`Workload::stats`] but not
    /// these byte totals — compare against the Voronoi trees' own
    /// [`backend_io`](cij_rtree::RTree::backend_io) for those.
    pub fn backend_io(&self) -> cij_pagestore::BackendIo {
        self.rp.backend_io().plus(&self.rq.backend_io())
    }

    /// Resets counters and buffers so a fresh measurement starts cold.
    pub fn reset_measurement(&mut self) {
        self.rp.drop_buffer();
        self.rq.drop_buffer();
        self.stats.reset();
    }
}

/// Builds one measurement-ready input tree: bulk-loaded onto the shared
/// stats and the configured storage backend, buffer sized by the uniform
/// policy ([`CijConfig::buffer_pages_for`]), construction buffer dropped
/// (the input trees pre-exist in the paper's setting, so their construction
/// cost is not part of any measured experiment).
///
/// Construction goes through the out-of-core loader
/// ([`RTree::bulk_load_external_on`]): datasets past the default run
/// capacity are external-sorted in bounded memory through a scratch
/// backend, and the resulting tree is byte-identical to in-memory
/// construction — so this choice is invisible to every measurement.
///
/// The single place the input-tree accounting rules live — [`Workload`]
/// and [`MultiwayWorkload`] both build through here, so binary and multiway
/// measurements can never drift apart.
fn build_input_tree(points: &[Point], config: &CijConfig, stats: &IoStats) -> RTree<PointObject> {
    let mut tree = RTree::bulk_load_external_on(
        config.rtree,
        stats.clone(),
        PointObject::from_points(points),
        1.0,
        config.storage_backend,
        cij_rtree::DEFAULT_RUN_CAPACITY,
    );
    let pages = config.buffer_pages_for(tree.num_pages());
    tree.set_buffer_pages(pages);
    tree.drop_buffer();
    tree
}

/// The `k` input trees of a multiway CIJ plus the shared I/O counters —
/// the k-way generalisation of [`Workload`].
///
/// All trees share a single [`IoStats`] (one combined page-access figure,
/// like the binary workload) and are built under the same
/// [`CijConfig`] accounting rules: configured
/// [`storage_backend`](CijConfig::storage_backend), the
/// [`buffer_fraction`](CijConfig::buffer_fraction) with the
/// [`min_buffer_pages`](CijConfig::min_buffer_pages) floor, cleared
/// construction I/O. Heap- and file-backed multiway runs are therefore
/// observably identical, exactly like the binary algorithms.
#[derive(Debug)]
pub struct MultiwayWorkload {
    /// One R-tree per input pointset, in input order. The driver tree —
    /// picked by [`MultiwayWorkload::pick_driver`] — drives the leaf units
    /// of the multiway evaluation.
    pub trees: Vec<RTree<PointObject>>,
    /// Shared I/O counters of all trees.
    pub stats: IoStats,
}

impl MultiwayWorkload {
    /// Builds bulk-loaded R-trees over every pointset of `sets`, applies the
    /// configured buffer policy to each, clears the construction I/O and
    /// returns the ready-to-measure workload.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty — a multiway CIJ needs at least one
    /// pointset.
    pub fn build(sets: &[Vec<Point>], config: &CijConfig) -> MultiwayWorkload {
        assert!(!sets.is_empty(), "multiway CIJ needs at least one pointset");
        let stats = IoStats::new();
        let trees: Vec<RTree<PointObject>> = sets
            .iter()
            .map(|points| build_input_tree(points, config, &stats))
            .collect();
        stats.reset();
        MultiwayWorkload { trees, stats }
    }

    /// Number of input sets (= number of trees).
    pub fn k(&self) -> usize {
        self.trees.len()
    }

    /// Estimated evaluation cost of driving the multiway join with set
    /// `driver` — see [`estimated_driver_cost`], the free function this
    /// delegates to (it also serves shared-snapshot evaluations that have
    /// only a tree slice, no workload).
    ///
    /// # Panics
    ///
    /// Panics if `driver >= k`.
    pub fn estimated_driver_cost(&self, driver: usize) -> f64 {
        let refs: Vec<&RTree<PointObject>> = self.trees.iter().collect();
        estimated_driver_cost(&refs, driver)
    }

    /// The cheapest driver under [`MultiwayWorkload::estimated_driver_cost`];
    /// ties resolve to the lowest set index, so symmetric workloads pick
    /// set 0. Delegates to [`pick_driver`].
    pub fn pick_driver(&self) -> usize {
        let refs: Vec<&RTree<PointObject>> = self.trees.iter().collect();
        pick_driver(&refs)
    }

    /// The traversal lower bound for the multiway CIJ on this workload:
    /// reading every tree exactly once.
    pub fn lower_bound_io(&self) -> u64 {
        self.trees.iter().map(|t| t.num_pages() as u64).sum()
    }

    /// Combined backend byte counters of all input trees: the bytes
    /// actually transferred by their storage backends. The multiway join
    /// touches only these trees, so `bytes_read == physical_reads ×
    /// page_size` holds against [`MultiwayWorkload::stats`].
    pub fn backend_io(&self) -> cij_pagestore::BackendIo {
        self.trees
            .iter()
            .fold(cij_pagestore::BackendIo::default(), |acc, t| {
                acc.plus(&t.backend_io())
            })
    }

    /// Resets counters and buffers so a fresh measurement starts cold.
    pub fn reset_measurement(&mut self) {
        for tree in &mut self.trees {
            tree.drop_buffer();
        }
        self.stats.reset();
    }
}

/// Estimated evaluation cost of driving a multiway join over `trees` with
/// set `driver`: the driver contributes one leaf unit per leaf of its tree,
/// and every unit pays one probe round per extension set whose work scales
/// with that set's fan-out (average entries per page — the candidate volume
/// a localised batch probe returns).
///
/// `cost(d) = leaves(d) × (1 + Σ_{i≠d} fanout(i))` — the `1` is the unit's
/// own seed round — using `num_pages` as the leaf-count estimate (leaves
/// dominate a bulk-loaded tree): pure O(1) tree metadata, no page accesses.
/// The model only needs to *rank* drivers: what matters is that a tree with
/// fewer leaves seeds fewer units and that large sets are cheaper to drive
/// than to probe.
///
/// A free function over borrowed trees (rather than a [`MultiwayWorkload`]
/// method) so shared-snapshot evaluations — which hold only references
/// into a snapshot, possibly a non-contiguous subset of its sets — plan
/// with the identical model.
///
/// # Panics
///
/// Panics if `driver >= trees.len()`.
pub fn estimated_driver_cost(trees: &[&RTree<PointObject>], driver: usize) -> f64 {
    assert!(driver < trees.len(), "driver index {driver} out of range");
    let leaves = trees[driver].num_pages() as f64;
    let extension_fanout: f64 = trees
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != driver)
        .map(|(_, t)| t.len() as f64 / t.num_pages().max(1) as f64)
        .sum();
    leaves * (1.0 + extension_fanout)
}

/// The cheapest driver for `trees` under [`estimated_driver_cost`]; ties
/// resolve to the lowest set index.
///
/// # Panics
///
/// Panics if `trees` is empty.
pub fn pick_driver(trees: &[&RTree<PointObject>]) -> usize {
    (0..trees.len())
        .min_by(|&a, &b| {
            estimated_driver_cost(trees, a).total_cmp(&estimated_driver_cost(trees, b))
        })
        .expect("a multiway evaluation has at least one set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;
    use cij_rtree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    #[test]
    fn build_produces_clean_workload() {
        let config = CijConfig::default().with_rtree(RTreeConfig {
            page_size: 256,
            max_entries: 64,
        });
        let w = Workload::build(&random_points(500, 1), &random_points(400, 2), &config);
        assert_eq!(w.rp.len(), 500);
        assert_eq!(w.rq.len(), 400);
        // Construction I/O has been cleared.
        assert_eq!(w.stats.snapshot().page_accesses(), 0);
        assert!(w.lower_bound_io() > 0);
        assert!(w.stats.same_counters(&w.rp.stats()));
        assert!(w.stats.same_counters(&w.rq.stats()));
    }

    #[test]
    fn buffer_fraction_is_applied() {
        let config = CijConfig::default()
            .with_rtree(RTreeConfig {
                page_size: 256,
                max_entries: 64,
            })
            .with_buffer_fraction(0.1);
        let w = Workload::build(&random_points(2_000, 3), &random_points(2_000, 4), &config);
        assert_eq!(
            w.rp.buffer_pages(),
            config.buffer_pages_for(w.rp.num_pages())
        );
        assert!(w.rq.buffer_pages() >= config.min_buffer_pages);
        assert_eq!(
            w.lower_bound_io(),
            (w.rp.num_pages() + w.rq.num_pages()) as u64
        );
    }

    #[test]
    fn min_buffer_floor_can_be_lowered_for_sweeps() {
        let config = CijConfig::default()
            .with_rtree(RTreeConfig {
                page_size: 256,
                max_entries: 64,
            })
            .with_buffer_fraction(0.01)
            .with_min_buffer_pages(1);
        let w = Workload::build(&random_points(1_000, 5), &random_points(1_000, 6), &config);
        let expected = ((w.rp.num_pages() as f64) * 0.01).ceil() as usize;
        assert_eq!(w.rp.buffer_pages(), expected.max(1));
    }

    #[test]
    fn multiway_workload_builds_k_trees_with_shared_accounting() {
        let config = CijConfig::default().with_rtree(RTreeConfig {
            page_size: 256,
            max_entries: 64,
        });
        let sets = vec![
            random_points(300, 11),
            random_points(250, 12),
            random_points(200, 13),
        ];
        let w = MultiwayWorkload::build(&sets, &config);
        assert_eq!(w.k(), 3);
        for (tree, set) in w.trees.iter().zip(&sets) {
            assert_eq!(tree.len(), set.len());
            assert!(w.stats.same_counters(&tree.stats()));
        }
        // Construction I/O has been cleared, buffer policy applied.
        assert_eq!(w.stats.snapshot().page_accesses(), 0);
        assert_eq!(
            w.trees[0].buffer_pages(),
            config.buffer_pages_for(w.trees[0].num_pages())
        );
        assert_eq!(
            w.lower_bound_io(),
            w.trees.iter().map(|t| t.num_pages() as u64).sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "at least one pointset")]
    fn multiway_workload_rejects_empty_input() {
        let _ = MultiwayWorkload::build(&[], &CijConfig::default());
    }

    #[test]
    fn driver_cost_model_prefers_the_smallest_tree() {
        let config = CijConfig::default().with_rtree(RTreeConfig {
            page_size: 256,
            max_entries: 64,
        });
        let sets = vec![
            random_points(1_600, 21),
            random_points(800, 22),
            random_points(200, 23),
        ];
        let w = MultiwayWorkload::build(&sets, &config);
        assert_eq!(
            w.pick_driver(),
            2,
            "the set with the fewest leaves is the cheapest driver"
        );
        assert!(w.estimated_driver_cost(2) < w.estimated_driver_cost(0));
        // The choice costs no page accesses: pure metadata.
        assert_eq!(w.stats.snapshot().page_accesses(), 0);
    }

    #[test]
    fn driver_cost_ties_resolve_to_set_zero() {
        let config = CijConfig::default().with_rtree(RTreeConfig {
            page_size: 256,
            max_entries: 64,
        });
        // Identical sets → identical costs → lowest index wins.
        let points = random_points(400, 24);
        let w = MultiwayWorkload::build(&[points.clone(), points.clone(), points], &config);
        assert_eq!(w.pick_driver(), 0);
    }

    #[test]
    fn domain_points_stay_within_paper_domain() {
        let pts = random_points(100, 9);
        assert!(pts.iter().all(|p| Rect::DOMAIN.contains_point(p)));
    }
}
