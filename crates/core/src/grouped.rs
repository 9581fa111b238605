//! Grouped nearest neighbours on top of CIJ — the decision-support
//! application of Section I ("Grouped Nearest Neighbors").
//!
//! Given hospitals `P`, parks `Q` and a large set of locations `L` (houses),
//! the analysis asks, for every (hospital, park) pair, how many locations
//! have exactly that hospital and that park as their nearest neighbours.
//! A location `l` contributes to pair `(p, q)` iff `l ∈ V(p, P) ∩ V(q, Q)`,
//! so only CIJ pairs can receive a non-zero count: computing `CIJ(P, Q)`
//! first and assigning locations to the common influence regions avoids the
//! two expensive all-nearest-neighbour joins of the naive plan.

use crate::cell_cache::CellCache;
use crate::config::CijConfig;
use crate::nm::nm_cij_keep_cache;
use crate::workload::Workload;
use cij_geom::{hilbert, ConvexPolygon, Point, Rect};
use cij_pagestore::PageIoError;
use cij_rtree::{LeafLayout, NodeReader, PointObject};
use cij_voronoi::{batch_voronoi_cached_with, nearest_index, CellStore, NoCache, VorScratch};
use std::collections::HashMap;

/// Group size for batched exact-cell computation: roughly one R-tree leaf's
/// worth of spatially adjacent points, the granularity Algorithm 2 is
/// designed for.
const CELL_BATCH: usize = 24;

/// Computes the exact Voronoi cells of the given point ids in shared
/// traversals: ids are deduplicated, ordered along the Hilbert curve so each
/// batch is spatially compact, and computed through the cache in
/// leaf-sized groups.
///
/// A failed read latches in `tree` and serves an empty leaf; the caller
/// polls ([`region_cells`]).
fn cells_by_id<R: NodeReader<PointObject>, C: CellStore>(
    tree: &mut R,
    objects: &[PointObject],
    ids: impl Iterator<Item = u64>,
    domain: &Rect,
    cache: &mut C,
) -> HashMap<u64, ConvexPolygon> {
    let mut unique: Vec<u64> = ids.collect();
    unique.sort_unstable();
    unique.dedup();
    let mut members: Vec<PointObject> = unique.iter().map(|&i| objects[i as usize]).collect();
    members.sort_by_cached_key(|o| hilbert::hilbert_value(&o.point, domain));
    let mut out = HashMap::with_capacity(members.len());
    let mut scratch = VorScratch::default();
    for group in members.chunks(CELL_BATCH) {
        let cells = batch_voronoi_cached_with(
            tree,
            group,
            domain,
            cache,
            LeafLayout::default(),
            &mut scratch,
        );
        for (obj, cell) in group.iter().zip(cells) {
            out.insert(obj.id.0, cell);
        }
    }
    out
}

/// The exact cells of every point that takes part in `pairs`, per side —
/// what materialising the pairs' common influence regions needs — each
/// unique cell computed exactly once through the input R-trees. The `P`
/// side is served from `cache_p`, the join's still-warm reuse buffer, where
/// possible; the `Q` side has no reuse opportunity after deduplication (the
/// join never caches `Q` cells), so it runs uncached.
///
/// Generic over the [`NodeReader`] so the workload-owning plan can pass the
/// counted `&mut RTree`s and the service counting
/// [`SnapshotReader`](cij_rtree::SnapshotReader)s over its shared snapshot.
/// Both readers are polled before the cells are trusted: a storage failure
/// on either side is an `Err`, never a map built from empty leaves.
pub(crate) fn region_cells<R: NodeReader<PointObject>>(
    (rp, objects_p): (&mut R, &[PointObject]),
    (rq, objects_q): (&mut R, &[PointObject]),
    pairs: &[(u64, u64)],
    domain: &Rect,
    cache_p: &mut CellCache,
) -> Result<[HashMap<u64, ConvexPolygon>; 2], PageIoError> {
    let ids_p = pairs.iter().map(|&(a, _)| a);
    let cells_p = cells_by_id(rp, objects_p, ids_p, domain, cache_p);
    let ids_q = pairs.iter().map(|&(_, b)| b);
    let cells_q = cells_by_id(rq, objects_q, ids_q, domain, &mut NoCache);
    let error = rp.take_error().or_else(|| rq.take_error());
    error.map_or(Ok([cells_p, cells_q]), Err)
}

/// Counts per (p, q) pair produced by a grouped-NN analysis.
pub type GroupCounts = HashMap<(u64, u64), u64>;

/// Materialises each pair's common influence region from the per-set cell
/// maps and counts the locations falling inside each region — the
/// assignment step shared by the workload-owning plan below and the
/// snapshot-serving fast path in [`crate::service`].
///
/// Locations on a region boundary are assigned to the first matching pair
/// (ties have measure zero for continuous data).
pub(crate) fn count_locations_in_regions(
    pairs: &[(u64, u64)],
    cells_p: &HashMap<u64, ConvexPolygon>,
    cells_q: &HashMap<u64, ConvexPolygon>,
    locations: &[Point],
) -> GroupCounts {
    let regions: Vec<((u64, u64), ConvexPolygon)> = pairs
        .iter()
        .map(|&(a, b)| ((a, b), cells_p[&a].intersection(&cells_q[&b])))
        .collect();
    let mut counts: GroupCounts = HashMap::new();
    for loc in locations {
        if let Some((key, _)) = regions
            .iter()
            .find(|(_, region)| region.contains_point(loc))
        {
            *counts.entry(*key).or_insert(0) += 1;
        }
    }
    counts
}

/// Runs the CIJ-based grouped nearest-neighbour plan: joins `P` and `Q`,
/// materialises the common influence region of every result pair and counts
/// the locations of `l` falling inside each region.
///
/// Locations on a region boundary are assigned to the first matching pair
/// (ties have measure zero for continuous data).
///
/// # Panics
///
/// Panics on a storage failure, like [`nm_cij`](crate::nm::nm_cij) — the
/// blocking API has no partial-result channel.
pub fn grouped_nn_via_cij(
    p: &[Point],
    q: &[Point],
    locations: &[Point],
    config: &CijConfig,
) -> GroupCounts {
    let mut workload = Workload::build(p, q, config);
    // Keep the join's reuse buffer alive: it already holds the exact cells
    // of recently refined `P` candidates, which are exactly the cells the
    // region-materialisation step below needs again.
    let (cij, mut cache_p) = nm_cij_keep_cache(&mut workload, config);

    let [cells_p, cells_q] = region_cells(
        (&mut workload.rp, &PointObject::from_points(p)),
        (&mut workload.rq, &PointObject::from_points(q)),
        &cij.pairs,
        &config.domain,
        &mut cache_p,
    )
    .unwrap_or_else(|e| panic!("CIJ storage failure: {e}"));
    count_locations_in_regions(&cij.pairs, &cells_p, &cells_q, locations)
}

/// The naive plan: for every location, look up its nearest `P` point and its
/// nearest `Q` point directly (two all-NN joins). Used as the oracle for
/// [`grouped_nn_via_cij`].
pub fn grouped_nn_via_all_nn(p: &[Point], q: &[Point], locations: &[Point]) -> GroupCounts {
    let mut counts: GroupCounts = HashMap::new();
    for loc in locations {
        let (Some(np), Some(nq)) = (nearest_index(p, loc), nearest_index(q, loc)) else {
            continue;
        };
        *counts.entry((np as u64, nq as u64)).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nm::nm_cij;
    use cij_rtree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> CijConfig {
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
    fn cij_plan_matches_the_all_nn_plan() {
        let config = small_config();
        let p = random_points(25, 301);
        let q = random_points(30, 302);
        let locations = random_points(2_000, 303);
        let via_cij = grouped_nn_via_cij(&p, &q, &locations, &config);
        let via_all_nn = grouped_nn_via_all_nn(&p, &q, &locations);
        // Totals match exactly (every location is counted once by both).
        assert_eq!(
            via_cij.values().sum::<u64>(),
            via_all_nn.values().sum::<u64>()
        );
        // Per-group counts match up to boundary ties (measure zero for the
        // random generator, so demand exact agreement here).
        assert_eq!(via_cij, via_all_nn);
    }

    #[test]
    fn only_cij_pairs_receive_counts() {
        let config = small_config();
        let p = random_points(15, 311);
        let q = random_points(18, 312);
        let locations = random_points(500, 313);
        let mut workload = Workload::build(&p, &q, &config);
        let cij_pairs = nm_cij(&mut workload, &config).sorted_pairs();
        for key in grouped_nn_via_all_nn(&p, &q, &locations).keys() {
            assert!(
                cij_pairs.binary_search(key).is_ok(),
                "group {key:?} has houses but is not a CIJ pair"
            );
        }
    }

    #[test]
    fn a_storage_failure_during_region_materialisation_is_an_error() {
        use cij_pagestore::{FaultKind, FaultSpec};
        use cij_rtree::SnapshotReader;
        // A tiny reuse buffer, so the `P` side really goes back to the tree.
        let config = small_config().with_cell_cache_capacity(4);
        let p = random_points(200, 331);
        let q = random_points(200, 332);
        let mut workload = Workload::build(&p, &q, &config);
        let (cij, mut cache_p) = nm_cij_keep_cache(&mut workload, &config);
        let leaves = SnapshotReader::new(&workload.rp).leaf_pages_hilbert_order(&config.domain);
        let target = leaves[leaves.len() / 2];
        workload.rp.flush();
        workload.rp.drop_buffer();
        workload.rp.inject_fault(FaultSpec::corrupt_frame(target.0));
        let error = region_cells(
            (&mut workload.rp, &PointObject::from_points(&p)),
            (&mut workload.rq, &PointObject::from_points(&q)),
            &cij.pairs,
            &config.domain,
            &mut cache_p,
        )
        .expect_err("cells computed over an empty leaf must not be handed on");
        assert_eq!(
            (error.kind, error.page),
            (FaultKind::Corrupt, Some(target.0))
        );
    }

    #[test]
    fn empty_location_set_gives_empty_counts() {
        let config = small_config();
        let p = random_points(10, 321);
        let q = random_points(10, 322);
        assert!(grouped_nn_via_cij(&p, &q, &[], &config).is_empty());
        assert!(grouped_nn_via_all_nn(&p, &q, &[]).is_empty());
    }
}
