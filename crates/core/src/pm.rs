//! PM-CIJ: the partial-materialisation algorithm (Algorithm 4 of the paper).
//!
//! PM-CIJ materialises only `R'P` (the Voronoi R-tree of `P`). It then walks
//! the leaves of `RQ` in Hilbert order; for each leaf it computes the Voronoi
//! cells of the leaf's points in batch (Algorithm 2) and immediately probes
//! them against `R'P` with a single batched range query — a block index
//! nested loops join. Consecutive probes have high spatial locality, so with
//! an LRU buffer PM-CIJ is cheaper than FM-CIJ.

use crate::config::CijConfig;
use crate::stats::{CijOutcome, Lap, Phase, ProgressSample};
use crate::vor_rtree::materialize_voronoi_rtree;
use crate::workload::Workload;
use cij_geom::{tolerance::widened, Rect};
use cij_rtree::NodeReader;
use cij_voronoi::{batch_voronoi, NoCache, VorScratch};

/// Runs PM-CIJ on a workload, returning the result pairs and the profile:
/// MAT ([`Phase::Materialise`]) and JOIN ([`Phase::Report`]) time and I/O.
///
/// PM-CIJ is blocking — nothing flows before `R'P` is materialised — so its
/// [`PairStream`](crate::engine::PairStream) replays this eager outcome.
/// A storage failure panics (see [`QueryEngine`](crate::QueryEngine)):
/// the latch of `RQ` is taken per leaf, before the leaf's pairs are kept.
pub(crate) fn pm_cij(workload: &mut Workload, config: &CijConfig) -> CijOutcome {
    let stats = workload.stats.clone();
    let start_io = stats.snapshot();

    // ---- Materialisation phase: build R'P only. ----
    let mut lap = Lap::start();
    let mut vor_p = materialize_voronoi_rtree(&mut workload.rp, config);
    lap.charge(Phase::Materialise);
    let mat_io = stats.snapshot().since(&start_io);

    // ---- Join phase: block index nested loops over the leaves of RQ. ----
    let join_start_io = stats.snapshot();
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let mut progress: Vec<ProgressSample> = Vec::new();

    // PM computes Q's cells with `NoCache`: leaf groups of RQ are
    // disjoint, so no cell is ever requested twice — exactly like NM's own
    // Q-cell step, which is also uncached. A reuse buffer here would only
    // count structurally unavoidable computations as misses.
    let mut cell_cache = NoCache;
    let mut scratch = VorScratch::for_budget(workload.rq.config().node_byte_budget());

    let leaves = workload.rq.leaf_pages_hilbert_order(&config.domain);
    for leaf in leaves {
        let group = NodeReader::read(&mut workload.rq, leaf).objects;
        let cells_q = batch_voronoi(
            &mut workload.rq,
            &group,
            &config.domain,
            &mut cell_cache,
            &mut scratch,
        );
        if let Some(e) = workload.rq.take_io_error() {
            panic!("CIJ storage failure: {e}");
        }
        if group.is_empty() {
            continue;
        }

        // One batched range probe covering every cell of the group, each
        // box widened as the intersection test widens it.
        let mut probe = Rect::empty();
        for cell in &cells_q {
            probe = probe.union(&widened(&cell.bbox()));
        }
        let candidates = vor_p.range_query(&probe);

        for (q_obj, q_cell) in group.iter().zip(&cells_q) {
            for cand in &candidates {
                if cand.cell.intersects(q_cell) {
                    pairs.push((cand.id.0, q_obj.id.0));
                }
            }
        }
        progress.push(ProgressSample {
            page_accesses: stats.snapshot().since(&start_io).page_accesses(),
            pairs: pairs.len() as u64,
        });
    }
    lap.charge(Phase::Report);
    let join_io = stats.snapshot().since(&join_start_io);
    CijOutcome::blocking(pairs, progress, mat_io, join_io, lap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use crate::fm::fm_cij;
    use cij_geom::Point;
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
    fn matches_brute_force_oracle() {
        let config = small_config();
        let p = random_points(70, 11);
        let q = random_points(85, 12);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = pm_cij(&mut w, &config);
        assert_eq!(
            outcome.sorted_pairs(),
            brute_force_cij(&p, &q, &config.domain)
        );
    }

    /// Two wedge cells, apex facing apex `1.25·τ·M` apart (`M` the largest
    /// coordinate): within what the intersection test's two widened boxes
    /// and its 45° edges accept, beyond one box's widening. PM's range probe
    /// reaches as far as the test, so PM reports the pair as FM and the
    /// brute-force join do — with q's leaf holding no cell that reaches the
    /// apex.
    #[test]
    fn a_tolerated_near_miss_is_reported_by_pm_as_by_fm() {
        let domain = Rect::from_coords(10_000.0, 10_000.0, 20_000.0, 20_000.0);
        let config = CijConfig::default()
            .with_domain(domain)
            .with_rtree(RTreeConfig {
                page_size: 512,
                max_entries: 2,
            });
        // p's cell: the triangle (10 000, 10 000), (15 000, 15 000),
        // (10 000, 20 000).
        let p = [
            (11_000.0, 15_000.0),
            (15_000.0, 19_000.0),
            (15_000.0, 11_000.0),
        ];
        // q's cell: its mirror image, the apex moved right by 1.25·τ·M; the
        // other points of Q lie right of q.
        let x = 15_000.0 + 1.25 * cij_geom::tolerance::distance(20_000.0);
        let mut q = vec![(x + 4_000.0, 15_000.0), (x, 19_000.0), (x, 11_000.0)];
        q.extend((1..8).map(|i| {
            (
                19_000.0 + 120.0 * i as f64,
                15_000.0 + 40.0 * (i % 3) as f64,
            )
        }));
        let points = |s: &[(f64, f64)]| s.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let (p, q): (Vec<Point>, Vec<Point>) = (points(&p), points(&q));
        let brute = brute_force_cij(&p, &q, &domain);
        assert!(brute.contains(&(0, 0)), "the near miss is a pair");
        let mut w = Workload::build(&p, &q, &config);
        assert_eq!(fm_cij(&mut w, &config).sorted_pairs(), brute);
        let mut w = Workload::build(&p, &q, &config);
        assert_eq!(pm_cij(&mut w, &config).sorted_pairs(), brute);
    }

    #[test]
    fn agrees_with_fm_on_clustered_data() {
        let config = small_config();
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = random_points(60, 13);
        for _ in 0..60 {
            p.push(Point::new(
                2_000.0 + rng.gen_range(-150.0..150.0),
                3_000.0 + rng.gen_range(-150.0..150.0),
            ));
        }
        let q = random_points(100, 14);
        let fm_pairs = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config).sorted_pairs()
        };
        let pm_pairs = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config).sorted_pairs()
        };
        assert_eq!(fm_pairs, pm_pairs);
    }

    #[test]
    fn pm_materialisation_is_cheaper_than_fm() {
        let config = small_config();
        let p = random_points(400, 15);
        let q = random_points(400, 16);
        let fm_mat = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config).profile.mat_io.page_accesses()
        };
        let pm_mat = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config).profile.mat_io.page_accesses()
        };
        assert!(
            pm_mat < fm_mat,
            "PM materialises one tree ({pm_mat}) vs FM's two ({fm_mat})"
        );
    }

    #[test]
    fn pm_total_cost_not_worse_than_fm() {
        let config = small_config();
        let p = random_points(500, 17);
        let q = random_points(500, 18);
        let fm_total = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config).page_accesses()
        };
        let pm_total = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config).page_accesses()
        };
        assert!(
            pm_total <= fm_total,
            "PM-CIJ ({pm_total}) should not cost more page accesses than FM-CIJ ({fm_total})"
        );
    }

    #[test]
    fn progress_is_monotone() {
        let config = small_config();
        let p = random_points(200, 19);
        let q = random_points(200, 20);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = pm_cij(&mut w, &config);
        for pair in outcome.progress.windows(2) {
            assert!(pair[0].page_accesses <= pair[1].page_accesses);
            assert!(pair[0].pairs <= pair[1].pairs);
        }
        assert_eq!(
            outcome.progress.last().unwrap().pairs,
            outcome.pairs.len() as u64
        );
    }
}
