//! FM-CIJ: the full-materialisation algorithm (Algorithm 3 of the paper).
//!
//! FM-CIJ computes and indexes **both** Voronoi diagrams — `V or(P)` into
//! `R'P` and `V or(Q)` into `R'Q`, each built by batched cell computation per
//! leaf and Hilbert-packed bulk loading — and then runs the synchronous
//! traversal intersection join of \[9\] between the two Voronoi R-trees. It is
//! the baseline the cheaper PM-CIJ and NM-CIJ are compared against; it is
//! blocking (no result pair is produced before both trees are built).

use crate::config::CijConfig;
use crate::stats::{CijOutcome, Lap, Phase, ProgressSample};
use crate::vor_rtree::materialize_voronoi_rtree;
use crate::workload::Workload;
use cij_rtree::intersection_join;

/// Granularity of FM-CIJ's progressive-output trace: the join phase records
/// a sample every this many result pairs, plus one when it ends.
const PROGRESS_SAMPLE_PAIRS: u64 = 1_000;

/// Runs FM-CIJ on a workload, returning the result pairs and the profile:
/// MAT ([`Phase::Materialise`]) and JOIN ([`Phase::Report`]) time and I/O.
///
/// FM-CIJ is inherently blocking — nothing flows before both Voronoi
/// R-trees are materialised, which is the point of comparing it against
/// NM-CIJ — so its [`PairStream`](crate::engine::PairStream) replays this
/// eager outcome.
/// A storage failure panics (see [`Algorithm::run`](crate::Algorithm::run)).
pub fn fm_cij(workload: &mut Workload, config: &CijConfig) -> CijOutcome {
    let stats = workload.stats.clone();
    let start_io = stats.snapshot();

    // ---- Materialisation phase: build R'P and R'Q. ----
    let mut lap = Lap::start();
    let mut vor_p = materialize_voronoi_rtree(&mut workload.rp, config);
    let mut vor_q = materialize_voronoi_rtree(&mut workload.rq, config);
    lap.charge(Phase::Materialise);
    let mat_io = stats.snapshot().since(&start_io);

    // ---- Join phase: intersection join of the two Voronoi R-trees. ----
    let join_start_io = stats.snapshot();
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let mut progress: Vec<ProgressSample> = Vec::new();
    intersection_join(
        &mut vor_p,
        &mut vor_q,
        |a, b| a.cell.intersects(&b.cell),
        |a, b| {
            pairs.push((a.id.0, b.id.0));
            if (pairs.len() as u64).is_multiple_of(PROGRESS_SAMPLE_PAIRS) {
                progress.push(ProgressSample {
                    page_accesses: stats.snapshot().since(&start_io).page_accesses(),
                    pairs: pairs.len() as u64,
                });
            }
        },
    );
    lap.charge(Phase::Report);
    let join_io = stats.snapshot().since(&join_start_io);
    progress.push(ProgressSample {
        page_accesses: stats.snapshot().since(&start_io).page_accesses(),
        pairs: pairs.len() as u64,
    });
    CijOutcome::blocking(pairs, progress, mat_io, join_io, lap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
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
        let p = random_points(80, 1);
        let q = random_points(90, 2);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = fm_cij(&mut w, &config);
        assert_eq!(
            outcome.sorted_pairs(),
            brute_force_cij(&p, &q, &config.domain)
        );
    }

    #[test]
    fn every_input_point_appears_in_the_result() {
        let config = small_config();
        let p = random_points(60, 3);
        let q = random_points(40, 4);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = fm_cij(&mut w, &config);
        for i in 0..p.len() as u64 {
            assert!(outcome.pairs.iter().any(|&(a, _)| a == i));
        }
        for j in 0..q.len() as u64 {
            assert!(outcome.pairs.iter().any(|&(_, b)| b == j));
        }
    }

    #[test]
    fn breakdown_attributes_materialisation_and_join() {
        let config = small_config();
        let p = random_points(300, 5);
        let q = random_points(300, 6);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = fm_cij(&mut w, &config);
        // FM materialises two trees: MAT must dominate reads+writes, and the
        // join phase must still read pages.
        assert!(outcome.profile.mat_io.physical_writes > 0);
        assert!(outcome.profile.mat_io.physical_reads > 0);
        assert!(outcome.profile.join_io.physical_reads > 0);
        assert!(outcome.page_accesses() >= w.lower_bound_io());
        // Progressive behaviour: FM is blocking, so the first sample appears
        // only after the MAT cost has been paid.
        let first = outcome.progress.first().unwrap();
        assert!(first.page_accesses >= outcome.profile.mat_io.page_accesses());
    }
}
