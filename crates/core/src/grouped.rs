//! Grouped nearest neighbours on top of CIJ — the decision-support
//! application of Section I ("Grouped Nearest Neighbors").
//!
//! Given hospitals `P`, parks `Q` and a large set of locations `L` (houses),
//! the analysis asks, for every (hospital, park) pair, how many locations
//! have exactly that hospital and that park as their nearest neighbours.
//! A location `l` contributes to pair `(p, q)` iff `l ∈ V(p, P) ∩ V(q, Q)`,
//! so only CIJ pairs can receive a non-zero count: computing `CIJ(P, Q)` and
//! assigning the locations to the common influence regions avoids the two
//! expensive all-nearest-neighbour joins of the naive plan.
//!
//! # The plan: count where the join reports
//!
//! NM-CIJ materialises nothing, and neither does this plan. When the join
//! reports a leaf it holds `V(q, Q)` of every leaf point and `V(p, P)` of
//! every candidate, and `l` lies in `V(p) ∩ V(q)` iff it lies in both cells:
//! two [`ConvexPolygon::contains_point`] tests (boundary inclusive, under
//! the `cij_geom` tolerance policy) stand in for the region polygon, which
//! is never built,
//! and no cell is computed that the join did not compute anyway. A grouped
//! run is the join's own stream with a `LocationProbe` attached and reads
//! exactly the pages of `nm_cij` / `Request::Join` over the same sets.
//!
//! * **Claim** (per leaf, on the thread that reports it): the probe's grid
//!   yields the locations inside each `V(q)`; only where there are any,
//!   each claims every *reported* `(p, q)` whose `V(p)` holds it too —
//!   `(location, p, q)`, in the join's report order.
//! * **Settle** (coordinator, leaf order, past the fail-stop gates, as the
//!   leaf's pairs are emitted): a location's **first claim wins**, the later
//!   ones of a location on a shared boundary are dropped. The winner is the
//!   first matching pair of the join's pair sequence, which no thread
//!   count, execution mode or backend changes.
//!
//! A location outside [`CijConfig::domain`] lies in no cell and is not
//! counted; a fail-stopped stream hands out no counts at all. Beside the
//! join this costs `O(|L| + reported pairs)`, where materialised regions
//! cost a second Voronoi pass and `O(|L| · |CIJ|)` point-in-region tests.

use crate::config::CijConfig;
use crate::nm::NmPairIter;
use crate::workload::Workload;
use cij_geom::tolerance::widened;
use cij_geom::{ConvexPolygon, GridFrame, Point, Rect};
use cij_voronoi::nearest_index;
use std::collections::HashMap;

/// Counts per (p, q) pair produced by a grouped-NN analysis.
pub type GroupCounts = HashMap<(u64, u64), u64>;

/// The locations of one grouped-NN run, bucketed once in a uniform grid
/// over the domain (about one per bucket), and what they counted so far.
pub(crate) struct LocationProbe {
    frame: GridFrame,
    /// `(bucket, index in the request, position)` per in-domain location, sorted.
    slots: Vec<(usize, usize, Point)>,
    /// Per location of the request: whether a claim was settled for it.
    assigned: Vec<bool>,
    counts: GroupCounts,
}

impl LocationProbe {
    pub(crate) fn new(locations: &[Point], domain: &Rect) -> Self {
        let frame = GridFrame::new(domain, (locations.len() as f64).sqrt().ceil() as usize);
        let mut slots: Vec<_> = (locations.iter().enumerate())
            .filter(|(_, at)| domain.contains_point(at))
            .map(|(l, at)| {
                let (i, j) = frame.bucket_of(at);
                (j * frame.res() + i, l, *at)
            })
            .collect();
        slots.sort_unstable_by_key(|&(bucket, l, _)| (bucket, l));
        LocationProbe {
            frame,
            slots,
            assigned: vec![false; locations.len()],
            counts: GroupCounts::new(),
        }
    }

    /// The locations [`ConvexPolygon::contains_point`] finds in `cell`, looked
    /// for in the buckets under its bounding box widened by the tolerance
    /// that test allows.
    pub(crate) fn locations_in(&self, cell: &ConvexPolygon) -> Vec<(usize, Point)> {
        let Rect { lo, hi } = widened(&cell.bbox());
        let (i0, j0) = self.frame.bucket_of(&lo);
        let (i1, j1) = self.frame.bucket_of(&hi);
        let mut held = Vec::new();
        for row in (j0..=j1).map(|j| j * self.frame.res()) {
            let from = self.slots.partition_point(|s| s.0 < row + i0);
            let run = self.slots[from..].iter().take_while(|s| s.0 <= row + i1);
            held.extend(
                run.filter(|s| cell.contains_point(&s.2))
                    .map(|s| (s.1, s.2)),
            );
        }
        held
    }

    /// Settles the `(location, p, q)` claims of one emitted leaf in the
    /// order given: a location's first claim counts, later ones are dropped.
    pub(crate) fn settle(&mut self, claims: &[(usize, u64, u64)]) {
        for &(l, p, q) in claims {
            if !std::mem::replace(&mut self.assigned[l], true) {
                *self.counts.entry((p, q)).or_insert(0) += 1;
            }
        }
    }

    pub(crate) fn into_counts(self) -> GroupCounts {
        self.counts
    }
}

/// Runs the CIJ-based grouped nearest-neighbour plan (module docs): joins
/// `P` and `Q`, reading exactly the pages of [`nm_cij`](crate::nm::nm_cij),
/// and counts each location of `l` inside [`CijConfig::domain`] for the
/// first reported pair whose two cells hold it (ties on a region boundary
/// have measure zero for continuous data).
///
/// # Panics
///
/// Panics on a storage failure, like `nm_cij` — the blocking API has no
/// partial-result channel.
pub fn grouped_nn_via_cij(
    p: &[Point],
    q: &[Point],
    locations: &[Point],
    config: &CijConfig,
) -> GroupCounts {
    NmPairIter::new(&mut Workload::build(p, q, config), *config)
        .with_locations(locations)
        .into_group_counts()
        .unwrap_or_else(|e| panic!("CIJ storage failure: {e}"))
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
    use crate::config::ExecMode;
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
    fn the_plan_reads_exactly_the_pages_of_the_join() {
        // Metered, cold, both ways through a leaf: whatever the number of
        // locations, counting them costs no page beyond `nm_cij`'s.
        let p = random_points(400, 331);
        let q = random_points(400, 332);
        for threads in [1usize, 2] {
            let config = small_config()
                .with_exec_mode(ExecMode::Metered)
                .with_worker_threads(threads);
            let join = {
                let mut w = Workload::build(&p, &q, &config);
                w.reset_measurement();
                nm_cij(&mut w, &config).page_accesses()
            };
            for n in [0usize, 1, 500, 5_000] {
                let locations = random_points(n, 333);
                let mut w = Workload::build(&p, &q, &config);
                w.reset_measurement();
                let stream = NmPairIter::new(&mut w, config).with_locations(&locations);
                let counts = stream.into_group_counts().unwrap();
                assert_eq!(
                    w.stats.snapshot().page_accesses(),
                    join,
                    "{n} locations, {threads} threads"
                );
                assert_eq!(counts, grouped_nn_via_all_nn(&p, &q, &locations));
            }
        }
    }

    #[test]
    fn the_first_claim_wins_and_only_in_domain_locations_are_held() {
        let inside = Point::new(5.0, 5.0);
        let locations = [
            inside,
            Point::new(-1.0, 5.0),
            Point::new(f64::NAN, 5.0),
            inside,
        ];
        let mut probe = LocationProbe::new(&locations, &Rect::DOMAIN);
        let cell = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        assert_eq!(probe.locations_in(&cell), [(0, inside), (3, inside)]);
        assert_eq!(probe.locations_in(&ConvexPolygon::empty()), []);
        // Duplicates count one by one, each for its own first claim.
        probe.settle(&[(0, 7, 8), (0, 9, 9), (3, 7, 8)]);
        probe.settle(&[(3, 1, 1)]);
        assert_eq!(probe.into_counts(), GroupCounts::from([((7, 8), 2)]));
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
