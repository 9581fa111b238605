//! What a CIJ evaluation reports about itself: one [`QueryProfile`] per
//! query — time per [`Phase`], Figure 7's MAT/JOIN I/O and the work counts
//! of Figures 10 and 11, exact at every watermark — beside the
//! progressive-output trace of Figure 9b and the per-leaf watermarks. Time
//! comes from one stopwatch, `Lap`, the crate's only clock besides the
//! request server's deadlines; it never feeds a row, a count or an access.

use crate::filter::FilterStats;
use cij_pagestore::IoSnapshot;
use std::ops::{AddAssign, Index, IndexMut};
use std::time::{Duration, Instant};

/// Where a query spends its time. Figure 7's MAT is [`Phase::Materialise`];
/// its JOIN is every other phase. A phase's time is summed over the units
/// that did its work, so above one worker the phases can add up to more
/// than the wall time; at one worker they partition it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// FM/PM building their Voronoi R-trees.
    Materialise,
    /// The leaf-order walk and the leaf reads, plus NM's `Q` cells.
    Scan,
    /// Conditional-filter calls.
    Filter,
    /// Cache policy, refinement and resolution of exact cells, multiway
    /// seeding included.
    Refine,
    /// NM's pair report and grouped-NN claims, the multiway extension,
    /// FM/PM's join loop.
    Report,
    /// Settling reads, folding the profile, watermarks and the hand-off of
    /// rows.
    Emit,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Materialise,
        Phase::Scan,
        Phase::Filter,
        Phase::Refine,
        Phase::Report,
        Phase::Emit,
    ];
}

/// Elapsed time per [`Phase`], indexed by the phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes([Duration; 6]);

impl PhaseTimes {
    /// The time of every phase together.
    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }
}

impl Index<Phase> for PhaseTimes {
    type Output = Duration;
    fn index(&self, phase: Phase) -> &Duration {
        &self.0[phase as usize]
    }
}

impl IndexMut<Phase> for PhaseTimes {
    fn index_mut(&mut self, phase: Phase) -> &mut Duration {
        &mut self.0[phase as usize]
    }
}

impl AddAssign for PhaseTimes {
    fn add_assign(&mut self, other: PhaseTimes) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }
}

/// The one stopwatch: after the start, each [`Lap::lap`] returns the time
/// since the previous read and each [`Lap::charge`] adds it to a phase.
pub(crate) struct Lap {
    last: Instant,
    pub(crate) times: PhaseTimes,
}

impl Lap {
    pub(crate) fn start() -> Self {
        Lap {
            last: Instant::now(),
            times: PhaseTimes::default(),
        }
    }

    /// The time since the previous read (or the start), restarting the lap.
    pub(crate) fn lap(&mut self) -> Duration {
        let now = Lap::start().last;
        now - std::mem::replace(&mut self.last, now)
    }

    /// Charges the time since the previous read to `phase`.
    pub(crate) fn charge(&mut self, phase: Phase) {
        let lap = self.lap();
        self.times[phase] += lap;
    }
}

/// What one query did to the exact Voronoi cells of one input set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Cells computed (reuse-buffer misses; NM's `Q` cells, computed
    /// without the buffer, count here too).
    pub computed: u64,
    /// Cells served from the reuse buffer without recomputation.
    pub reused: u64,
    /// Cells evicted from the set's bounded reuse buffer.
    pub evicted: u64,
}

/// The deterministic part of a [`QueryProfile`]: counts that repeat exactly
/// for an input and configuration, at any worker count and in either
/// execution mode, so parity tests compare them with `==`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Result rows: pairs of a binary join, tuples of the multiway join.
    pub rows: u64,
    /// Per input set: NM's `P` is set 0 and `Q` set 1 (its cells are
    /// computed, never reused); the multiway join's sets are in input order.
    pub cells: Vec<CellCounts>,
    /// The conditional filter's work over every call.
    pub filter: FilterStats,
    /// Conditional-filter calls: one per productive leaf (NM), one per round
    /// and leaf with live partial tuples (multiway).
    pub filter_calls: u64,
    /// Σ sᵢ — candidates the filter calls returned.
    pub filter_candidates: u64,
    /// Σ s'ᵢ — NM's candidates that join at least one cell of their leaf.
    pub true_hits: u64,
    /// Multiway candidate×partial narrowings skipped because the two
    /// bounding boxes are disjoint.
    pub narrowings_skipped: u64,
}

impl WorkCounts {
    /// Zero counts over `k` input sets.
    pub(crate) fn for_sets(k: usize) -> Self {
        WorkCounts {
            cells: vec![CellCounts::default(); k],
            ..WorkCounts::default()
        }
    }

    /// Adds the counts of `other` (over as many sets) to these.
    pub(crate) fn absorb(&mut self, other: &WorkCounts) {
        self.rows += other.rows;
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine.computed += theirs.computed;
            mine.reused += theirs.reused;
            mine.evicted += theirs.evicted;
        }
        self.filter.absorb(&other.filter);
        self.filter_calls += other.filter_calls;
        self.filter_candidates += other.filter_candidates;
        self.true_hits += other.true_hits;
        self.narrowings_skipped += other.narrowings_skipped;
    }
}

/// What one query cost and did: every join kind reports one
/// ([`CijOutcome::profile`], [`MultiwayOutcome::profile`], and
/// `profile_so_far()` on the two streams mid-join).
///
/// [`MultiwayOutcome::profile`]: crate::multiway::MultiwayOutcome::profile
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// The deterministic counts.
    pub work: WorkCounts,
    /// I/O of the materialisation phase (FM/PM; zero for the streams).
    pub mat_io: IoSnapshot,
    /// I/O of the join phase, in the stream's accounting currency.
    pub join_io: IoSnapshot,
    /// Elapsed time per phase.
    pub elapsed: PhaseTimes,
}

impl QueryProfile {
    /// Page accesses of both phases.
    pub fn page_accesses(&self) -> u64 {
        self.mat_io.page_accesses() + self.join_io.page_accesses()
    }

    /// The false-hit ratio of the filter step, as defined in Section V-B:
    /// `FHR = (Σ sᵢ − Σ s'ᵢ) / Σ s'ᵢ` (zero without true hits).
    pub fn false_hit_ratio(&self) -> f64 {
        let (candidates, hits) = (self.work.filter_candidates, self.work.true_hits);
        if hits == 0 {
            0.0
        } else {
            (candidates - hits) as f64 / hits as f64
        }
    }
}

/// A sample of the progressive-output curve of Figure 9b: how many result
/// pairs had been produced after a given number of page accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSample {
    /// Cumulative physical page accesses at the time of the sample.
    pub page_accesses: u64,
    /// Cumulative result pairs produced at the time of the sample.
    pub pairs: u64,
}

/// Per-leaf checkpoint of a streaming join: everything emitted up to a
/// watermark is final, so downstream operators can checkpoint at leaf
/// granularity instead of waiting for the stream to drain (the
/// "incremental / watermarked streams" item of the roadmap — realised for
/// the multiway [`TupleStream`] and the binary NM-CIJ [`PairStream`]).
///
/// One watermark is recorded per leaf of the driving tree (`RQ` for the
/// binary join, the cost-selected driver tree for the multiway join) —
/// including empty leaves, so `leaf_index` is dense. Blocking algorithms
/// (FM/PM) record no watermarks: their streams replay an eager result.
///
/// [`TupleStream`]: crate::multiway::TupleStream
/// [`PairStream`]: crate::engine::PairStream
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafWatermark {
    /// Index of the completed leaf in the Hilbert leaf order of the driving
    /// tree.
    pub leaf_index: usize,
    /// Cumulative result rows — pairs for the binary join, k-tuples for the
    /// multiway join — produced up to and including this leaf.
    pub rows: u64,
    /// Cumulative physical page accesses when this leaf completed.
    pub page_accesses: u64,
}

/// The result of one CIJ evaluation.
#[derive(Debug, Clone, Default)]
pub struct CijOutcome {
    /// Result pairs as `(p_id, q_id)`.
    pub pairs: Vec<(u64, u64)>,
    /// What the evaluation cost and did.
    pub profile: QueryProfile,
    /// Progressive-output samples (page accesses vs pairs produced).
    pub progress: Vec<ProgressSample>,
    /// Per-leaf watermarks of the streaming NM-CIJ evaluation (empty for
    /// the blocking FM/PM algorithms; see [`LeafWatermark`]).
    pub watermarks: Vec<LeafWatermark>,
}

impl CijOutcome {
    /// Number of result pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the join produced no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Result pairs sorted lexicographically — convenient for comparing the
    /// outputs of different algorithms and of the brute-force oracle.
    ///
    /// Deliberately does **not** dedup: no join may emit a pair twice, so a
    /// duplicate must surface in the comparison.
    pub fn sorted_pairs(&self) -> Vec<(u64, u64)> {
        let mut v = self.pairs.clone();
        v.sort_unstable();
        v
    }

    /// Total page accesses of the evaluation.
    pub fn page_accesses(&self) -> u64 {
        self.profile.page_accesses()
    }

    /// The outcome of a blocking FM/PM run, `lap` holding its two phases'
    /// times. Its rows are its pairs, and it checkpoints nothing mid-run:
    /// its stream replays an eager result, so no leaf-granular watermark is
    /// ever meaningful.
    pub(crate) fn blocking(
        pairs: Vec<(u64, u64)>,
        progress: Vec<ProgressSample>,
        mat_io: IoSnapshot,
        join_io: IoSnapshot,
        lap: Lap,
    ) -> Self {
        let mut work = WorkCounts::for_sets(2);
        work.rows = pairs.len() as u64;
        let profile = QueryProfile {
            work,
            mat_io,
            join_io,
            elapsed: lap.times,
        };
        CijOutcome {
            pairs,
            profile,
            progress,
            watermarks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_hit_ratio_definition() {
        let mut profile = QueryProfile::default();
        assert_eq!(profile.false_hit_ratio(), 0.0);
        profile.work.filter_candidates = 120;
        profile.work.true_hits = 100;
        assert!((profile.false_hit_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sorted_pairs_orders_and_keeps_duplicates() {
        let outcome = CijOutcome {
            pairs: vec![(2, 1), (1, 1), (2, 1), (1, 0)],
            ..Default::default()
        };
        assert_eq!(outcome.sorted_pairs(), [(1, 0), (1, 1), (2, 1), (2, 1)]);
        assert_eq!(outcome.len(), 4);
        assert!(!outcome.is_empty());
    }

    #[test]
    fn work_counts_absorb_and_the_views_read_them() {
        let mut profile = QueryProfile {
            work: WorkCounts::for_sets(3),
            ..Default::default()
        };
        let cell = |computed, reused| CellCounts {
            computed,
            reused,
            evicted: 1,
        };
        let delta = WorkCounts {
            rows: 2,
            cells: vec![cell(10, 0), cell(20, 20), cell(30, 20)],
            filter_calls: 1,
            ..Default::default()
        };
        profile.work.absorb(&delta);
        profile.work.absorb(&delta);
        assert_eq!((profile.work.rows, profile.work.filter_calls), (4, 2));
        assert_eq!(
            profile.work.cells[2],
            CellCounts {
                computed: 60,
                reused: 40,
                evicted: 2
            }
        );
        let computed: u64 = profile.work.cells.iter().map(|c| c.computed).sum();
        assert_eq!(computed, 120);
    }

    #[test]
    fn page_accesses_span_both_phases_and_laps_partition_the_clock() {
        let mut profile = QueryProfile::default();
        profile.mat_io.physical_reads = 10;
        profile.mat_io.physical_writes = 5;
        profile.join_io.physical_reads = 20;
        assert_eq!(profile.page_accesses(), 35);
        let outer = Lap::start();
        let mut lap = Lap::start();
        std::thread::sleep(Duration::from_millis(2));
        lap.charge(Phase::Scan);
        let dropped = lap.lap();
        lap.charge(Phase::Emit);
        let mut outer = outer;
        let wall = outer.lap();
        let times = lap.times;
        assert!(times[Phase::Scan] >= Duration::from_millis(2));
        assert_eq!(times[Phase::Filter], Duration::ZERO);
        assert!(times.total() + dropped <= wall);
    }
}
