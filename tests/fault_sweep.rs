//! Seed-sweep fault test of the chunked metered path: with retries switched
//! off (`max_attempts: 1`) a seeded transient-fault schedule on every tree
//! makes one backend read in 16 fail — in the leaf-order walk at stream
//! construction, in a worker's snapshot read, in the coordinator's trace
//! replay. Whatever the point, the stream must **fail-stop**: either it
//! completes equal to the clean run, or it ends with `io_error()` set and
//! exactly the rows of its last watermark emitted (a prefix of the clean
//! run). It must never panic.
//!
//! Each seed runs in two regimes. *Cold* trees send every first touch to the
//! backend, so streams die at construction or in their first chunks; trees
//! *warmed* by a clean join whose buffers are then shrunk just below the
//! tree size only miss now and then, so the failure point moves through the
//! run — including into replays of pages a worker could still read.
//!
//! The grouped-NN plan is swept as a served request (fast accounting over a
//! shared snapshot, the only way the public API hands out its errors): it
//! answers with the clean run's counts or with a storage error and no counts
//! at all — never with counts of part of the join. Its third regime leaves
//! the retries on: the same schedules, absorbed, must not move a count.
//!
//! The blocking baselines FM-CIJ and PM-CIJ have no error channel, so their
//! sweep runs them under `catch_unwind`: a run returns exactly the clean
//! pairs with no error left latched on either input tree, or it panics
//! naming the failed read. Returning anything else is returning *past* a
//! storage failure — what a caller of a latching kernel does when it skips
//! the poll (`NodeReader::take_error`).

use cij::core::grouped_nn_via_cij;
use cij::prelude::*;
use cij::rtree::RTreeConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SEEDS: std::ops::Range<u64> = 0..64;

/// Metered accounting on two workers — the trace/replay protocol — on
/// whatever storage backend the environment selects.
fn sweep_config() -> CijConfig {
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
        .with_env_overrides()
        .with_exec_mode(ExecMode::Metered)
        .with_worker_threads(2)
}

/// Arms `tree` with the seed's transient schedule and no retries; a `warm`
/// tree keeps (all but two pages of) what the warm-up join left resident.
fn arm(tree: &mut RTree<PointObject>, seed: u64, warm: bool) {
    if warm {
        tree.set_buffer_pages(tree.num_pages() - 2);
    } else {
        tree.drop_buffer();
    }
    tree.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    });
    tree.inject_fault(FaultSpec::transient(seed));
}

/// How the sweep's streams ended.
#[derive(Debug, Default)]
struct Tally {
    completed: usize,
    /// Failed with nothing emitted.
    failed_empty: usize,
    /// Failed after emitting watermark-covered rows.
    failed_midway: usize,
}

impl Tally {
    /// Checks the fail-stop contract of one drained stream against the
    /// clean run's rows and records how it ended.
    fn check<T: PartialEq + std::fmt::Debug>(
        &mut self,
        label: &str,
        drained: &[T],
        clean: &[T],
        error: Option<PageIoError>,
        watermarks: &[LeafWatermark],
    ) {
        let Some(error) = error else {
            assert_eq!(drained, clean, "{label}: completed but diverged");
            self.completed += 1;
            return;
        };
        let covered = watermarks.last().map_or(0, |w| w.rows) as usize;
        assert_eq!(
            covered,
            drained.len(),
            "{label}: rows past the last watermark were emitted before {error}"
        );
        assert_eq!(
            drained,
            &clean[..covered],
            "{label}: the emitted prefix diverged"
        );
        if covered == 0 {
            self.failed_empty += 1;
        } else {
            self.failed_midway += 1;
        }
    }

    /// The sweep must have failed streams both at the start and midway —
    /// unless `CIJ_FAULT_PROFILE` put a second, fixed-seed fault layer under
    /// every store: with no retries its first fault ends every stream at
    /// the same early read, whatever our seed.
    fn assert_exercised(&self) {
        assert!(self.failed_empty > 0, "no stream failed: {self:?}");
        if FaultSpec::from_env().is_none() {
            assert!(self.failed_midway > 0, "no stream failed midway: {self:?}");
        }
    }
}

#[test]
fn nm_fail_stops_at_a_watermark_for_every_transient_seed() {
    let engine = QueryEngine::new(sweep_config());
    let p = uniform_points(400, &Rect::DOMAIN, 9_101);
    let q = uniform_points(400, &Rect::DOMAIN, 9_102);
    let clean = engine.join(&p, &q, Algorithm::NmCij).pairs;
    assert!(!clean.is_empty());

    let mut tally = Tally::default();
    for seed in SEEDS {
        for warm in [false, true] {
            let mut w = engine.build_workload(&p, &q);
            if warm {
                assert_eq!(engine.run(&mut w, Algorithm::NmCij).pairs, clean);
            }
            arm(&mut w.rp, seed, warm);
            arm(&mut w.rq, seed ^ 0x5EED, warm);
            let mut stream = engine.stream(&mut w, Algorithm::NmCij);
            let drained: Vec<(u64, u64)> = stream.by_ref().collect();
            let error = stream.io_error();
            let label = format!("seed {seed}, warm {warm}");
            tally.check(
                &label,
                &drained,
                &clean,
                error.clone(),
                &stream.watermarks_so_far(),
            );
            assert_eq!(stream.try_into_outcome().err(), error, "{label}");
        }
    }
    tally.assert_exercised();
}

#[test]
fn multiway_fail_stops_at_a_watermark_for_every_transient_seed() {
    let engine = QueryEngine::new(sweep_config());
    let sets = vec![
        uniform_points(260, &Rect::DOMAIN, 9_103),
        uniform_points(240, &Rect::DOMAIN, 9_104),
        uniform_points(220, &Rect::DOMAIN, 9_105),
    ];
    let ids = |tuples: &[MultiwayTuple]| -> Vec<Vec<u64>> {
        tuples.iter().map(|t| t.ids.clone()).collect()
    };
    let clean = ids(&engine.multiway(&sets).tuples);
    assert!(!clean.is_empty());

    let mut tally = Tally::default();
    for seed in SEEDS {
        for warm in [false, true] {
            let mut w = engine.multiway_workload(&sets);
            if warm {
                let warm_up = engine.multiway_stream(&mut w).try_into_outcome().unwrap();
                assert_eq!(ids(&warm_up.tuples), clean);
            }
            for (i, tree) in w.trees.iter_mut().enumerate() {
                arm(tree, seed.wrapping_mul(3) + i as u64, warm);
            }
            let mut stream = engine.multiway_stream(&mut w);
            let drained: Vec<MultiwayTuple> = stream.by_ref().collect();
            tally.check(
                &format!("seed {seed}, warm {warm}"),
                &ids(&drained),
                &clean,
                stream.io_error(),
                &stream.watermarks_so_far(),
            );
        }
    }
    tally.assert_exercised();
}

#[test]
fn fm_and_pm_return_the_clean_pairs_or_panic_for_every_transient_seed() {
    let engine = QueryEngine::new(sweep_config());
    let p = uniform_points(100, &Rect::DOMAIN, 9_109);
    let q = uniform_points(100, &Rect::DOMAIN, 9_110);
    for algorithm in [Algorithm::FmCij, Algorithm::PmCij] {
        let clean = engine.join(&p, &q, algorithm).pairs;
        assert!(!clean.is_empty());

        let (mut returned, mut panicked) = (0, 0);
        for seed in SEEDS {
            for warm in [false, true] {
                let mut w = engine.build_workload(&p, &q);
                if warm {
                    assert_eq!(engine.run(&mut w, algorithm).pairs, clean);
                }
                arm(&mut w.rp, seed, warm);
                arm(&mut w.rq, seed ^ 0x5EED, warm);
                let label = format!("{}, seed {seed}, warm {warm}", algorithm.name());
                match catch_unwind(AssertUnwindSafe(|| engine.run(&mut w, algorithm))) {
                    Ok(outcome) => {
                        // (Not `assert_eq!`: a divergence would print both sets.)
                        assert!(outcome.pairs == clean, "{label}: returned but diverged");
                        let latched = (w.rp.take_io_error(), w.rq.take_io_error());
                        assert_eq!(latched, (None, None), "{label}: returned past an error");
                        returned += 1;
                    }
                    Err(payload) => {
                        let message = payload.downcast_ref::<String>().expect("a formatted panic");
                        assert!(message.contains("read error"), "{label}: {message}");
                        panicked += 1;
                    }
                }
            }
        }
        // Same exemption as `Tally::assert_exercised`.
        if FaultSpec::from_env().is_none() {
            let name = algorithm.name();
            assert!(returned > 0, "{name}: no run completed");
            assert!(panicked > 0, "{name}: no run met a failed read");
        }
    }
}

#[test]
fn served_grouped_nn_answers_with_the_clean_counts_or_none_for_every_transient_seed() {
    let config = sweep_config();
    let sets = [
        uniform_points(400, &Rect::DOMAIN, 9_106),
        uniform_points(400, &Rect::DOMAIN, 9_107),
    ];
    let locations = uniform_points(1_000, &Rect::DOMAIN, 9_108);
    let clean = grouped_nn_via_cij(&sets[0], &sets[1], &locations, &config);
    assert_eq!(clean.values().sum::<u64>(), 1_000);

    let (mut completed, mut failed_empty, mut failed_midway) = (0, 0, 0);
    for seed in SEEDS {
        for (warm, retried) in [(false, false), (true, false), (false, true)] {
            let mut snapshot = EngineSnapshot::build(&sets, &config);
            for (i, seed) in [(0, seed), (1, seed ^ 0x5EED)] {
                let tree = snapshot.tree_mut(i);
                if warm {
                    // Everything resident, the root and one leaf most
                    // recently used: arming then evicts two other leaves,
                    // and only reads of those can fail.
                    tree.set_buffer_pages(tree.num_pages());
                    tree.scan_all();
                    tree.range_query(&Rect::from_point(Rect::DOMAIN.center()));
                }
                arm(tree, seed, warm);
                if retried {
                    tree.set_retry_policy(RetryPolicy::default());
                }
            }
            let service = CijService::start(Arc::new(snapshot), ServiceConfig::default());
            let request = Request::GroupedNn {
                p: 0,
                q: 1,
                locations: locations.clone(),
            };
            let handle = service.submit(request).unwrap();
            let mut frames = Vec::new();
            while let Some(batch) = handle.next_batch() {
                frames.push(batch);
            }
            let done = handle.completion();
            let label = format!("seed {seed}, warm {warm}, retried {retried}");
            match &frames[..] {
                [Batch::Groups(counts)] => {
                    assert!(!done.failed, "{label}");
                    assert_eq!(counts, &clean, "{label}: completed but diverged");
                    completed += 1;
                }
                [Batch::Error(QueryError::Storage(error))] if !retried => {
                    assert_eq!(done.error, Some(QueryError::Storage(error.clone())));
                    assert_eq!(done.rows, 0, "{label}");
                    if done.watermarks == 0 {
                        failed_empty += 1;
                    } else {
                        failed_midway += 1;
                    }
                }
                other => panic!("{label}: counts of a partial join, or no answer: {other:?}"),
            }
            service.shutdown();
        }
    }
    assert!(
        completed >= SEEDS.count(),
        "every retried request completes"
    );
    assert!(failed_empty > 0, "no request failed at its start");
    // Same exemption as `Tally::assert_exercised`.
    if FaultSpec::from_env().is_none() {
        assert!(failed_midway > 0, "no request failed midway");
    }
}
