//! Exhaustive fault-point sweep. `FaultProfile::fail_read(at, kind)` armed
//! on one tree fails that tree's read attempt `at` (counted from arming)
//! and passes every other operation through. Each test sweeps
//! `at = 0, 1, …` on every input tree of a small run, until the fault no
//! longer fires — a worker pool's read order and count vary between runs,
//! so a tree's sweep ends at the first attempt where nothing fired — in
//! two regimes:
//!
//! * **Persistent.** A run whose fault fired must fail-stop: an error
//!   naming the failed read, and exactly the rows of its last watermark
//!   emitted, a prefix of the clean run. A run where nothing fired equals
//!   the clean run.
//! * **Transient**, under the default retry policy. The store retries the
//!   failed attempt once, so the rows and every non-fault counter —
//!   `IoStats`, metered `BackendIo` bytes, NM or multiway counters,
//!   progress samples, watermarks — equal the clean run's, with exactly
//!   one recovery.
//!
//! The runs are NM-CIJ metered on 1 and 2 workers and fast, a 3-way join,
//! a grouped-NN request served through `CijService` (the only way the
//! public API hands out its errors: it answers with the clean counts, or
//! with a storage error and no counts at all) and the blocking FM-CIJ and
//! PM-CIJ. Those two have no error channel, so a fired persistent fault
//! must panic naming the read; returning anything is returning *past* a
//! storage failure — what a caller of a latching kernel does when it skips
//! the poll (`NodeReader::take_error`). Their sweep covers the reads of
//! the two input trees, not of the Voronoi R-trees they build inside.

use cij::core::ProgressSample;
use cij::pagestore::{BackendIo, IoOp, IoSnapshot};
use cij::prelude::*;
use cij::rtree::RTreeConfig;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const REGIMES: [FaultKind; 2] = [FaultKind::Persistent, FaultKind::Transient];

/// Small pages, so a few hundred points make trees of several levels. The
/// store arms a fault in a wrapper around its backend, so the default heap
/// backend stands for both.
fn sweep_config(mode: ExecMode, workers: usize) -> CijConfig {
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
        .with_exec_mode(mode)
        .with_worker_threads(workers)
}

/// Runs `case(tree, profile)` for read attempt `at = 0, 1, …` of each of
/// `trees` trees, failing with `kind`; `case` says whether the armed fault
/// fired, and a tree's sweep ends at the first attempt where it did not.
/// Returns the number of runs it fired in.
fn sweep(trees: usize, kind: FaultKind, mut case: impl FnMut(usize, FaultProfile) -> bool) -> u64 {
    let mut fired = 0;
    for tree in 0..trees {
        for at in 0.. {
            if !case(tree, FaultProfile::fail_read(at, kind)) {
                break;
            }
            fired += 1;
        }
    }
    fired
}

/// The attempt and kind of a swept read fault.
fn attempt(profile: FaultProfile) -> (u64, FaultKind) {
    let FaultProfile::FailAt { at, kind, .. } = profile else {
        unreachable!("the sweep arms read faults only")
    };
    (at, kind)
}

/// Checks that `error` is the one `profile` injected: the failed read,
/// named by its attempt.
fn assert_names_the_read(label: &str, error: &PageIoError, profile: FaultProfile) {
    let (at, kind) = attempt(profile);
    let expected = (kind, IoOp::Read, format!("injected at read attempt {at}"));
    let got = (error.kind, error.op, error.detail.clone());
    assert_eq!(got, expected, "{label}: {error}");
}

/// Whether the fault `profile` armed on a tree with counters `faults`
/// fired, and whether it must fail the run: a fired transient must have
/// been retried, and recovered, exactly once.
fn fired(label: &str, profile: FaultProfile, faults: FaultStats) -> (bool, bool) {
    let fired = faults.injected_read_faults > 0;
    let persistent = attempt(profile).1 == FaultKind::Persistent;
    let retried = u64::from(fired && !persistent);
    let counts = (faults.retries, faults.recoveries);
    assert_eq!(counts, (retried, retried), "{label}: {faults:?}");
    (fired, fired && persistent)
}

/// Everything one streamed run shows that a transient fault must not move.
#[derive(Debug, PartialEq)]
struct Observed<T, C> {
    rows: Vec<T>,
    error: Option<PageIoError>,
    watermarks: Vec<LeafWatermark>,
    progress: Vec<ProgressSample>,
    counters: C,
    io: IoSnapshot,
    /// Metered bytes read and written. A worker pool's schedule moves the
    /// unmetered cold-peek bytes, so those are left out.
    metered_bytes: (u64, u64),
}

fn metered(io: BackendIo) -> (u64, u64) {
    (io.bytes_read, io.bytes_written)
}

/// How the persistent runs of one sweep ended.
#[derive(Debug, Default)]
struct Tally {
    /// Failed with nothing emitted.
    failed_empty: u64,
    /// Failed after emitting watermark-covered rows.
    failed_midway: u64,
}

impl Tally {
    /// Checks one run against the clean one: equal unless it must fail;
    /// if it must, a fail-stop at a watermark with the error naming the
    /// read.
    fn check<T: PartialEq + Debug, C: PartialEq + Debug>(
        &mut self,
        label: &str,
        profile: FaultProfile,
        fails: bool,
        run: Observed<T, C>,
        clean: &Observed<T, C>,
    ) {
        if !fails {
            assert_eq!(
                &run, clean,
                "{label}: a retried or unfired fault moved the run"
            );
            return;
        }
        let Some(error) = run.error.as_ref() else {
            panic!("{label}: the fault fired, but the run completed");
        };
        assert_names_the_read(label, error, profile);
        let marks = run.watermarks.len();
        assert_eq!(run.watermarks, clean.watermarks[..marks], "{label}");
        let covered = run.watermarks.last().map_or(0, |w| w.rows) as usize;
        assert_eq!(
            run.rows.len(),
            covered,
            "{label}: rows past the last watermark were emitted before {error}"
        );
        assert_eq!(
            run.rows,
            clean.rows[..covered],
            "{label}: the prefix diverged"
        );
        if covered == 0 {
            self.failed_empty += 1;
        } else {
            self.failed_midway += 1;
        }
    }
}

#[test]
fn nm_fail_stops_at_a_watermark_or_retries_invisibly_at_every_fault_point() {
    let p = uniform_points(120, &Rect::DOMAIN, 9_101);
    let q = uniform_points(120, &Rect::DOMAIN, 9_102);
    for (mode, workers) in [
        (ExecMode::Metered, 1),
        (ExecMode::Metered, 2),
        (ExecMode::Fast, 2),
    ] {
        // Two-page buffers: a metered join reads each page once, at a
        // worker's peek of a page the buffer does not hold (its replays
        // read nothing), so only a tight buffer gives the sweep enough
        // read attempts on inputs this small.
        let config = sweep_config(mode, workers).with_min_buffer_pages(2);
        let engine = QueryEngine::new(config);
        let run = |armed: Option<(usize, FaultProfile)>| {
            let mut w = engine.build_workload(&p, &q);
            if let Some((tree, profile)) = armed {
                [&mut w.rp, &mut w.rq][tree].inject_fault(profile);
            }
            let mut stream = engine.stream(&mut w, Algorithm::NmCij);
            let rows: Vec<(u64, u64)> = stream.by_ref().collect();
            let (error, watermarks) = (stream.io_error(), stream.watermarks_so_far());
            let (progress, counters) = (stream.progress_so_far(), stream.profile_so_far().work);
            let drained = stream.try_into_outcome().err();
            assert_eq!(drained, error, "the outcome carries the streamed error");
            let faults = armed.map(|(tree, _)| [&w.rp, &w.rq][tree].fault_stats());
            let observed: Observed<_, WorkCounts> = Observed {
                rows,
                error,
                watermarks,
                progress,
                counters,
                io: w.stats.snapshot(),
                metered_bytes: metered(w.backend_io()),
            };
            (observed, faults.unwrap_or_default())
        };
        let (clean, _) = run(None);
        assert!(clean.error.is_none() && !clean.rows.is_empty());
        for kind in REGIMES {
            let mut tally = Tally::default();
            let fired = sweep(2, kind, |tree, profile| {
                let label = format!("{mode:?} on {workers}, tree {tree}, {profile:?}");
                let (observed, faults) = run(Some((tree, profile)));
                let (fired, fails) = fired(&label, profile, faults);
                tally.check(&label, profile, fails, observed, &clean);
                fired
            });
            assert!(fired > 20, "{mode:?} on {workers}: {fired} fault points");
            if kind == FaultKind::Persistent {
                let label = format!("{mode:?} on {workers}: {tally:?}");
                assert!(tally.failed_empty > 0 && tally.failed_midway > 0, "{label}");
            }
        }
    }
}

#[test]
fn multiway_fail_stops_at_a_watermark_or_retries_invisibly_at_every_fault_point() {
    // Two-page buffers, as in the NM sweep: a metered join reads a page only
    // at a worker's peek of a page the buffer does not hold, so a tight
    // buffer is what gives these small sets enough read attempts.
    let config = sweep_config(ExecMode::Metered, 2).with_min_buffer_pages(2);
    let engine = QueryEngine::new(config);
    let sets = vec![
        uniform_points(140, &Rect::DOMAIN, 9_103),
        uniform_points(130, &Rect::DOMAIN, 9_104),
        uniform_points(120, &Rect::DOMAIN, 9_105),
    ];
    let run = |armed: Option<(usize, FaultProfile)>| {
        let mut w = engine.multiway_workload(&sets);
        if let Some((tree, profile)) = armed {
            w.trees[tree].inject_fault(profile);
        }
        let mut stream = engine.multiway_stream(&mut w);
        let rows: Vec<Vec<u64>> = stream.by_ref().map(|t| t.ids).collect();
        let (error, watermarks) = (stream.io_error(), stream.watermarks_so_far());
        let (progress, counters) = (stream.progress_so_far(), stream.profile_so_far().work);
        let faults = armed.map(|(tree, _)| w.trees[tree].fault_stats());
        let observed: Observed<_, WorkCounts> = Observed {
            rows,
            error,
            watermarks,
            progress,
            counters,
            io: w.stats.snapshot(),
            metered_bytes: metered(w.backend_io()),
        };
        (observed, faults.unwrap_or_default())
    };
    let (clean, _) = run(None);
    assert!(clean.error.is_none() && !clean.rows.is_empty());
    for kind in REGIMES {
        let mut tally = Tally::default();
        let fired = sweep(sets.len(), kind, |tree, profile| {
            let label = format!("tree {tree}, {profile:?}");
            let (observed, faults) = run(Some((tree, profile)));
            let (fired, fails) = fired(&label, profile, faults);
            tally.check(&label, profile, fails, observed, &clean);
            fired
        });
        assert!(fired > 20, "{fired} fault points");
        if kind == FaultKind::Persistent {
            assert!(
                tally.failed_empty > 0 && tally.failed_midway > 0,
                "{tally:?}"
            );
        }
    }
}

#[test]
fn fm_and_pm_return_clean_pairs_or_panic_naming_the_read_at_every_fault_point() {
    let engine = QueryEngine::new(sweep_config(ExecMode::Metered, 1));
    let p = uniform_points(100, &Rect::DOMAIN, 9_109);
    let q = uniform_points(100, &Rect::DOMAIN, 9_110);
    for algorithm in [Algorithm::FmCij, Algorithm::PmCij] {
        let name = algorithm.name();
        // Pairs, page accesses and metered bytes of a run that returned.
        let run = |armed: Option<(usize, FaultProfile)>| {
            let mut w = engine.build_workload(&p, &q);
            if let Some((tree, profile)) = armed {
                [&mut w.rp, &mut w.rq][tree].inject_fault(profile);
            }
            let returned = catch_unwind(AssertUnwindSafe(|| engine.run(&mut w, algorithm)));
            let latched = (w.rp.take_io_error(), w.rq.take_io_error());
            assert_eq!(latched, (None, None), "{name}: an error outlived the run");
            let faults = armed.map(|(tree, _)| [&w.rp, &w.rq][tree].fault_stats());
            let returned = returned.map(|outcome| {
                let io = (w.stats.snapshot(), metered(w.backend_io()));
                (outcome.sorted_pairs(), io)
            });
            (returned, faults.unwrap_or_default())
        };
        let clean = run(None).0.expect("the clean run returns");
        assert!(!clean.0.is_empty());
        for kind in REGIMES {
            let fired = sweep(2, kind, |tree, profile| {
                let label = format!("{name}, tree {tree}, {profile:?}");
                let (returned, faults) = run(Some((tree, profile)));
                let (fired, fails) = fired(&label, profile, faults);
                match returned {
                    // (Not `assert_eq!`: a divergence would print both sets.)
                    Ok(returned) => assert!(
                        !fails && returned == clean,
                        "{label}: returned past a failed read, or diverged"
                    ),
                    Err(payload) => {
                        let message = payload.downcast_ref::<String>().expect("a formatted panic");
                        let named = format!(": injected at read attempt {}", attempt(profile).0);
                        assert!(
                            fails
                                && message.contains("persistent read error on frame")
                                && message.ends_with(&named),
                            "{label}: {message}"
                        );
                    }
                }
                fired
            });
            assert!(fired >= 10, "{name}: {fired} fault points");
        }
    }
}

#[test]
fn served_grouped_nn_answers_with_the_clean_counts_or_none_at_every_fault_point() {
    let config = sweep_config(ExecMode::Metered, 2);
    let sets = [
        uniform_points(120, &Rect::DOMAIN, 9_106),
        uniform_points(120, &Rect::DOMAIN, 9_107),
    ];
    let locations = uniform_points(500, &Rect::DOMAIN, 9_108);
    // The frames and the completion's (rows, page accesses, watermarks) of
    // one served request, and the armed tree's fault counters.
    let serve = |armed: Option<(usize, FaultProfile)>| {
        let mut snapshot = EngineSnapshot::build(&sets, &config);
        if let Some((tree, profile)) = armed {
            snapshot.tree_mut(tree).inject_fault(profile);
        }
        let snapshot = Arc::new(snapshot);
        let service = CijService::start(Arc::clone(&snapshot), ServiceConfig::default());
        let request = Request::GroupedNn {
            p: 0,
            q: 1,
            locations: locations.clone(),
        };
        let handle = service.submit(request).unwrap();
        let frames: Vec<Batch> = std::iter::from_fn(|| handle.next_batch()).collect();
        let done = handle.completion();
        service.shutdown();
        let faults = armed.map(|(tree, _)| snapshot.tree(tree).fault_stats());
        let summary = (done.rows, done.page_accesses, done.watermarks);
        (frames, done, summary, faults.unwrap_or_default())
    };
    let (frames, done, clean_summary, _) = serve(None);
    let [Batch::Groups(clean)] = &frames[..] else {
        panic!("the clean request answers with one count frame: {frames:?}")
    };
    assert!(!done.failed);
    assert_eq!(clean.values().sum::<u64>(), 500);

    for kind in REGIMES {
        let (mut failed_empty, mut failed_midway) = (0, 0);
        let fired = sweep(2, kind, |tree, profile| {
            let label = format!("tree {tree}, {profile:?}");
            let (frames, done, summary, faults) = serve(Some((tree, profile)));
            let (fired, fails) = fired(&label, profile, faults);
            match &frames[..] {
                [Batch::Groups(counts)] if !fails => {
                    assert!(!done.failed, "{label}");
                    assert_eq!(counts, clean, "{label}: completed but diverged");
                    assert_eq!(summary, clean_summary, "{label}");
                }
                [Batch::Error(QueryError::Storage(error))] if fails => {
                    assert_names_the_read(&label, error, profile);
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
            fired
        });
        assert!(fired > 20, "{fired} fault points");
        if kind == FaultKind::Persistent {
            assert!(
                failed_empty > 0 && failed_midway > 0,
                "{failed_empty} / {failed_midway}"
            );
        }
    }
}
