//! Fault-tolerance integration tests: back-pressure at the exact queue
//! bound, drain-on-shutdown with queries in flight, deadline and
//! cancellation semantics through the public API, and the property that a
//! transient fault at any read of either tree is invisible to the join.

use cij::prelude::*;
use cij::rtree::RTreeConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// Small pages so even modest datasets produce multi-level trees.
fn test_config() -> CijConfig {
    CijConfig::default().with_rtree(RTreeConfig {
        page_size: 512,
        max_entries: 64,
    })
}

#[test]
fn queue_full_fires_exactly_at_the_queue_depth_boundary() {
    let sets = vec![
        uniform_points(2_000, &Rect::DOMAIN, 7_101),
        uniform_points(2_000, &Rect::DOMAIN, 7_102),
    ];
    let depth = 3;
    let service = CijService::start(
        Arc::new(EngineSnapshot::build(&sets, &test_config())),
        ServiceConfig {
            queue_depth: depth,
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let busy = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
    // The first batch proves the single worker popped the job, so the
    // queue is empty and the worker is occupied for a while.
    assert!(busy.next_batch().is_some());
    // Exactly `depth` submits fit; the next one must bounce.
    let queued: Vec<ResponseHandle> = (0..depth)
        .map(|i| {
            service
                .submit(Request::Join { p: 0, q: 1 })
                .unwrap_or_else(|_| panic!("submit {i} is within the depth-{depth} bound"))
        })
        .collect();
    assert_eq!(
        service.submit(Request::Join { p: 0, q: 1 }).unwrap_err(),
        QueueFull,
        "submit {depth} exceeds the bound"
    );
    // Back-pressure rejected the overflow but every accepted request still
    // completes.
    for handle in queued {
        assert!(!handle.completion().failed);
    }
    assert!(!busy.completion().failed);
    service.shutdown();
}

#[test]
fn shutdown_drains_queries_still_in_flight() {
    let sets = vec![
        uniform_points(300, &Rect::DOMAIN, 7_103),
        uniform_points(300, &Rect::DOMAIN, 7_104),
    ];
    let oracle = brute_force_cij(&sets[0], &sets[1], &test_config().domain);
    let service = CijService::start(
        Arc::new(EngineSnapshot::build(&sets, &test_config())),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let handles: Vec<ResponseHandle> = (0..8)
        .map(|_| service.submit(Request::Join { p: 0, q: 1 }).unwrap())
        .collect();
    // Shut down while most of those are still queued or running: the drain
    // contract says every accepted request completes first.
    service.shutdown();
    for handle in handles {
        let mut pairs = handle.collect_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, oracle);
        assert!(!handle.completion().failed);
    }
}

#[test]
fn deadlines_and_cancellation_through_the_public_api() {
    let sets = vec![
        uniform_points(400, &Rect::DOMAIN, 7_105),
        uniform_points(400, &Rect::DOMAIN, 7_106),
    ];
    let clock = Arc::new(ManualClock::new());
    // One worker makes the cancellation below deterministic: the cancelled
    // query sits queued behind a busy one when the flag is raised.
    let service = CijService::start_with_clock(
        Arc::new(EngineSnapshot::build(&sets, &test_config())),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn ServiceClock>,
    );
    // Expired-on-arrival deadline: fails at the first watermark boundary.
    let doomed = service
        .submit_with_deadline(Request::Join { p: 0, q: 1 }, Some(0))
        .unwrap();
    let completion = doomed.completion();
    assert!(completion.failed);
    assert_eq!(completion.error, Some(QueryError::DeadlineExceeded));
    // A roomy deadline on the frozen clock never fires.
    let fine = service
        .submit_with_deadline(Request::Multiway { sets: vec![0, 1] }, Some(1 << 40))
        .unwrap();
    assert!(!fine.collect_tuples().is_empty());
    assert!(!fine.completion().failed);
    // Cancellation: raise the flag while the query is still queued behind a
    // busy one; it must end with a Cancelled error, the busy one untouched.
    let busy = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
    let cancelled = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
    cancelled.cancel();
    let completion = cancelled.completion();
    assert!(completion.failed);
    assert_eq!(completion.error, Some(QueryError::Cancelled));
    assert!(!busy.completion().failed);
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A transient fault at any read attempt of either tree must be
    /// invisible: the store's retry absorbs it, so the faulty run emits the
    /// exact pairs, counters and page accesses of the clean run.
    #[test]
    fn transient_schedules_never_change_the_emitted_pairs(
        seed in 0u64..u64::MAX,
        n in 50usize..150,
        threads in 1usize..4,
        tree in 0usize..2,
        at in 0u64..24,
    ) {
        let config = test_config().with_worker_threads(threads);
        let p = uniform_points(n, &Rect::DOMAIN, seed ^ 0x0A11);
        let q = uniform_points(n, &Rect::DOMAIN, seed ^ 0x0B22);
        let clean = {
            let mut w = Workload::build(&p, &q, &config);
            w.reset_measurement();
            nm_cij(&mut w, &config)
        };
        let (faulty, faults) = {
            let mut w = Workload::build(&p, &q, &config);
            w.reset_measurement();
            let profile = FaultProfile::fail_read(at, FaultKind::Transient);
            [&mut w.rp, &mut w.rq][tree].inject_fault(profile);
            let outcome = nm_cij(&mut w, &config);
            (outcome, [&w.rp, &w.rq][tree].fault_stats())
        };
        prop_assert_eq!(faults.recoveries, faults.injected_read_faults);
        prop_assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs());
        prop_assert_eq!(clean.profile.work, faulty.profile.work);
        prop_assert_eq!(clean.page_accesses(), faulty.page_accesses());
    }
}
