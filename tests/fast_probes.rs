//! The fast path records nothing: served fast-mode joins leave the
//! trace-record and replay probes of `cij_rtree::probe` where they were.
//!
//! The probes are process-wide counters, so a sibling test running a metered
//! join on another thread would move them. This binary therefore has exactly
//! **one** `#[test]` — keep it that way. (Result parity of served queries
//! over every backend and pool width, and the cache-budget envelope under
//! quota pressure, live in `tests/fast_mode.rs`.)

use cij::prelude::*;
use cij::rtree::probe;
use std::sync::Arc;

#[test]
fn served_fast_joins_record_no_traces_and_no_replays() {
    let p = uniform_points(500, &Rect::DOMAIN, 17_001);
    let q = uniform_points(500, &Rect::DOMAIN, 17_002);
    let config = CijConfig::default().with_worker_threads(2);

    // The metered oracle on a worker pool traces and replays by design,
    // which also shows the probes count.
    let metered = QueryEngine::new(config.with_exec_mode(ExecMode::Metered));
    let oracle = metered.join(&p, &q, Algorithm::NmCij).pairs;
    assert!(probe::trace_records() > 0 && probe::replays() > 0);

    let engine = QueryEngine::new(config.with_exec_mode(ExecMode::Fast));
    let snapshot = Arc::new(engine.snapshot(&[p, q]));
    for n in [1usize, 4, 16] {
        let service = CijService::start(
            Arc::clone(&snapshot),
            ServiceConfig {
                queue_depth: n.max(4),
                workers: 4,
                ..ServiceConfig::default()
            },
        );
        let before = (probe::trace_records(), probe::replays());
        let handles: Vec<ResponseHandle> = (0..n)
            .map(|_| {
                let join = Request::Join { p: 0, q: 1 };
                service.submit(join).expect("queue sized for the batch")
            })
            .collect();
        for handle in &handles {
            assert_eq!(handle.collect_pairs(), oracle, "N = {n}");
            assert!(!handle.completion().failed, "N = {n}");
        }
        assert_eq!(
            (probe::trace_records(), probe::replays()),
            before,
            "N = {n}: fast queries recorded traces or replayed reads"
        );
        service.shutdown();
    }
}
