//! The query profile's clock, through the public API: at one worker every
//! phase a join exercises takes time, every other phase none, and all of
//! them together fit inside the caller's wall time around the blocking call.
//! The phases are laps of one monotonic clock taken inside that interval
//! and, at one worker, never overlap, so the bound cannot flake.

use cij::prelude::*;
use std::time::{Duration, Instant};

/// What a streaming join (NM-CIJ, multiway) spends time on.
const STREAMED: [Phase; 5] = [
    Phase::Scan,
    Phase::Filter,
    Phase::Refine,
    Phase::Report,
    Phase::Emit,
];

/// What a blocking FM/PM join spends time on.
const BLOCKING: [Phase; 2] = [Phase::Materialise, Phase::Report];

fn engine() -> QueryEngine {
    QueryEngine::new(
        CijConfig::default()
            .with_rtree(RTreeConfig {
                page_size: 512,
                max_entries: 64,
            })
            .with_worker_threads(1),
    )
}

/// Runs `join` and checks its profile against the wall time around it.
fn check(label: &str, exercised: &[Phase], join: impl FnOnce() -> QueryProfile) {
    let start = Instant::now();
    let profile = join();
    let wall = start.elapsed();
    for phase in Phase::ALL {
        let time = profile.elapsed[phase];
        if exercised.contains(&phase) {
            assert!(time > Duration::ZERO, "{label}: {phase:?} took no time");
        } else {
            assert_eq!(time, Duration::ZERO, "{label}: {phase:?} was never run");
        }
    }
    let total = profile.elapsed.total();
    assert!(total <= wall, "{label}: phases {total:?} > wall {wall:?}");
}

#[test]
fn every_exercised_phase_takes_time_and_all_fit_inside_the_blocking_call() {
    let engine = engine();
    let p = uniform_points(600, &Rect::DOMAIN, 7_301);
    let q = uniform_points(500, &Rect::DOMAIN, 7_302);
    for algorithm in Algorithm::ALL {
        let exercised = match algorithm {
            Algorithm::NmCij => &STREAMED[..],
            Algorithm::FmCij | Algorithm::PmCij => &BLOCKING[..],
        };
        let mut w = engine.build_workload(&p, &q);
        check(algorithm.name(), exercised, || {
            engine.run(&mut w, algorithm).profile
        });
    }
    let sets = [7_303, 7_304, 7_305].map(|seed| uniform_points(300, &Rect::DOMAIN, seed));
    let mut w = engine.multiway_workload(&sets);
    check("3-way", &STREAMED, || {
        let stream = engine.multiway_stream(&mut w);
        stream.try_into_outcome().unwrap().profile
    });
}
