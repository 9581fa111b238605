//! Fault-storm experiment: the robustness contract under injected I/O
//! faults, asserted hard enough to fail CI on a regression.
//!
//! **Part 1 — transient storm parity.** On every storage backend, NM-CIJ
//! runs once clean and once under a seeded transient fault schedule
//! (`FaultSpec::transient`: ~1 fault per 16 I/O opportunities, plus
//! virtual latency). The page store's bounded retry-with-backoff must
//! absorb every injected fault *invisibly*: byte-identical pairs,
//! identical NM counters and identical counted page accesses — faults and
//! recoveries are visible only in the [`FaultStats`] ledger, which must
//! show the storm actually happened (injected > 0, recovered == injected
//! reads).
//!
//! **Part 2 — persistent corruption under concurrency.** A serving
//! snapshot gets one frame of one tree bit-rotted ([`FaultSpec::corrupt_frame`]
//! — every cold read of that page fails its checksum). A query whose join
//! touches the poisoned tree must end with a structured terminal
//! [`Batch::Error`]`(`[`QueryError::Storage`]`)` frame naming the corrupt
//! page, while concurrent queries on healthy trees complete
//! oracle-identically — graceful degradation, not collateral damage.
//!
//! [`FaultStats`]: cij_pagestore::FaultStats

use crate::util::{paper_config, print_header, print_row, scaled, secs, Args};
use cij_core::{
    Algorithm, Batch, CijService, EngineSnapshot, QueryEngine, QueryError, Request, ServiceConfig,
    StorageBackend,
};
use cij_datagen::uniform_points;
use cij_geom::Rect;
use cij_pagestore::{FaultKind, FaultSpec, FaultStats};
use cij_rtree::SnapshotReader;
use std::sync::Arc;
use std::time::Instant;

/// Combined fault ledger of a workload's two trees.
fn storm_ledger(a: FaultStats, b: FaultStats) -> FaultStats {
    FaultStats {
        injected_read_faults: a.injected_read_faults + b.injected_read_faults,
        injected_write_faults: a.injected_write_faults + b.injected_write_faults,
        injected_bit_flips: a.injected_bit_flips + b.injected_bit_flips,
        injected_latency_ticks: a.injected_latency_ticks + b.injected_latency_ticks,
        retries: a.retries + b.retries,
        recoveries: a.recoveries + b.recoveries,
        write_retries: a.write_retries + b.write_retries,
        quarantined_frames: a.quarantined_frames + b.quarantined_frames,
    }
}

/// Runs the fault-storm experiment. `--scale` scales the 100 K default
/// cardinality.
pub fn run(args: &Args) {
    let scale: f64 = args.get("scale", 0.02);
    let n = scaled(100_000, scale);
    let p = uniform_points(n, &Rect::DOMAIN, 17_001);
    let q = uniform_points(n, &Rect::DOMAIN, 17_002);

    print_header(
        &format!("Fault storm: NM-CIJ under seeded transient faults, |P| = |Q| = {n}"),
        &[
            "backend",
            "variant",
            "pairs",
            "page accesses",
            "injected",
            "retries",
            "recovered",
            "wall (s)",
        ],
    );

    let mut violations: Vec<String> = Vec::new();
    for backend in StorageBackend::ALL {
        let config = paper_config().with_storage_backend(backend);
        let engine = QueryEngine::new(config);
        let mut rows = Vec::new();
        for variant in ["clean", "transient"] {
            let mut w = engine.build_workload(&p, &q);
            // Both variants start cold so metered physical reads agree.
            w.reset_measurement();
            if variant == "transient" {
                w.rp.inject_fault(FaultSpec::transient(0x5708_0001));
                w.rq.inject_fault(FaultSpec::transient(0x5708_0002));
            }
            let start = Instant::now();
            let outcome = engine.run(&mut w, Algorithm::NmCij);
            let wall = secs(start.elapsed());
            let ledger = storm_ledger(w.rp.fault_stats(), w.rq.fault_stats());
            let injected = ledger.injected_read_faults + ledger.injected_write_faults;
            print_row(&[
                backend.to_string(),
                variant.to_string(),
                outcome.pairs.len().to_string(),
                outcome.page_accesses().to_string(),
                injected.to_string(),
                ledger.retries.to_string(),
                ledger.recoveries.to_string(),
                format!("{wall:.3}"),
            ]);
            if variant == "transient" {
                if injected == 0 {
                    violations.push(format!("{backend}: the storm injected no faults"));
                }
                if ledger.recoveries < ledger.injected_read_faults {
                    violations.push(format!(
                        "{backend}: {} injected read faults but only {} recoveries",
                        ledger.injected_read_faults, ledger.recoveries
                    ));
                }
            }
            rows.push(outcome);
        }
        let (clean, stormy) = (&rows[0], &rows[1]);
        if clean.sorted_pairs() != stormy.sorted_pairs() {
            violations.push(format!(
                "{backend}: pair set diverged under transient faults"
            ));
        }
        if clean.nm != stormy.nm {
            violations.push(format!(
                "{backend}: NM counters diverged under transient faults"
            ));
        }
        if clean.page_accesses() != stormy.page_accesses() {
            violations.push(format!(
                "{backend}: page accesses {} clean vs {} under faults",
                clean.page_accesses(),
                stormy.page_accesses()
            ));
        }
    }

    // Part 2: persistent corruption fails only the query that touches it.
    let sets = vec![
        uniform_points(n.max(4), &Rect::DOMAIN, 17_003),
        uniform_points(n.max(4), &Rect::DOMAIN, 17_004),
        uniform_points(n.max(4), &Rect::DOMAIN, 17_005),
        uniform_points(n.max(4), &Rect::DOMAIN, 17_006),
    ];
    let oracle = {
        let engine = QueryEngine::new(paper_config());
        let mut w = engine.build_workload(&sets[2], &sets[3]);
        engine.run(&mut w, Algorithm::NmCij).sorted_pairs()
    };
    let mut snapshot = EngineSnapshot::build(&sets, &paper_config());
    let leaves =
        SnapshotReader::new(snapshot.tree(1)).leaf_pages_hilbert_order(&paper_config().domain);
    let target = leaves[leaves.len() / 2];
    {
        let tree = snapshot.tree_mut(1);
        tree.flush();
        tree.drop_buffer();
        tree.inject_fault(FaultSpec::corrupt_frame(target.0));
    }
    let service = CijService::start(
        Arc::new(snapshot),
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );

    print_header(
        &format!(
            "Fault storm: corrupt frame {} under concurrent service load",
            target.0
        ),
        &["query", "status", "rows", "error"],
    );
    let poisoned = service.submit(Request::Join { p: 0, q: 1 }).expect("queue");
    let healthy: Vec<_> = (0..4)
        .map(|_| service.submit(Request::Join { p: 2, q: 3 }).expect("queue"))
        .collect();

    let mut frame_error = None;
    while let Some(batch) = poisoned.next_batch() {
        if let Batch::Error(err) = batch {
            frame_error = Some(err);
        }
    }
    let completion = poisoned.completion();
    print_row(&[
        "poisoned join(0,1)".to_string(),
        if completion.failed { "failed" } else { "ok" }.to_string(),
        completion.rows.to_string(),
        completion
            .error
            .as_ref()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "-".to_string()),
    ]);
    match frame_error {
        Some(QueryError::Storage(e)) if e.kind == FaultKind::Corrupt => {
            if e.page != Some(target.0) {
                violations.push(format!(
                    "corrupt error names page {:?}, expected {}",
                    e.page, target.0
                ));
            }
        }
        other => violations.push(format!(
            "poisoned query should fail with a Corrupt storage error, got {other:?}"
        )),
    }
    if !completion.failed {
        violations.push("poisoned query completion not marked failed".to_string());
    }

    for (i, handle) in healthy.into_iter().enumerate() {
        let mut pairs = handle.collect_pairs();
        let done = handle.completion();
        pairs.sort_unstable();
        pairs.dedup();
        let ok = !done.failed && pairs == oracle;
        print_row(&[
            format!("healthy join(2,3) #{i}"),
            if ok { "ok" } else { "DIVERGED" }.to_string(),
            done.rows.to_string(),
            "-".to_string(),
        ]);
        if !ok {
            violations.push(format!(
                "healthy query {i} diverged from the oracle (failed = {})",
                done.failed
            ));
        }
    }
    service.shutdown();

    println!(
        "shape check: transient storms are invisible (identical pairs/counters/accesses, \
         recoveries == injected reads); persistent corruption fails exactly the poisoned \
         query with a structured Corrupt error while healthy queries stay oracle-identical"
    );
    assert!(
        violations.is_empty(),
        "fault-tolerance contract violated: {violations:?}"
    );
}
