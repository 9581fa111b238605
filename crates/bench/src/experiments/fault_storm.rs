//! Fault-storm experiment: the robustness contract under injected I/O
//! faults, asserted hard enough to fail CI on a regression.
//!
//! 1. On every storage backend NM-CIJ runs clean and under a seeded
//!    transient schedule (`FaultSpec::transient`). The store's bounded retry
//!    must absorb every fault invisibly — identical pairs, NM counters and
//!    page accesses — while its `FaultStats` show the storm happened.
//! 2. A serving snapshot gets one frame bit-rotted
//!    (`FaultSpec::corrupt_frame`). The query touching it must end with a
//!    structured `Batch::Error(QueryError::Storage)` naming the page, while
//!    concurrent queries on healthy trees stay oracle-identical.

use crate::util::{row, scaled, Table};
use cij_core::{
    Algorithm, Batch, CijConfig, CijService, EngineSnapshot, QueryEngine, QueryError, Request,
    ServiceConfig, StorageBackend,
};
use cij_datagen::uniform_points;
use cij_geom::Rect;
use cij_pagestore::{FaultKind, FaultSpec, FaultStats};
use cij_rtree::SnapshotReader;
use std::sync::Arc;
use std::time::Instant;

/// Runs the fault-storm experiment at `scale` of the 100 K default
/// cardinality; panics on a violated contract.
pub fn run(scale: f64) {
    let n = scaled(100_000, scale);
    let p = uniform_points(n, &Rect::DOMAIN, 17_001);
    let q = uniform_points(n, &Rect::DOMAIN, 17_002);
    let columns = [
        "backend", "variant", "pairs", "accesses", "injected", "retries",
    ];
    let mut storm = Table::new(&[&columns[..], &["recovered", "wall s"]].concat(), 1);
    let mut violations: Vec<String> = Vec::new();
    // Records a violation of the contract unless `$holds`.
    macro_rules! check {
        ($holds:expr, $($why:tt)+) => { if !$holds { violations.push(format!($($why)+)) } };
    }
    for backend in StorageBackend::ALL {
        let engine = QueryEngine::new(CijConfig::default().with_storage_backend(backend));
        let mut runs = Vec::new();
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
            let wall = format!("{:.3}", start.elapsed().as_secs_f64());
            let (a, b) = (w.rp.fault_stats(), w.rq.fault_stats());
            let sum = |field: fn(&FaultStats) -> u64| field(&a) + field(&b);
            let reads = sum(|f| f.injected_read_faults);
            let injected = reads + sum(|f| f.injected_write_faults);
            let (retries, recovered) = (sum(|f| f.retries), sum(|f| f.recoveries));
            let (pairs, accesses) = (outcome.pairs.len(), outcome.page_accesses());
            let cells = row![backend, variant, pairs, accesses, injected, retries, recovered, wall];
            storm.rows.push(cells);
            if variant == "transient" {
                check!(injected > 0, "{backend}: the storm injected no faults");
                check!(
                    recovered >= reads,
                    "{backend}: {recovered} of {reads} recovered"
                );
            }
            runs.push(outcome);
        }
        let (clean, stormy) = (&runs[0], &runs[1]);
        let (before, after) = (clean.page_accesses(), stormy.page_accesses());
        let same_pairs = clean.sorted_pairs() == stormy.sorted_pairs();
        check!(same_pairs, "{backend}: pairs diverged");
        check!(clean.nm == stormy.nm, "{backend}: NM counters diverged");
        check!(
            before == after,
            "{backend}: page accesses {before} vs {after}"
        );
    }

    // Part 2: persistent corruption fails only the query that touches it.
    let seeds = [17_003, 17_004, 17_005, 17_006];
    let sets = seeds.map(|seed| uniform_points(n.max(4), &Rect::DOMAIN, seed));
    let oracle = QueryEngine::new(CijConfig::default());
    let oracle = oracle.join(&sets[2], &sets[3], Algorithm::NmCij);
    let mut snapshot = EngineSnapshot::build(&sets, &CijConfig::default());
    let leaves = SnapshotReader::new(snapshot.tree(1)).leaf_pages_hilbert_order(&Rect::DOMAIN);
    let target = leaves[leaves.len() / 2].0;
    let tree = snapshot.tree_mut(1);
    tree.flush();
    tree.drop_buffer();
    tree.inject_fault(FaultSpec::corrupt_frame(target));
    let config = ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    };
    let service = CijService::start(Arc::new(snapshot), config);
    let mut served = Table::new(&["query", "status", "rows", "error"], 0);
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
    let done = poisoned.completion();
    let error = done.error.as_ref().map(|e| e.to_string());
    let (name, status) = (
        "poisoned join(0,1)",
        if done.failed { "failed" } else { "ok" },
    );
    let error = error.as_deref().unwrap_or("-");
    served.rows.push(row![name, status, done.rows, error]);
    match frame_error {
        Some(QueryError::Storage(e)) if e.kind == FaultKind::Corrupt => {
            let page = e.page;
            check!(
                page == Some(target),
                "error names page {page:?}, not {target}"
            );
        }
        other => check!(false, "no Corrupt storage error but {other:?}"),
    }
    check!(done.failed, "poisoned query completion not marked failed");

    for (i, handle) in healthy.into_iter().enumerate() {
        let mut pairs = handle.collect_pairs();
        let done = handle.completion();
        pairs.sort_unstable();
        pairs.dedup();
        let ok = !done.failed && pairs == oracle.sorted_pairs();
        let (name, status) = (
            format!("healthy join(2,3) #{i}"),
            if ok { "ok" } else { "DIVERGED" },
        );
        served.rows.push(row![name, status, done.rows, "-"]);
        let failed = done.failed;
        check!(
            ok,
            "healthy query {i} diverged from the oracle (failed = {failed})"
        );
    }
    service.shutdown();

    println!("## Fault storm: NM-CIJ under seeded transient faults, |P| = |Q| = {n}\n");
    println!("{}", storm.markdown(true));
    println!("## Fault storm: corrupt frame {target} under concurrent load\n");
    println!("{}", served.markdown(true));
    println!(
        "Contract: transient storms are invisible (identical pairs, counters and accesses, \
         every injected read recovered); persistent corruption fails exactly the poisoned \
         query with a structured Corrupt error while healthy queries stay oracle-identical."
    );
    assert!(violations.is_empty(), "contract violated: {violations:?}");
}
