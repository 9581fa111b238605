//! Multiway-CIJ scaling experiment: cost-driven planning vs the PR-4
//! fixed-driver baseline, and thread parity over k ∈ {2, 3, 4} clustered
//! pointsets of *asymmetric* sizes (set `i` holds `n / (i + 1)` points, so
//! driver choice genuinely matters).
//!
//! For every k this experiment runs the multiway join several times over
//! the same pointsets (each run builds its own [`MultiwayWorkload`], so
//! every measurement starts from identical cold trees):
//!
//! * **batched** (the default configuration: one filter call per leaf and
//!   round, cost-based driver, bbox-disjoint narrowing skips) vs **batched
//!   T=4**: the parallel-execution contract — tuples (set *and* order),
//!   [`MultiwayCounters`] and page accesses identical to T=1. (The
//!   per-tuple probing baseline this row used to be compared against was
//!   retired; its last measured delta is in CHANGES.md.)
//! * **unpruned** (cost-based driver, `multiway_prune` off): isolates the
//!   knob's contribution at a fixed plan — identical tuples and identical
//!   [`MultiwayCounters`] (probes, points examined, clip ops: the filter
//!   bounds its cell seeds either way) and page accesses, except that no
//!   bbox-disjoint candidate×partial narrowing is skipped.
//! * **pr4-baseline** ([`MultiwayDriver::Fixed`]`(0)` + pruning off — the
//!   hard-coded plan before cost-driven planning): the planned run must
//!   produce the same tuple set with strictly fewer conditional-filter
//!   invocations (the cheaper driver seeds fewer leaf units). Per-probe
//!   work (points examined, clip ops) is *not* asserted across drivers —
//!   a different driver probes different trees — which is exactly what
//!   the unpruned variant is for.
//!
//! Any violated shape check panics, so the CI smoke run fails on a
//! planning, pruning or parity regression.
//!
//! [`MultiwayCounters`]: cij_core::MultiwayCounters
//! [`MultiwayDriver::Fixed`]: cij_core::MultiwayDriver::Fixed
//! [`MultiwayWorkload`]: cij_core::MultiwayWorkload

use crate::util::{paper_config, print_header, print_row, scaled, secs, Args};
use cij_core::{CijConfig, MultiwayDriver, MultiwayOutcome, QueryEngine};
use cij_datagen::{clustered_points, ClusterSpec};
use cij_geom::{Point, Rect};
use std::time::Instant;

/// The swept input-set counts.
pub const SET_COUNTS: [usize; 3] = [2, 3, 4];

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    clustered_points(
        &ClusterSpec {
            n,
            clusters: 8,
            sigma_fraction: 0.04,
            background_fraction: 0.1,
            size_skew: 0.7,
        },
        &Rect::DOMAIN,
        seed,
    )
}

/// Runs the multiway scaling experiment. `--scale` scales the 100 K default
/// first-set cardinality.
pub fn run(args: &Args) {
    let scale: f64 = args.get("scale", 0.02);
    let n = scaled(100_000, scale);

    print_header(
        &format!(
            "Multiway CIJ: planning and pruning, k clustered sets of n/(i+1) points (n = {n})"
        ),
        &[
            "k",
            "variant",
            "wall (s)",
            "driver",
            "page accesses",
            "filter calls",
            "points examined",
            "clip ops",
            "narrowings skipped",
            "tuples",
            "parity T=4 vs T=1",
        ],
    );

    let mut violations: Vec<String> = Vec::new();
    for k in SET_COUNTS {
        let sets: Vec<Vec<Point>> = (0..k)
            .map(|i| clustered(n / (i + 1), 14_001 + i as u64))
            .collect();
        let base = paper_config().with_min_buffer_pages(1);

        let (batched, batched_wall) = measure(&sets, &base, 1);
        let (parallel, parallel_wall) = measure(&sets, &base, 4);
        // Same plan, pruning off: isolates the bbox-disjoint narrowing skips.
        let (unpruned, unpruned_wall) = measure(&sets, &base.with_multiway_prune(false), 1);
        // The plan the engine hard-coded before cost-driven planning:
        // drive with set 0, no narrowing skips.
        let (baseline, baseline_wall) = measure(
            &sets,
            &base
                .with_multiway_driver(MultiwayDriver::Fixed(0))
                .with_multiway_prune(false),
            1,
        );

        let tuples_ok = parallel
            .tuples
            .iter()
            .map(|t| &t.ids)
            .eq(batched.tuples.iter().map(|t| &t.ids));
        let counters_ok = parallel.counters == batched.counters;
        let io_ok = parallel.page_accesses == batched.page_accesses;
        let parity = if tuples_ok && counters_ok && io_ok {
            "exact".to_string()
        } else {
            let verdict =
                format!("VIOLATED (tuples {tuples_ok}, counters {counters_ok}, io {io_ok})");
            violations.push(format!("k={k}: {verdict}"));
            verdict
        };

        for (outcome, wall, variant, parity) in [
            (&batched, batched_wall, "batched", parity.as_str()),
            (&parallel, parallel_wall, "batched T=4", "see above"),
            (&unpruned, unpruned_wall, "unpruned", "-"),
            (&baseline, baseline_wall, "pr4-baseline", "-"),
        ] {
            print_row(&[
                k.to_string(),
                variant.to_string(),
                format!("{wall:.3}"),
                outcome.driver.to_string(),
                outcome.page_accesses.to_string(),
                outcome.counters.filter_probes.to_string(),
                outcome.counters.filter_points_examined.to_string(),
                outcome.counters.filter_clip_ops.to_string(),
                outcome.counters.narrowings_skipped.to_string(),
                outcome.tuples.len().to_string(),
                parity.to_string(),
            ]);
        }

        if batched.sorted_ids() != baseline.sorted_ids() {
            violations.push(format!("k={k}: cost-driven planning changed the tuple set"));
        }
        if batched.counters.filter_probes >= baseline.counters.filter_probes {
            violations.push(format!(
                "k={k}: cost-driven driver did not reduce filter probes ({} vs {})",
                batched.counters.filter_probes, baseline.counters.filter_probes
            ));
        }
        if batched.sorted_ids() != unpruned.sorted_ids() {
            violations.push(format!("k={k}: pruning changed the tuple set"));
        }
        let mut unpruned_plus_skips = unpruned.counters.clone();
        unpruned_plus_skips.narrowings_skipped = batched.counters.narrowings_skipped;
        if batched.counters != unpruned_plus_skips
            || batched.page_accesses != unpruned.page_accesses
        {
            violations.push(format!(
                "k={k}: pruning must change no counter but the narrowing skips, and no I/O"
            ));
        }
        if batched.counters.narrowings_skipped == 0 || unpruned.counters.narrowings_skipped != 0 {
            violations.push(format!(
                "k={k}: pruning must skip bbox-disjoint narrowings, and only when on ({} vs {})",
                batched.counters.narrowings_skipped, unpruned.counters.narrowings_skipped
            ));
        }
    }

    println!(
        "shape check: per k, the planned run must beat the pr4-baseline on filter calls, \
         pruning must skip bbox-disjoint narrowings and move no other counter, all with \
         identical tuple sets, and the T=4 parity column must read `exact`"
    );
    assert!(
        violations.is_empty(),
        "multiway planning/pruning/parity contract violated: {violations:?}"
    );
}

fn measure(sets: &[Vec<Point>], config: &CijConfig, threads: usize) -> (MultiwayOutcome, f64) {
    // The paper's proportional 2 % buffer without the small-scale absolute
    // floor (like the Fig. 8a sweep): with the floor, reduced-scale trees
    // fit entirely in the buffer and every plan pays exactly one physical
    // read per page — the traversals a cheaper driver saves would be
    // invisible in the page-access column.
    let engine = QueryEngine::new(config.with_worker_threads(threads));
    let mut w = engine.multiway_workload(sets);
    let start = Instant::now();
    let outcome = engine.multiway_stream(&mut w).into_outcome();
    (outcome, secs(start.elapsed()))
}
