//! Quickstart: run the Common Influence Join through the [`QueryEngine`],
//! watch NM-CIJ stream its first pairs, and contrast the parameter-free
//! join with a traditional ε-distance join.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use cij::prelude::*;
use cij::rtree::distance_join;

fn main() {
    // Two synthetic pointsets in the paper's normalised domain [0, 10000]².
    let p = uniform_points(2_000, &Rect::DOMAIN, 1);
    let q = uniform_points(2_000, &Rect::DOMAIN, 2);

    // The engine owns the configuration (1 KB pages, 2 % LRU buffer,
    // bounded Voronoi cell cache) and is the single entry point for every
    // join operation.
    let engine = QueryEngine::new(CijConfig::default());
    let mut workload = engine.build_workload(&p, &q);
    println!(
        "indexed |P| = {} and |Q| = {} points ({} + {} R-tree pages)",
        p.len(),
        q.len(),
        workload.rp.num_pages(),
        workload.rq.num_pages()
    );

    // --- Streaming: NM-CIJ is non-blocking. ---------------------------------
    // Pull a handful of pairs and observe how little I/O they cost compared
    // to the full join: this is the paper's headline property, made
    // observable by the lazy PairStream.
    let stats = workload.stats.clone();
    let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
    let first: Vec<(u64, u64)> = stream.by_ref().take(5).collect();
    let accesses_at_first = stats.snapshot().page_accesses();
    println!(
        "\nfirst {} pairs after only {accesses_at_first} page accesses:",
        first.len()
    );
    for (pi, qi) in &first {
        println!(
            "  pair: p{}{} joins q{}{}",
            pi, p[*pi as usize], qi, q[*qi as usize]
        );
    }

    // --- Drain the rest of the stream into the classic outcome. A stream
    // hands a storage failure out as `Err` (only `engine.run` panics on
    // one); this in-memory demo has no way to meet it. ---
    let result = stream
        .try_into_outcome()
        .expect("an in-memory workload cannot fail a read");
    let total_pairs = first.len() + result.pairs.len();
    println!(
        "\nNM-CIJ produced {} pairs with {} page accesses (lower bound {})",
        total_pairs,
        result.page_accesses(),
        workload.lower_bound_io()
    );
    println!(
        "filter false-hit ratio: {:.3}, exact P-cells computed: {}, reused: {} ({} evictions)",
        result.profile.false_hit_ratio(),
        result.profile.work.cells[0].computed,
        result.profile.work.cells[0].reused,
        result.profile.work.cells[0].evicted
    );

    // Contrast: an ε-distance join needs a distance threshold, and its result
    // size swings wildly with that parameter — the burden CIJ removes.
    let mut workload = engine.build_workload(&p, &q);
    for eps in [50.0, 150.0, 400.0] {
        let pairs = distance_join(&mut workload.rp, &mut workload.rq, eps, |a, b| {
            a.point.dist(&b.point)
        });
        println!("ε-distance join with ε = {eps:>5}: {} pairs", pairs.len());
    }
    println!("CIJ needs no such parameter: its result reflects the two Voronoi diagrams.");
}
