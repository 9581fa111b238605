//! Figure 5: cost of individual Voronoi-cell queries — BF-VOR (Algorithm 1)
//! vs the TP-VOR baseline \[10\], on a uniform dataset.
//!
//! The paper uses n = 100 K points and 100 random query points and reports,
//! per query, the R-tree node accesses (Fig. 5a) and CPU time (Fig. 5b).

use crate::util::{print_header, print_row, scaled, Args};
use cij_datagen::uniform_points;
use cij_geom::Rect;
use cij_rtree::{ObjectId, PointObject, RTree, RTreeConfig};
use cij_voronoi::{single_voronoi, tp_voronoi};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Runs the Figure 5 experiment. `--scale` scales the paper's 100 K points;
/// `--queries` sets the number of query points (paper: 100).
pub fn run(args: &Args) {
    let scale: f64 = args.get("scale", 0.1);
    let n = scaled(100_000, scale);
    let queries: usize = args.get("queries", 100);
    let domain = Rect::DOMAIN;

    let points = uniform_points(n, &domain, 5_001);
    let mut tree = RTree::bulk_load(RTreeConfig::default(), PointObject::from_points(&points));
    // 2 % buffer as in the paper, with the 40-page absolute floor used by
    // scaled-down runs (see CijConfig::min_buffer_pages).
    tree.set_buffer_pages(((tree.num_pages() as f64 * 0.02).ceil() as usize).max(40));

    let mut rng = StdRng::seed_from_u64(5_002);
    let query_ids: Vec<usize> = (0..queries).map(|_| rng.gen_range(0..n)).collect();

    print_header(
        &format!("Figure 5: single Voronoi-cell queries (n = {n}, {queries} queries)"),
        &[
            "query",
            "TP-VOR accesses",
            "BF-VOR accesses",
            "TP-VOR cpu(ms)",
            "BF-VOR cpu(ms)",
        ],
    );

    let mut totals = [0u64, 0, 0, 0]; // tp_acc, bf_acc, tp_us, bf_us
    for (qi, &idx) in query_ids.iter().enumerate() {
        let p = points[idx];
        let id = ObjectId(idx as u64);

        tree.drop_buffer();
        tree.stats().reset();
        let t0 = Instant::now();
        let _ = tp_voronoi(&mut tree, p, id, &domain);
        let tp_cpu = t0.elapsed();
        let tp_acc = tree.stats().snapshot().logical_reads;

        tree.drop_buffer();
        tree.stats().reset();
        let t1 = Instant::now();
        let _ = single_voronoi(&mut tree, p, id, &domain);
        let bf_cpu = t1.elapsed();
        let bf_acc = tree.stats().snapshot().logical_reads;

        totals[0] += tp_acc;
        totals[1] += bf_acc;
        totals[2] += tp_cpu.as_micros() as u64;
        totals[3] += bf_cpu.as_micros() as u64;

        // Print the first few individual queries (the paper plots all 100).
        if qi < 10 {
            print_row(&[
                format!("q{qi}"),
                tp_acc.to_string(),
                bf_acc.to_string(),
                format!("{:.3}", tp_cpu.as_secs_f64() * 1e3),
                format!("{:.3}", bf_cpu.as_secs_f64() * 1e3),
            ]);
        }
    }
    let q = queries as f64;
    print_row(&[
        "average".into(),
        format!("{:.1}", totals[0] as f64 / q),
        format!("{:.1}", totals[1] as f64 / q),
        format!("{:.3}", totals[2] as f64 / q / 1e3),
        format!("{:.3}", totals[3] as f64 / q / 1e3),
    ]);
    println!(
        "shape check (paper): BF-VOR below TP-VOR and stable across queries -> {}",
        if totals[1] < totals[0] {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
