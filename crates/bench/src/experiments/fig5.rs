//! Figure 5: cost of individual Voronoi-cell queries — BF-VOR (Algorithm 1)
//! vs the TP-VOR baseline \[10\], on a uniform dataset.
//!
//! The paper uses n = 100 K points and 100 random query points and reports,
//! per query, the R-tree node accesses (Fig. 5a) and CPU time (Fig. 5b).

use super::SEEDS;
use crate::util::{row, scaled, Section, Table};
use cij_core::CijConfig;
use cij_datagen::uniform_points;
use cij_geom::{ConvexPolygon, Point, Rect};
use cij_rtree::{ObjectId, PointObject, RTree, RTreeConfig};
use cij_voronoi::{single_voronoi, tp_voronoi};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

type CellQuery = fn(&mut RTree<PointObject>, Point, ObjectId, &Rect) -> ConvexPolygon;

/// Runs Figure 5 over 100 queries, as the paper does.
pub fn run(scale: f64) -> Vec<Section> {
    let n = scaled(100_000, scale);
    let points = uniform_points(n, &Rect::DOMAIN, SEEDS.0);
    let mut tree = RTree::bulk_load(RTreeConfig::default(), PointObject::from_points(&points));
    tree.set_buffer_pages(CijConfig::default().buffer_pages_for(tree.num_pages()));
    let mut rng = StdRng::seed_from_u64(5_002);
    let queries: Vec<usize> = (0..100).map(|_| rng.gen_range(0..n)).collect();

    let methods: [(&str, CellQuery); 2] = [("TP-VOR", tp_voronoi), ("BF-VOR", single_voronoi)];
    let mut table = Table::new(&["method", "mean", "min", "max", "mean ms"], 1);
    let (mut accesses, mut ms, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
    for (name, query) in methods {
        let (mut reads, mut seconds) = (Vec::new(), 0.0);
        for &i in &queries {
            tree.drop_buffer();
            tree.stats().reset();
            let start = Instant::now();
            query(&mut tree, points[i], ObjectId(i as u64), &Rect::DOMAIN);
            seconds += start.elapsed().as_secs_f64();
            reads.push(tree.stats().snapshot().logical_reads);
        }
        let mean = reads.iter().sum::<u64>() as f64 / reads.len() as f64;
        let (min, max) = (reads.iter().min().unwrap(), reads.iter().max().unwrap());
        ms.push(seconds * 1e3 / queries.len() as f64);
        let [mean, mean_ms] = [format!("{mean:.1}"), format!("{:.3}", ms[ms.len() - 1])];
        table.rows.push(row![name, mean, min, max, mean_ms]);
        ranges.push(format!("{name} {min}–{max}"));
        accesses.push(reads);
    }
    let mut fig5 = Section::new("fig5", "Figure 5: single Voronoi-cell queries", table);
    let pairs = accesses[0].iter().zip(&accesses[1]);
    let not_below = pairs.filter(|(tp, bf)| bf >= tp).count();
    let claim = "BF-VOR reads fewer nodes than TP-VOR on every query";
    let evidence = format!("queries where it does not: {not_below} of 100");
    fig5.check(claim, not_below == 0, evidence);
    let claim = "BF-VOR's node accesses are stable across queries";
    fig5.unresolved(claim, format!("per-query range: {}", ranges.join(", ")));
    let claim = "BF-VOR's CPU time per query is below TP-VOR's";
    fig5.faster(claim, &ms[1..], &ms[..1]);
    vec![fig5]
}
