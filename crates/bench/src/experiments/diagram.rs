//! Whole-diagram computation: Figure 6 — ITER (Algorithm 1 per point) vs
//! BATCH (Algorithm 2 per leaf) vs the traversal lower bound LB as the
//! datasize grows (the paper sweeps 100 K … 800 K uniform points) — and
//! Table II, BatchVoronoi on the five real datasets of Table I.

use super::SEEDS;
use crate::util::{join, row, scaled, Section, Table};
use cij_core::CijConfig;
use cij_datagen::{uniform_points, ALL_REAL_DATASETS};
use cij_geom::{Point, Rect};
use cij_rtree::{PointObject, RTree, RTreeConfig};
use cij_voronoi::{compute_diagram, lower_bound_io, DiagramMethod};

/// One diagram computation from a cold buffer of 2 % with the 40-page
/// floor: page accesses, LB and CPU milliseconds.
fn diagram(points: &[Point], method: DiagramMethod) -> (u64, u64, f64) {
    let mut tree = RTree::bulk_load(RTreeConfig::default(), PointObject::from_points(points));
    tree.set_buffer_pages(CijConfig::default().buffer_pages_for(tree.num_pages()));
    tree.drop_buffer();
    tree.stats().reset();
    let res = compute_diagram(&mut tree, &Rect::DOMAIN, method);
    let cpu = res.cpu.as_secs_f64() * 1e3;
    (res.io.page_accesses(), lower_bound_io(&tree), cpu)
}

/// The largest ratio of a cost to its LB, as evidence for "close to LB".
fn worst(costs: impl Iterator<Item = (u64, u64)>) -> String {
    let ratio = |(io, lb): (u64, u64)| io as f64 / lb as f64;
    format!("×{:.2}", costs.map(ratio).fold(0.0, f64::max))
}

/// Runs Figure 6 and Table II.
pub fn run(scale: f64) -> Vec<Section> {
    let columns = ["n", "ITER I/O", "BATCH I/O", "LB", "ITER ms", "BATCH ms"];
    let mut table = Table::new(&columns, 2);
    let (mut runs, mut iter_ms, mut batch_ms) = (Vec::new(), Vec::new(), Vec::new());
    for paper_n in [100_000, 200_000, 400_000, 800_000] {
        let points = uniform_points(scaled(paper_n, scale), &Rect::DOMAIN, SEEDS.0);
        let (iter, _, iter_cpu) = diagram(&points, DiagramMethod::Iter);
        let (batch, lb, batch_cpu) = diagram(&points, DiagramMethod::Batch);
        let [it, ba] = [iter_cpu, batch_cpu].map(|ms| format!("{ms:.1}"));
        table.rows.push(row![points.len(), iter, batch, lb, it, ba]);
        runs.push((iter, batch, lb));
        iter_ms.push(iter_cpu);
        batch_ms.push(batch_cpu);
    }
    let mut fig6 = Section::new("fig6", "Figure 6: Voronoi diagram vs datasize", table);
    let [iter, batch] = [0, 1].map(|m| worst(runs.iter().map(|r| ([r.0, r.1][m], r.2))));
    let claim = "ITER and BATCH I/O are close to LB";
    let evidence = format!("largest ratio to LB: ITER {iter}, BATCH {batch}");
    fig6.unresolved(claim, evidence);
    let claim = "BATCH's CPU time is below ITER's at every n";
    fig6.faster(claim, &batch_ms, &iter_ms);
    let advantage = |i: usize| iter_ms[i] / batch_ms[i];
    let claim = "BATCH's CPU advantage (ITER ÷ BATCH) grows from the smallest n to the largest";
    fig6.faster(claim, &[advantage(0)], &[advantage(iter_ms.len() - 1)]);

    let columns = ["dataset", "contents", "n", "accesses", "LB", "ms"];
    let mut table = Table::new(&columns, 1);
    let (mut costs, mut per_point) = (Vec::new(), Vec::new());
    for ds in ALL_REAL_DATASETS {
        let points = ds.generate_scaled(scale);
        let (io, lb, cpu) = diagram(&points, DiagramMethod::Batch);
        let row = row![
            ds.name(),
            ds.description(),
            points.len(),
            io,
            lb,
            format!("{cpu:.1}")
        ];
        table.rows.push(row);
        costs.push((io, lb));
        per_point.push((ds.name(), io as f64 / points.len() as f64));
    }
    let mut table2 = Section::new("table2", "Table II: BatchVoronoi on real data", table);
    let evidence = format!("largest ratio to LB: {}", worst(costs.into_iter()));
    table2.unresolved("I/O is close to LB on every dataset", evidence);
    let skewed = |c: &&(&str, f64)| ["PP", "SC"].contains(&c.0);
    let (skewed, rest): (Vec<&(&str, f64)>, Vec<_>) = per_point.iter().partition(skewed);
    let holds = rest.iter().all(|r| skewed.iter().all(|s| r.1 < s.1));
    let evidence = join(per_point.iter().map(|(n, c)| format!("{n} {c:.4}")), ", ");
    let claim = "the skewed datasets (PP, SC) cost more page accesses per point than the rest";
    let evidence = format!("per point: {evidence}");
    table2.check(claim, holds, evidence);
    vec![fig6, table2]
}
