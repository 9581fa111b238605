//! One join per algorithm at the paper's default setting (|P| = |Q| =
//! 100 K uniform points, 2 % buffer), seen two ways: Figure 7, the cost
//! breakdown into materialisation (MAT) and join, and Figure 9b, output
//! progressiveness (result pairs produced vs page accesses spent).
//!
//! Figure 7 reads each join's [`QueryProfile`](cij_core::QueryProfile):
//! MAT is its [`Phase::Materialise`] time and I/O, JOIN the rest, and the
//! release table adds the time of every other phase — where NM-CIJ's JOIN
//! time goes.

use super::sweeps::agreed_pairs;
use super::sweeps::sets;
use crate::util::{row, scaled, Section, Table};
use cij_core::{Algorithm, CijConfig, CijOutcome, Phase, QueryEngine};

/// Runs Figures 7 and 9b.
pub fn run(scale: f64) -> Vec<Section> {
    let n = scaled(100_000, scale);
    let (p, q) = sets(n, n);
    let engine = QueryEngine::new(CijConfig::default());
    let [fm, pm, nm] = Algorithm::ALL.map(|alg| engine.join(&p, &q, alg));
    let sets = [&fm, &pm, &nm].map(|o| o.sorted_pairs());
    let (_, digest) = agreed_pairs("the default setting", &sets);
    let total = |o: &CijOutcome| o.page_accesses();
    let mat = |o: &CijOutcome| o.profile.mat_io.page_accesses();
    let first = |o: &CijOutcome| o.progress.first().map_or(0, |s| s.page_accesses);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;

    let columns = [
        "method",
        "MAT I/O",
        "JOIN I/O",
        "total",
        "MAT ms",
        "JOIN ms",
        "scan ms",
        "filter ms",
        "refine ms",
        "report ms",
        "emit ms",
    ];
    let mut breakdown = Table::new(&columns, 7);
    let columns = ["method", "first pair at", "pairs then", "pairs", "samples"];
    let mut progress = Table::new(&columns, 0);
    progress.columns.push("pair digest");
    for (alg, o) in Algorithm::ALL.iter().zip([&fm, &pm, &nm]) {
        let (profile, name, pairs) = (&o.profile, alg.name(), o.pairs.len());
        let mat_time = profile.elapsed[Phase::Materialise];
        let join_time = profile.elapsed.total() - mat_time;
        let join_io = profile.join_io.page_accesses();
        let mut row = row![name, mat(o), join_io, total(o)];
        let phases = Phase::ALL[1..].iter().map(|&phase| profile.elapsed[phase]);
        let times = [mat_time, join_time].into_iter().chain(phases);
        row.extend(times.map(|d| format!("{:.1}", ms(d))));
        breakdown.rows.push(row);
        let (head, samples) = (o.progress.first().map_or(0, |s| s.pairs), o.progress.len());
        progress
            .rows
            .push(row![name, first(o), head, pairs, samples, digest]);
    }
    let mut fig7 = Section::new("fig7", "Figure 7: cost breakdown", breakdown);
    let claim = "NM-CIJ has no materialisation cost (MAT I/O = 0)";
    let evidence = format!("NM-CIJ MAT I/O {}", mat(&nm));
    fig7.check(claim, mat(&nm) == 0, evidence);
    let claim = "total I/O orders NM-CIJ < PM-CIJ < FM-CIJ";
    let holds = total(&nm) < total(&pm) && total(&pm) < total(&fm);
    let evidence = format!("{} < {} < {}", total(&nm), total(&pm), total(&fm));
    fig7.check(claim, holds, evidence);
    let [fm_cpu, pm_cpu, nm_cpu] = [&fm, &pm, &nm].map(|o| ms(o.profile.elapsed.total()));
    let claim = "NM-CIJ's total CPU time is below PM-CIJ's and FM-CIJ's";
    fig7.faster(claim, &[nm_cpu, nm_cpu], &[pm_cpu, fm_cpu]);

    let mut fig9b = Section::new("fig9b", "Figure 9b: output progressiveness", progress);
    let [fm_first, pm_first, nm_first] = [&fm, &pm, &nm].map(first);
    let (fm_mat, pm_mat, nm_total) = (mat(&fm), mat(&pm), total(&nm));
    let claim = "FM-CIJ and PM-CIJ emit no pair before their materialisation ends";
    let holds = fm_first >= fm_mat && pm_first >= pm_mat;
    let evidence =
        format!("first pairs at {fm_first} and {pm_first}, MAT I/O {fm_mat} and {pm_mat}");
    fig9b.check(claim, holds, evidence);
    let claim = "NM-CIJ emits its first pair before PM-CIJ's materialisation ends";
    let holds = nm_first < pm_mat;
    let evidence = format!("{nm_first} < {pm_mat}");
    fig9b.check(claim, holds, evidence);
    let claim = "NM-CIJ is non-blocking: its first pair arrives before its last page access";
    let holds = nm_first < nm_total;
    let evidence = format!("first pair after {nm_first} of {nm_total} accesses");
    fig9b.check(claim, holds, evidence);
    vec![fig7, fig9b]
}
