//! Table III: CIJ result sizes and page accesses of FM-, PM- and NM-CIJ on
//! pairs of real datasets (the synthetic stand-ins of Table I).

use super::sweeps::{io_table, nm_lowest, run_all};
use crate::util::{join, Section};
use cij_core::CijConfig;
use cij_datagen::RealDataset::{self, *};

/// The dataset pairs of Table III, as (Q, P).
pub const PAIRS: [(RealDataset, RealDataset); 6] =
    [(SC, PP), (CE, LO), (CE, SC), (LO, PP), (PA, SC), (PA, PP)];

/// Runs Table III.
pub fn run(scale: f64) -> Vec<Section> {
    let (mut runs, mut nq) = (Vec::new(), Vec::new());
    for (ds_q, ds_p) in PAIRS {
        let (p, q) = (ds_p.generate_scaled(scale), ds_q.generate_scaled(scale));
        let name = format!("{}/{}", ds_q.name(), ds_p.name());
        runs.push(run_all(name, &p, &q, CijConfig::default()));
        nq.push(q.len());
    }
    let title = "Table III: page accesses on real dataset pairs";
    let mut table3 = Section::new("table3", title, io_table("Q/P", &runs));
    table3.table.columns.splice(1..1, ["|Q|", "|P|", "pairs"]);
    for ((row, r), nq) in table3.table.rows.iter_mut().zip(&runs).zip(&nq) {
        row.splice(1..1, [*nq, r.np, r.pairs].map(|v| v.to_string()));
    }
    nm_lowest(
        &mut table3,
        "NM-CIJ has the fewest page accesses on every pair",
        &runs,
    );
    let pm_loses = runs.iter().filter(|r| r.io[1] >= r.io[0]);
    let pm_loses = join(pm_loses.map(|r| format!("{} {}", r.label, r.io[1])), ", ");
    let claim = "PM-CIJ has fewer page accesses than FM-CIJ on every pair";
    let holds = pm_loses.is_empty();
    let evidence = format!("where not, with PM-CIJ's count: [{pm_loses}]");
    table3.check(claim, holds, evidence);
    let out = runs
        .iter()
        .zip(&nq)
        .map(|(r, q)| r.pairs as f64 / (r.np + q) as f64);
    let (lo, hi) = out.fold((f64::MAX, 0.0f64), |(lo, hi), x| (lo.min(x), hi.max(x)));
    let claim = "the output size is comparable to the input size";
    let evidence = format!("CIJ pairs ÷ (|P| + |Q|) from {lo:.2} to {hi:.2}");
    table3.unresolved(claim, evidence);
    vec![table3]
}
