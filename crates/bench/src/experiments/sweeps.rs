//! The sweeps Figures 8–11 are views of, all on uniform sets:
//!
//! - [`buffer`]: the LRU buffer from 0.5 % to 10 % of each tree (Fig. 8a);
//! - [`datasize`]: |P| = |Q| from 100 K to 800 K in the paper — page
//!   accesses (Fig. 8b), NM-CIJ's false-hit ratio (Fig. 10a) and exact `P`
//!   cells computed with and without reuse (Fig. 11a);
//! - [`ratio`]: |Q| : |P| from 1:4 to 4:1 at |P| + |Q| = 200 K — the same
//!   three views (Figs. 9a, 10b, 11b);
//! - [`capacity`]: the Section IV-B reuse buffer from 0 (NO-REUSE) to 4096
//!   cells, Fig. 11's capacity panel (the product default is 1024).
//!
//! A point of the datasize and ratio sweeps runs FM-, PM- and NM-CIJ once
//! each, plus NM-CIJ with `cell_cache_capacity = 0` for NO-REUSE.

use super::SEEDS;
use crate::util::{join, row, scaled, Section, Table};
use cij_core::{Algorithm, CijConfig, QueryEngine, QueryProfile};
use cij_datagen::uniform_points;
use cij_geom::{Point, Rect};

/// Uniform `P` and `Q` of the given sizes from the shared seed pair.
pub(crate) fn sets(np: usize, nq: usize) -> (Vec<Point>, Vec<Point>) {
    let p = uniform_points(np, &Rect::DOMAIN, SEEDS.0);
    (p, uniform_points(nq, &Rect::DOMAIN, SEEDS.1))
}

/// One labelled input pair and what FM-, PM- and NM-CIJ do on it, each on
/// a fresh workload; [`run_all`] holds the three to one pair set.
pub(crate) struct Run {
    pub label: String,
    pub np: usize,
    /// Page accesses of FM-, PM- and NM-CIJ.
    pub io: [u64; 3],
    pub lb: u64,
    /// The size and digest of the pair set all three returned.
    pub pairs: usize,
    pub digest: String,
    /// NM-CIJ's profile.
    pub nm: QueryProfile,
    /// Exact `P` cells NM-CIJ computes without the reuse buffer (datasize
    /// and ratio sweeps only).
    pub no_reuse: u64,
}

pub(crate) fn run_all(label: String, p: &[Point], q: &[Point], config: CijConfig) -> Run {
    let engine = QueryEngine::new(config);
    let (mut lb, mut nm, mut sets) = (0, QueryProfile::default(), Vec::new());
    let io = Algorithm::ALL.map(|alg| {
        let mut w = engine.build_workload(p, q);
        lb = w.lower_bound_io();
        let outcome = engine.run(&mut w, alg);
        sets.push(outcome.sorted_pairs());
        nm = outcome.profile;
        nm.page_accesses()
    });
    let (pairs, digest) = agreed_pairs(&label, &sets);
    let (np, no_reuse) = (p.len(), 0);
    Run {
        label,
        np,
        io,
        lb,
        pairs,
        digest,
        nm,
        no_reuse,
    }
}

/// Holds the algorithms of one unit to one pair set: `sets[i]`, the sorted
/// pairs of `Algorithm::ALL[i]`, is duplicate-free, and all are the same
/// set. Panics naming the unit and the algorithms otherwise — a
/// disagreement is a bug in one of them, not a verdict. Returns the set's
/// size and [`pair_digest`].
pub(crate) fn agreed_pairs(unit: &str, sets: &[Vec<(u64, u64)>]) -> (usize, String) {
    let first = Algorithm::ALL[0].name();
    for (alg, set) in Algorithm::ALL.iter().zip(sets) {
        let name = alg.name();
        if let Some(twice) = set.windows(2).find(|w| w[0] == w[1]) {
            panic!("{unit}: {name} returned the pair {:?} twice", twice[0]);
        }
        if *set != sets[0] {
            panic!("{unit}: {first} and {name} returned different pair sets");
        }
    }
    (sets[0].len(), pair_digest(&sets[0]))
}

/// 64-bit FNV-1a over the little-endian bytes of the sorted pairs' ids:
/// the same on every platform and toolchain, unlike `DefaultHasher`.
pub(crate) fn pair_digest(sorted: &[(u64, u64)]) -> String {
    let words = sorted.iter().flat_map(|&(p, q)| [p, q]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A page-access table: `first`, then FM-, PM-, NM-CIJ and LB per run, and
/// the digest of the pair set all three returned.
pub(crate) fn io_table(first: &'static str, runs: &[Run]) -> Table {
    let columns = [first, "FM-CIJ", "PM-CIJ", "NM-CIJ", "LB", "pair digest"];
    let mut table = Table::new(&columns, 0);
    let row = |r: &Run| row![r.label, r.io[0], r.io[1], r.io[2], r.lb, r.digest];
    table.rows = runs.iter().map(row).collect();
    table
}

/// "NM-CIJ reads fewer pages than FM-CIJ and PM-CIJ at every point."
pub(crate) fn nm_lowest(s: &mut Section, claim: &'static str, runs: &[Run]) {
    let lost = runs.iter().filter(|r| r.io[2] >= r.io[0].min(r.io[1]));
    let lost = join(lost.map(|r| &r.label), ", ");
    s.check(claim, lost.is_empty(), format!("where not: [{lost}]"));
}

/// Figure 8a.
pub fn buffer(scale: f64) -> Vec<Section> {
    let n = scaled(100_000, scale);
    let (p, q) = sets(n, n);
    let runs: Vec<Run> = [0.5f64, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        .iter()
        .map(|percent| {
            // The sweep controls the buffer exactly: no 40-page floor.
            let config = CijConfig::default().with_buffer_fraction(percent / 100.0);
            run_all(percent.to_string(), &p, &q, config.with_min_buffer_pages(1))
        })
        .collect();
    let title = "Figure 8a: page accesses vs buffer size";
    let mut fig8a = Section::new("fig8a", title, io_table("buffer %", &runs));
    let rising = (0..3).filter(|&a| runs.windows(2).any(|w| w[1].io[a] > w[0].io[a]));
    let rising = join(rising.map(|a| Algorithm::ALL[a].name()), ", ");
    let claim = "every method's page accesses are non-increasing in the buffer size";
    let holds = rising.is_empty();
    let evidence = format!("methods that rise somewhere: [{rising}]");
    fig8a.check(claim, holds, evidence);
    let (nm, lb) = (runs[2].io[2], runs[2].lb);
    let claim = "NM-CIJ is within 30 % of LB at a 2 % buffer";
    let holds = nm as f64 <= 1.3 * lb as f64;
    let evidence = format!("{nm} vs LB {lb}, ×{:.2}", nm as f64 / lb as f64);
    fig8a.check(claim, holds, evidence);
    vec![fig8a]
}

/// One point of the datasize or ratio sweep, NO-REUSE included.
fn point(label: String, np: usize, nq: usize) -> Run {
    let (p, q) = sets(np, nq);
    let no_reuse = QueryEngine::new(CijConfig::default().with_cell_cache_capacity(0));
    let no_reuse = no_reuse.join(&p, &q, Algorithm::NmCij).profile.work.cells[0].computed;
    let run = run_all(label, &p, &q, CijConfig::default());
    Run { no_reuse, ..run }
}

/// Figures 8b, 10a and 11a.
pub fn datasize(scale: f64) -> Vec<Section> {
    let sizes = [100_000, 200_000, 400_000, 800_000].map(|n| scaled(n, scale));
    let runs: Vec<_> = sizes.iter().map(|&n| point(n.to_string(), n, n)).collect();
    let [mut fig8b, fig10a, fig11a] = views(DATASIZE, "n (=|P|=|Q|)", &runs);
    let growth = |a: usize| {
        let step = |w: &[Run]| w[1].io[a] as f64 / w[0].io[a] as f64;
        join(runs.windows(2).map(|w| format!("×{:.2}", step(w))), " ")
    };
    let [fm, pm, nm] = [0, 1, 2].map(growth);
    let claim = "every method scales ~linearly with the datasize";
    let evidence = format!("per doubling: FM {fm}; PM {pm}; NM {nm}");
    fig8b.unresolved(claim, evidence);
    vec![fig8b, fig10a, fig11a]
}

/// Figures 9a, 10b and 11b.
pub fn ratio(scale: f64) -> Vec<Section> {
    let total = scaled(200_000, scale);
    let runs: Vec<_> = [(1, 4), (1, 2), (1, 1), (2, 1), (4, 1)]
        .iter()
        .map(|&(rq, rp)| (format!("{rq}:{rp}"), total * rq / (rq + rp)))
        .map(|(label, nq)| point(label, total - nq, nq))
        .collect();
    let [mut fig9a, mut fig10b, fig11b] = views(RATIO, "|Q|:|P|", &runs);
    fig9a.table.columns.insert(1, "|P|");
    for (row, r) in fig9a.table.rows.iter_mut().zip(&runs) {
        row.insert(1, r.np.to_string());
    }
    let pm: Vec<u64> = runs.iter().map(|r| r.io[1]).collect();
    let claim = "PM-CIJ's page accesses are non-increasing as |P| shrinks";
    let holds = pm.windows(2).all(|w| w[1] <= w[0]);
    let evidence = format!("PM-CIJ from 1:4 to 4:1: {}", join(&pm, ", "));
    fig9a.check(claim, holds, evidence);
    let fhr: Vec<f64> = runs.iter().map(|r| r.nm.false_hit_ratio()).collect();
    let rest = fhr[1..].iter().copied().fold(0.0, f64::max);
    let claim = "the false-hit ratio is largest at 1:4 (|P| ≫ |Q|)";
    let evidence = format!("1:4 {:.3}, the others at most {rest:.3}", fhr[0]);
    fig10b.check(claim, fhr[0] > rest, evidence);
    vec![fig9a, fig10b, fig11b]
}

const DATASIZE: [(&str, &str); 3] = [
    ("fig8b", "Figure 8b: page accesses vs datasize"),
    ("fig10a", "Figure 10a: NM-CIJ false-hit ratio vs datasize"),
    ("fig11a", "Figure 11a: exact P cells computed vs datasize"),
];

const RATIO: [(&str, &str); 3] = [
    ("fig9a", "Figure 9a: page accesses vs |Q|:|P|"),
    ("fig10b", "Figure 10b: NM-CIJ false-hit ratio vs |Q|:|P|"),
    ("fig11b", "Figure 11b: exact P cells computed vs |Q|:|P|"),
];

/// The id and title of each view of a sweep.
type Views = [(&'static str, &'static str); 3];

/// The three views of one sweep with the claims both sweeps share: page
/// accesses (Figs. 8b, 9a), NM-CIJ's filter candidates, true hits and
/// false-hit ratio (Fig. 10), and exact `P` cells computed with and without
/// reuse (Fig. 11).
fn views([io, fhr, cells]: Views, axis: &'static str, runs: &[Run]) -> [Section; 3] {
    let mut io = Section::new(io.0, io.1, io_table(axis, runs));
    let claim = "NM-CIJ has the fewest page accesses (is closest to LB) at every point";
    nm_lowest(&mut io, claim, runs);
    let mut fhr = Section::new(
        fhr.0,
        fhr.1,
        Table::new(&[axis, "candidates", "true hits", "FHR"], 0),
    );
    let mut cells = Section::new(
        cells.0,
        cells.1,
        Table::new(&[axis, "NO-REUSE", "REUSE", "|P|"], 0),
    );
    let (mut worst, mut reuse_holds, mut removed) = (0.0f64, true, Vec::new());
    for r in runs {
        let (nm, np, no) = (&r.nm, r.np as u64, r.no_reuse);
        let (hits, ratio) = (nm.work.true_hits, format!("{:.3}", nm.false_hit_ratio()));
        fhr.table
            .rows
            .push(row![r.label, nm.work.filter_candidates, hits, ratio]);
        worst = worst.max(nm.false_hit_ratio());
        let re = nm.work.cells[0].computed;
        cells.table.rows.push(row![r.label, no, re, np]);
        // The share of the computations above |P| that REUSE removes.
        let share = no.saturating_sub(re) as f64 / no.saturating_sub(np).max(1) as f64;
        reuse_holds &= re < no && share >= 0.5;
        removed.push(format!("{:.0} %", share * 100.0));
    }
    let claim = "the false-hit ratio is below 0.1 at every point";
    fhr.check(claim, worst < 0.1, format!("largest {worst:.3}"));
    let claim = "REUSE computes fewer cells than NO-REUSE at every point, and removes at least \
                 half of the computations above |P|";
    cells.check(
        claim,
        reuse_holds,
        format!("removed: {}", removed.join(", ")),
    );
    [io, fhr, cells]
}

/// Figure 11's capacity panel.
pub fn capacity(scale: f64) -> Vec<Section> {
    let n = scaled(100_000, scale);
    let (p, q) = sets(n, n);
    let columns = ["capacity", "accesses", "computed", "reused", "evictions"];
    let mut table = Table::new(&columns, 0);
    let mut runs = Vec::new();
    for capacity in [0, 8, 32, 128, 512, 1024, 4096] {
        let engine = QueryEngine::new(CijConfig::default().with_cell_cache_capacity(capacity));
        let outcome = engine.join(&p, &q, Algorithm::NmCij);
        let (io, p_cells) = (outcome.page_accesses(), outcome.profile.work.cells[0]);
        let (computed, evictions) = (p_cells.computed, p_cells.evicted);
        table
            .rows
            .push(row![capacity, io, computed, p_cells.reused, evictions]);
        runs.push((capacity as u64, computed, evictions));
    }
    let title = "Figure 11, capacity panel: exact P cells vs reuse-buffer capacity";
    let mut fig11c = Section::new("fig11c", title, table);
    let computed: Vec<u64> = runs.iter().map(|r| r.1).collect();
    let claim = "P cells computed are non-increasing in the capacity";
    let holds = computed.windows(2).all(|w| w[1] <= w[0]);
    let evidence = format!("cells computed: {}", join(&computed, ", "));
    fig11c.check(claim, holds, evidence);
    // The working set: every cell the join computes when nothing is evicted.
    let working_set = computed[computed.len() - 1];
    let evicting = runs.iter().filter(|r| r.0 >= working_set && r.2 > 0);
    let evicting = join(evicting.map(|r| r.0), ", ");
    let claim = "evictions are 0 once the capacity covers the reuse working set";
    let holds = evicting.is_empty();
    let evidence =
        format!("working set {working_set} cells; larger capacities that evict: [{evicting}]");
    fig11c.check(claim, holds, evidence);
    vec![fig11c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreed_pairs_digest_one_set_and_name_a_disagreement() {
        let set = vec![(1, 2), (3, 4)];
        let three = [set.clone(), set.clone(), set.clone()];
        assert_eq!(agreed_pairs("u", &three), (2, pair_digest(&set)));
        assert_ne!(pair_digest(&set), pair_digest(&set[..1]));
        let message = |sets: [Vec<(u64, u64)>; 3]| {
            let caught = std::panic::catch_unwind(|| agreed_pairs("u", &sets));
            *caught.unwrap_err().downcast::<String>().unwrap()
        };
        let differ = [set.clone(), set.clone(), set[..1].to_vec()];
        let expected = "u: FM-CIJ and NM-CIJ returned different pair sets";
        assert_eq!(message(differ), expected);
        let twice = [set.clone(), vec![(1, 2), (1, 2)], set];
        assert_eq!(message(twice), "u: PM-CIJ returned the pair (1, 2) twice");
    }
}
