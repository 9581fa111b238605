//! The paper's evaluation (Section V) as [`Section`]s, one per figure,
//! panel or table; figures that are views of the same runs share them, so
//! one run unit of [`UNITS`] yields several sections.

pub mod default_setting;
pub mod diagram;
pub mod fig5;
pub mod sweeps;
pub mod table3;

use crate::util::{Section, Status, TIMING_MARGIN};
use std::iter::from_fn;
use std::sync::Mutex;
use std::thread::{self, available_parallelism};

/// The reproduction tier: 0.01 of the paper's sizes. Below it both trees of
/// the default join fit inside the 40-page buffer floor, so "NM-CIJ costs
/// LB" is vacuous; at it the datasize sweep leaves the floor from n = 2 000.
pub const TIER: f64 = 0.01;

/// Every section id, in the paper's order.
pub const IDS: [&str; 14] = [
    "fig5", "fig6", "table2", "fig7", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b",
    "fig11a", "fig11b", "fig11c", "table3",
];

/// The seed pair (`P`, `Q`) of every uniform experiment.
pub(crate) const SEEDS: (u64, u64) = (7_001, 7_002);

/// The sections a run unit yields, and the unit.
pub type Unit = (&'static [&'static str], fn(f64) -> Vec<Section>);

/// Every run unit, slowest first.
pub const UNITS: [Unit; 8] = [
    (&["fig8b", "fig10a", "fig11a"], sweeps::datasize),
    (&["table3"], table3::run),
    (&["fig8a"], sweeps::buffer),
    (&["fig9a", "fig10b", "fig11b"], sweeps::ratio),
    (&["fig6", "table2"], diagram::run),
    (&["fig11c"], sweeps::capacity),
    (&["fig7", "fig9b"], default_setting::run),
    (&["fig5"], fig5::run),
];

/// The report's prose: a header with `{placeholders}`, then per-section
/// deviations, each after a `<!-- id -->` line.
const TEMPLATE: &str = include_str!("../../report.md");

/// Runs the experiments at `scale` — all, or the one yielding section
/// `only` — and returns their sections in the paper's order. Units run one
/// after another, or with `parallel` on one worker per core, each worker
/// taking the next unit, slowest first (times then disturb each other).
pub fn run(scale: f64, only: Option<&str>, parallel: bool) -> Vec<Section> {
    let wanted = |id: &str| only.is_none_or(|only| only == id);
    let unit_wanted = |unit: &&Unit| unit.0.iter().any(|id| wanted(id));
    let queue = Mutex::new(UNITS.iter().filter(unit_wanted));
    let work = || -> Vec<Section> {
        let next = || {
            queue
                .lock()
                .expect("no unit panics holding the queue")
                .next()
        };
        from_fn(next).flat_map(|(_, f)| f(scale)).collect()
    };
    let cores = available_parallelism().map_or(2, |n| n.get());
    let workers = if parallel { cores } else { 1 };
    let mut sections = Vec::new();
    thread::scope(|s| {
        let workers: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        for worker in workers {
            sections.extend(worker.join().expect("an experiment panicked"));
        }
    });
    sections.retain(|s| wanted(s.id));
    sections.sort_by_key(|s| IDS.iter().position(|&id| id == s.id));
    sections
}

/// The deviation paragraph of section `id` in the template, if any.
pub fn deviation(id: &str) -> Option<&'static str> {
    let mut blocks = TEMPLATE.split("\n<!-- ").skip(1);
    blocks.find_map(|b| b.strip_prefix(id)?.strip_prefix(" -->\n").map(str::trim))
}

/// The committed report: the template's header and every section without
/// its times, each followed by its deviation, so it repeats byte for byte.
pub fn report(sections: &[Section], scale: f64) -> String {
    let verdicts: Vec<_> = sections.iter().flat_map(|s| &s.verdicts).collect();
    let count = |status| verdicts.iter().filter(|v| v.status == status).count();
    let header = TEMPLATE.split("\n<!--").next().unwrap_or_default();
    let mut out = header
        .replace("{scale}", &scale.to_string())
        .replace("{margin}", &(TIMING_MARGIN * 100.0).to_string())
        .replace("{holds}", &count(Status::Holds).to_string())
        .replace("{fails}", &count(Status::Fails).to_string())
        .replace("{unresolved}", &count(Status::Unresolved).to_string());
    for section in sections {
        out += &format!("\n{}", section.markdown(false));
        if let Some(text) = deviation(section.id) {
            out += &format!("\n**Deviation.** {}\n", text.replace('\n', " "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_has_one_run_unit_and_every_deviation_an_id() {
        let mut ids: Vec<&str> = UNITS.iter().flat_map(|u| u.0.to_vec()).collect();
        ids.sort_unstable();
        assert!(ids.len() == IDS.len() && IDS.iter().all(|id| ids.binary_search(id).is_ok()));
        let blocks = TEMPLATE.split("\n<!-- ").skip(2);
        blocks.for_each(|b| assert!(IDS.contains(&b.split(" -->").next().unwrap()), "{b}"));
    }
}
