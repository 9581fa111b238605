//! The paper reproduction in tier-1: every experiment of Section V at the
//! reproduction tier, each count verdict held to the status it is listed
//! under below (a flip either way is red), and the committed
//! `REPRODUCTION.md` held to the generated report — regenerate it with
//! `cargo run --release -p cij-bench --bin reproduce -- --report REPRODUCTION.md`.
//! The experiments pin their configs, so nothing outside them moves a
//! verdict.

use cij_bench::experiments::{self, TIER};
use cij_bench::util::Status::{self, *};

/// The count claims this reproduction meets, as `section: claim`.
const HOLDS: &[&str] = &[
    "fig5: BF-VOR reads fewer nodes than TP-VOR on every query",
    "fig7: NM-CIJ has no materialisation cost (MAT I/O = 0)",
    "fig7: total I/O orders NM-CIJ < PM-CIJ < FM-CIJ",
    "fig8a: every method's page accesses are non-increasing in the buffer size",
    "fig8b: NM-CIJ has the fewest page accesses (is closest to LB) at every point",
    "fig9a: PM-CIJ's page accesses are non-increasing as |P| shrinks",
    "fig9a: NM-CIJ has the fewest page accesses (is closest to LB) at every point",
    "fig9b: FM-CIJ and PM-CIJ emit no pair before their materialisation ends",
    "fig9b: NM-CIJ emits its first pair before PM-CIJ's materialisation ends",
    "fig9b: NM-CIJ is non-blocking: its first pair arrives before its last page access",
    "fig10a: the false-hit ratio is below 0.1 at every point",
    "fig10b: the false-hit ratio is below 0.1 at every point",
    "fig11a: REUSE computes fewer cells than NO-REUSE at every point, and removes at least half \
     of the computations above |P|",
    "fig11b: REUSE computes fewer cells than NO-REUSE at every point, and removes at least half \
     of the computations above |P|",
    "fig11c: P cells computed are non-increasing in the capacity",
    "fig11c: evictions are 0 once the capacity covers the reuse working set",
    "table3: NM-CIJ has the fewest page accesses on every pair",
];

/// The count claims the paper states without a number to check them by.
const UNRESOLVED: &[&str] = &[
    "fig5: BF-VOR's node accesses are stable across queries",
    "fig6: ITER and BATCH I/O are close to LB",
    "table2: I/O is close to LB on every dataset",
    "fig8b: every method scales ~linearly with the datasize",
    "table3: the output size is comparable to the input size",
];

/// The count claims this reproduction does not meet, each with its reason;
/// REPRODUCTION.md explains each in its section's deviation.
const KNOWN_FAILS: &[(&str, &str)] = &[
    (
        "table2: the skewed datasets (PP, SC) cost more page accesses per point than the rest",
        "per-point cost is about one over the leaf fanout on every stand-in",
    ),
    (
        "fig8a: NM-CIJ is within 30 % of LB at a 2 % buffer",
        "2 % of a tree of tens of pages is 1 to 5 pages; the paper's 2 % is hundreds",
    ),
    (
        "fig10b: the false-hit ratio is largest at 1:4 (|P| ≫ |Q|)",
        "the five ratios differ by a few hundredths and the seed orders them at this size",
    ),
    (
        "table3: PM-CIJ has fewer page accesses than FM-CIJ on every pair",
        "on the PA pairs |P| is three times |Q|, and PM-CIJ's probes of R'P outgrow the buffer",
    ),
];

#[test]
fn every_count_verdict_and_the_committed_report_repeat() {
    let sections = experiments::run(TIER, None, true);

    let with = |status: Status| move |claim: &&'static str| (*claim, status);
    let fails = KNOWN_FAILS.iter().map(|(claim, _)| (*claim, Fails));
    let holds = HOLDS.iter().map(with(Holds));
    let mut expected: Vec<_> = holds
        .chain(UNRESOLVED.iter().map(with(Unresolved)))
        .collect();
    expected.extend(fails);
    let mut wrong = Vec::new();
    for section in &sections {
        for v in &section.verdicts {
            let claim = format!("{}: {}", section.id, v.claim);
            match expected.iter().position(|e| e.0 == claim) {
                Some(i) if expected.swap_remove(i).1 == v.status => {}
                Some(_) => wrong.push(format!("{claim} — now {:?}: {}", v.status, v.evidence)),
                None => wrong.push(format!("{claim} — not listed here")),
            }
        }
    }
    wrong.extend(expected.iter().map(|e| format!("{} — not produced", e.0)));
    assert!(wrong.is_empty(), "verdicts moved:\n{}", wrong.join("\n"));

    let report = experiments::report(&sections, TIER);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/REPRODUCTION.md");
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    let first_change = report.lines().zip(committed.lines()).find(|(a, b)| a != b);
    assert!(
        report == committed,
        "REPRODUCTION.md is not the generated report (first change, new then old: \
         {first_change:?}); regenerate it as the module docs say"
    );
}
