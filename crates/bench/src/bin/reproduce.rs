//! `reproduce [--only <id>] [--scale <s>] [--report <path>]`: runs the
//! paper's experiments one after another (so the timing verdicts compare
//! undisturbed times) at the reproduction tier or `--scale`, or only the one
//! yielding section `<id>`, and prints every table with its verdicts.
//! `--report` also writes the deterministic report; the committed
//! `REPRODUCTION.md` is `--report REPRODUCTION.md` at the tier.

use cij_bench::experiments::{self, IDS, TIER};
use cij_bench::util::{exit_usage, flag};

fn main() {
    let (scale, report) = (flag("scale", TIER), flag("report", String::new()));
    let only = Some(flag("only", String::new())).filter(|id| !id.is_empty());
    if let Some(id) = only.as_deref().filter(|id| !IDS.contains(id)) {
        let valid = IDS.join(", ");
        exit_usage(&format!("--only: unknown id `{id}` (valid: {valid})"));
    }
    let sections = experiments::run(scale, only.as_deref(), false);
    sections
        .iter()
        .for_each(|s| println!("{}", s.markdown(true)));
    if !report.is_empty() {
        let text = experiments::report(&sections, scale);
        std::fs::write(&report, text).unwrap_or_else(|e| exit_usage(&format!("--report: {e}")));
    }
}
