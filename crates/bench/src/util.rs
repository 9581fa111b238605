//! What an experiment returns — its table and the verdicts computed from
//! that table — how both render as Markdown, and the binary's flags.

use std::str::FromStr;

/// Reads `--name <value>` from `args` as a parsed value: `default` when
/// the flag is absent, an error naming the flag and the offending value
/// when the value is missing or does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let key = format!("--{name}");
    let Some(i) = args.iter().position(|a| a == &key) else {
        return Ok(default);
    };
    match args.get(i + 1) {
        None => Err(format!("{key} needs a value")),
        Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse `{v}`")),
    }
}

/// [`parse_flag`] over the process arguments: a malformed flag ends the
/// process through [`exit_usage`] instead of silently running at the default.
pub fn flag<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flag(&args, name, default).unwrap_or_else(|e| exit_usage(&e))
}

/// Ends the process with a usage error: the message on stderr, status 2.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Applies a scale factor to a paper-size cardinality.
pub fn scaled(paper_n: usize, scale: f64) -> usize {
    ((paper_n as f64) * scale).round().max(8.0) as usize
}

/// How far one time must beat another before a timing claim is decided:
/// 25 %, far above the ≈ 3 % run-to-run resolution of the repo benchmark.
pub const TIMING_MARGIN: f64 = 0.25;

/// The outcome of checking one claim of the paper against a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Holds,
    Fails,
    /// The paper gives no number to decide by, or two times lie within
    /// [`TIMING_MARGIN`] of each other: the evidence is recorded, nothing
    /// is decided.
    Unresolved,
}

/// One claim, its status, and the numbers the status was decided from.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub claim: &'static str,
    pub status: Status,
    pub evidence: String,
}

/// A table row: the `Display` form of each cell.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}
pub(crate) use row;

/// A table of strings; its last `timed` columns are wall-clock times, which
/// stdout shows and the committed report leaves out.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
    pub timed: usize,
}

impl Table {
    pub fn new(columns: &[&'static str], timed: usize) -> Self {
        let columns = columns.to_vec();
        Table {
            columns,
            timed,
            ..Default::default()
        }
    }

    /// The table as Markdown, with its timed columns only when `full`. A
    /// `|` inside a cell (`|P|`) is escaped.
    pub fn markdown(&self, full: bool) -> String {
        fn line<S: AsRef<str>>(cells: &[S]) -> String {
            let cells = cells.iter().map(|c| c.as_ref().replace('|', "\\|"));
            format!("| {} |\n", join(cells, " | "))
        }
        let width = self.columns.len() - if full { 0 } else { self.timed };
        let rows: String = self.rows.iter().map(|r| line(&r[..width])).collect();
        line(&self.columns[..width]) + "|" + &"---|".repeat(width) + "\n" + &rows
    }
}

/// One figure, panel or table of the paper as this reproduction measures it.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Short id, as `reproduce --only` takes it (`fig7`, `table3`, …).
    pub id: &'static str,
    pub title: &'static str,
    pub table: Table,
    /// Claims about counts, decided from `table`.
    pub verdicts: Vec<Verdict>,
    /// Claims about times, decided by a release run only.
    pub timings: Vec<Verdict>,
}

impl Section {
    pub fn new(id: &'static str, title: &'static str, table: Table) -> Self {
        Section {
            id,
            title,
            table,
            ..Default::default()
        }
    }

    /// Adds a claim about deterministic counts: it holds or it fails.
    pub fn check(&mut self, claim: &'static str, holds: bool, evidence: String) {
        let status = if holds { Status::Holds } else { Status::Fails };
        self.verdicts.push(Verdict {
            claim,
            status,
            evidence,
        });
    }

    /// Adds a claim the paper states without a number to decide it by.
    pub fn unresolved(&mut self, claim: &'static str, evidence: String) {
        let status = Status::Unresolved;
        self.verdicts.push(Verdict {
            claim,
            status,
            evidence,
        });
    }

    /// Adds a timing claim that each `fast[i]` is below `slow[i]` (times, or
    /// ratios of times): it holds when every one is below by more than
    /// [`TIMING_MARGIN`], fails when any one is above by more than it.
    pub fn faster(&mut self, claim: &'static str, fast: &[f64], slow: &[f64]) {
        let pairs = || fast.iter().zip(slow);
        let beats = |a: f64, b: f64| a * (1.0 + TIMING_MARGIN) < b;
        let status = if pairs().all(|(&f, &s)| beats(f, s)) {
            Status::Holds
        } else if pairs().any(|(&f, &s)| beats(s, f)) {
            Status::Fails
        } else {
            Status::Unresolved
        };
        let evidence = join(pairs().map(|(f, s)| format!("{f:.3} vs {s:.3}")), "; ");
        self.timings.push(Verdict {
            claim,
            status,
            evidence,
        });
    }

    /// The section as Markdown. `full` (stdout) shows the timed columns and
    /// every timing verdict; without it (the report) only what repeats
    /// exactly is written, each timing claim named as the release run's.
    pub fn markdown(&self, full: bool) -> String {
        let mut out = format!("## {}\n\n{}\n", self.title, self.table.markdown(full));
        for v in &self.verdicts {
            out += &format!("- **{:?}**: {} ({})\n", v.status, v.claim, v.evidence);
        }
        for v in &self.timings {
            out += &if full {
                format!(
                    "- **{:?}** (timing): {} ({})\n",
                    v.status, v.claim, v.evidence
                )
            } else {
                format!("- *Timing, decided by the release run*: {}\n", v.claim)
            };
        }
        out
    }
}

/// Joins displayable values with `sep` (evidence strings).
pub fn join<T: std::fmt::Display>(values: impl IntoIterator<Item = T>, sep: &str) -> String {
    let values: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    values.join(sep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_with_defaults_and_name_what_is_malformed() {
        let args = |raw: &[&str]| raw.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let good = args(&["--scale", "0.5", "--n", "1234"]);
        assert_eq!(parse_flag(&good, "scale", 1.0), Ok(0.5));
        assert_eq!(parse_flag(&good, "n", 10usize), Ok(1234));
        assert_eq!(parse_flag(&good, "missing", 7u32), Ok(7));
        let bad = args(&["--scale", "0,05", "--n"]);
        let error = |name: &str| parse_flag(&bad, name, 1.0).unwrap_err();
        assert_eq!(error("scale"), "--scale: cannot parse `0,05`");
        assert_eq!(error("n"), "--n needs a value");
    }

    #[test]
    fn scaled_never_returns_zero() {
        assert_eq!(scaled(100_000, 0.0000001), 8);
        assert_eq!(scaled(100_000, 0.1), 10_000);
    }

    #[test]
    fn timing_claims_are_decided_only_outside_the_margin() {
        let timing = |fast: &[f64], slow: &[f64]| {
            let mut s = Section::default();
            s.faster("", fast, slow);
            s.timings.pop().unwrap()
        };
        let status = |fast: &[f64], slow: &[f64]| timing(fast, slow).status;
        assert_eq!(status(&[1.0], &[1.3]), Status::Holds);
        assert_eq!(status(&[1.0], &[1.2]), Status::Unresolved);
        assert_eq!(status(&[1.2], &[1.0]), Status::Unresolved);
        assert_eq!(status(&[1.3], &[1.0]), Status::Fails);
        // One point inside the margin leaves the claim open; one beyond it
        // the other way fails it.
        assert_eq!(status(&[1.0, 1.0], &[2.0, 1.1]), Status::Unresolved);
        assert_eq!(status(&[1.0, 2.0], &[2.0, 1.0]), Status::Fails);
        let evidence = timing(&[1.0, 1.0], &[2.0, 1.1]).evidence;
        assert_eq!(evidence, "1.000 vs 2.000; 1.000 vs 1.100");
    }
}
