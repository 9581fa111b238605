//! Shared utilities for the experiment binaries: argument parsing, workload
//! construction and table printing.

use cij_core::CijConfig;
use std::time::Duration;

/// Minimal command-line argument reader: `--name value` flags only.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds an argument set from explicit strings (used by `run_all` and
    /// tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Reads `--name <value>` as a parsed value: `default` when the flag is
    /// absent, an error naming the flag and the offending value when the
    /// value is missing or does not parse.
    pub fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        let key = format!("--{name}");
        let Some(i) = self.raw.iter().position(|a| a == &key) else {
            return Ok(default);
        };
        let value = self
            .raw
            .get(i + 1)
            .ok_or_else(|| format!("{key} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("{key}: cannot parse `{value}`"))
    }

    /// [`Args::parse`] for the experiment binaries: a malformed flag ends
    /// the process with the message instead of silently running at the
    /// default size.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parse(name, default).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }
}

/// Applies a scale factor to a paper-size cardinality.
pub fn scaled(paper_n: usize, scale: f64) -> usize {
    ((paper_n as f64) * scale).round().max(8.0) as usize
}

/// The paper's configuration: 1 KB pages, 2 % buffer, default domain.
pub fn paper_config() -> CijConfig {
    CijConfig::default()
}

/// Formats a duration as seconds with millisecond resolution.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Prints a table header followed by a separator line.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join("\t"));
    println!("{}", "-".repeat(columns.iter().map(|c| c.len() + 8).sum()));
}

/// Prints one table row.
pub fn print_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_defaults() {
        let args = Args::from_vec(vec![
            "--scale".into(),
            "0.5".into(),
            "--n".into(),
            "1234".into(),
        ]);
        assert_eq!(args.get("scale", 1.0f64), 0.5);
        assert_eq!(args.get("n", 10usize), 1234);
        assert_eq!(args.get("missing", 7u32), 7);

        let bad = Args::from_vec(vec!["--scale".into(), "0,05".into(), "--n".into()]);
        assert_eq!(
            bad.parse("scale", 1.0f64),
            Err("--scale: cannot parse `0,05`".to_string())
        );
        assert_eq!(
            bad.parse("n", 10usize),
            Err("--n needs a value".to_string())
        );
    }

    #[test]
    fn scaled_never_returns_zero() {
        assert_eq!(scaled(100_000, 0.0000001), 8);
        assert_eq!(scaled(100_000, 0.1), 10_000);
    }

    #[test]
    fn paper_config_uses_1kb_pages() {
        assert_eq!(paper_config().rtree.page_size, 1024);
    }
}
