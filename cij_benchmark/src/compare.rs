//! `compare A.json B.json`: judges two reports written by `all --out`,
//! one row per workload × end-to-end metric, by the bounds of the metric
//! catalogue. A is the parent (or the first set of runs), B the change (or
//! the second set).
//!
//! * Counts repeat exactly on one commit, so a count that got worse at all
//!   is a regression.
//! * Other metrics compare medians over each side's runs: worse by more
//!   than the metric's bound is a regression, better by more is an
//!   improvement.
//! * Where either side's own run-to-run spread (the distance between its
//!   quartiles, as a share of its median) exceeds the bound, the row is
//!   `unresolved` — unless every run of B reads better than every run of A.

use crate::json::Value;
use crate::metrics::{Better, EndToEndMetric, END_TO_END};
use crate::summary::{median, sorted};
use crate::workloads::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Equal,
    Ok,
    Improved,
    Unresolved,
    Regression,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Quartile spread as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (the driver's rule).
/// `None` below four values: no spread can be read off fewer.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let s = sorted(values);
    let at = |p: f64| {
        let pos = p * (s.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[lo - 1] + (s[lo] - s[lo - 1]) * (pos - lo as f64)
    };
    Some((at(0.75) - at(0.25)) / median(values).abs().max(f64::MIN_POSITIVE))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(metric: &EndToEndMetric, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match metric.better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

pub fn judge(metric: &EndToEndMetric, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = worsening(metric, ma, mb);
    if metric.unit == "count" {
        return match worse {
            w if w > 0.0 => Verdict::Regression,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Equal,
        };
    }
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > metric.bound));
    if noisy {
        let all_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(metric, x, y) < 0.0));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > metric.bound {
        Verdict::Regression
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The values of one metric over a report's runs of one workload.
fn values(report: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn all_correct(report: &Value, workload: &str) -> bool {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("correct"))
        .and_then(Value::as_bool)
        .unwrap_or(false)
}

/// Prints the comparison table; `Ok(true)` when nothing regressed.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "A iqr%", "B iqr%"
    );
    let mut clean = true;
    let mut unresolved = 0;
    for kind in Kind::ALL {
        let w = kind.name();
        for side in [a, b] {
            if !all_correct(side, w) {
                println!("{w:<14} outputs incorrect or workload missing: REGRESSION");
                clean = false;
            }
        }
        for metric in END_TO_END {
            let va = values(a, w, metric.name)
                .ok_or_else(|| format!("first report lacks {w}/{}", metric.name))?;
            let vb = values(b, w, metric.name)
                .ok_or_else(|| format!("second report lacks {w}/{}", metric.name))?;
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}/{} has no runs", metric.name));
            }
            let verdict = judge(metric, &va, &vb);
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}", s * 100.0));
            println!(
                "{w:<14} {:<22} {:>14.6} {:>14.6} {:>8.1} {:>7} {:>7}  {}",
                metric.name,
                median(&va),
                median(&vb),
                worsening(metric, median(&va), median(&vb)) * 100.0,
                pct(spread(&va)),
                pct(spread(&vb)),
                verdict.name()
            );
            clean &= verdict != Verdict::Regression;
            unresolved += (verdict == Verdict::Unresolved) as u32;
        }
    }
    println!(
        "{}; {unresolved} unresolved",
        if clean {
            "no regression"
        } else {
            "REGRESSION found"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEndMetric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn spread_uses_the_drivers_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn counts_must_not_get_worse_at_all() {
        let m = metric("page_accesses_per_op");
        assert_eq!(judge(m, &[1800.0], &[1800.0]), Verdict::Equal);
        assert_eq!(judge(m, &[1800.0], &[1801.0]), Verdict::Regression);
        assert_eq!(judge(m, &[1800.0], &[1700.0]), Verdict::Improved);
    }

    #[test]
    fn timings_are_judged_by_their_bound_and_direction() {
        let m = metric("op_p50_s");
        let b = m.bound;
        assert_eq!(judge(m, &[1.0], &[1.0 + b * 0.9]), Verdict::Ok);
        assert_eq!(judge(m, &[1.0], &[1.0 + b * 1.1]), Verdict::Regression);
        assert_eq!(judge(m, &[1.0], &[1.0 - b * 1.1]), Verdict::Improved);
        let t = metric("ops_per_s");
        assert_eq!(
            judge(t, &[10.0], &[10.0 * (1.0 - t.bound * 1.1)]),
            Verdict::Regression
        );
        assert_eq!(
            judge(t, &[10.0], &[10.0 * (1.0 + t.bound * 1.1)]),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let m = metric("op_p50_s");
        let noisy = [1.0, 1.3, 1.0, 1.4, 1.05, 1.35];
        assert!(spread(&noisy).unwrap() > m.bound);
        assert_eq!(judge(m, &noisy, &[1.2; 6]), Verdict::Unresolved);
        assert_eq!(judge(m, &noisy, &[0.9; 6]), Verdict::Improved);
    }
}
