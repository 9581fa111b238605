//! The repo benchmark: four workloads, six end-to-end metrics, and an
//! outside-in layer ladder. README.md has the why; `BENCHMARK.json` at the
//! repository root is the machine-readable contract.
//!
//! ```text
//! cij_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cij_benchmark all [--seed N] [--seconds S] [--runs N] [--out FILE]
//! cij_benchmark compare A.json B.json
//! ```
//!
//! A run prints its metrics by name and unit, then — as the last line of
//! standard output — one JSON object `{correct, attempted, failed,
//! metrics}`; it exits non-zero when an output was wrong.

mod compare;
mod hostref;
mod json;
mod layers;
mod metrics;
mod run;
mod summary;
mod trace;
mod traced;
mod workloads;

use json::Value;
use run::RunOpts;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  cij_benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans FILE]
  cij_benchmark all [--seed N] [--seconds S] [--runs N] [--out FILE]
  cij_benchmark compare A.json B.json
workloads: nm_uniform, mw_clustered, serve_mixed, index_io_file";

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Pins glibc's mmap threshold. Left to adjust itself, it settles on a
/// different value from one process to the next (it follows the sizes of
/// the mapped blocks freed so far, and whether a grown block moved depends on
/// the address-space layout the kernel randomises), and with it whether the
/// workloads' few-megabyte vectors are returned to the system when freed:
/// `peak_rss_mb` of one seed read 15.5–18.6 MiB over six runs of
/// `index_io_file`, and 15.3–15.6 pinned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator_policy() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
    // SAFETY: `mallopt` only stores an allocator parameter; it is called
    // first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator_policy() {}

/// Points `TMPDIR` at a directory beside the executable (inside the build
/// directory, so inside the checkout and ignored by git): the file and mmap
/// backends create their unlinked page files in `std::env::temp_dir()`, and
/// a run must read and write nothing outside its checkout.
fn keep_temp_files_in_the_checkout() {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("cij_benchmark_tmp")))
    else {
        return;
    };
    if std::fs::create_dir_all(&dir).is_ok() {
        std::env::set_var("TMPDIR", &dir);
    }
}

fn main() -> ExitCode {
    pin_allocator_policy();
    keep_temp_files_in_the_checkout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("all") => ("all", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some("run") => ("run", &args[1..]),
        // The driver appends its flags straight to the command.
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = Flags(rest.to_vec());
    let outcome = match command {
        "all" => all(&flags),
        "compare" => compare_files(rest),
        _ => run_one(&flags),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("cij_benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    let opts = RunOpts {
        kind: Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: flags.parsed("--seed", DEFAULT_SEED)?,
        seconds,
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            // A bare `--trace` followed by another flag.
            Some(next) if next.starts_with("--") => true,
            Some(other) => return Err(format!("bad value for --trace: {other:?}")),
        },
        quick: flags.has("--quick"),
        spans_out: flags.value("--spans").map(PathBuf::from),
    };
    let report = run::run(&opts);
    println!("{}", report.to_json().to_json());
    Ok(report.correct)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes exactly two report files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare::compare(&load(a)?, &load(b)?)
}

/// Runs one workload in a child process (so `peak_rss_mb` is that
/// workload's alone), echoes what it printed and returns its result line.
fn child_run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<&Path>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(path) = spans {
        command.arg("--spans").arg(path);
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{} printed no result", kind.name()))?;
    println!("{body}");
    json::parse(last).map_err(|e| format!("{} result line: {e}", kind.name()))
}

/// `{"name": {"value", "unit"}}` per run → `{"name": {"unit", "runs": […]}}`.
fn merge_runs(runs: &[Value]) -> Value {
    let Some(first) = runs.first().and_then(Value::as_obj) else {
        return Value::obj::<&str>([]);
    };
    Value::obj(first.iter().map(|(name, metric)| {
        let values = runs
            .iter()
            .filter_map(|r| r.get(name)?.get("value").cloned())
            .collect();
        (
            name.clone(),
            Value::obj([
                ("unit", metric.get("unit").cloned().unwrap_or(Value::Null)),
                ("runs", Value::Arr(values)),
            ]),
        )
    }))
}

fn all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let runs: usize = flags.parsed("--runs", 1)?;
    if !(1..=100).contains(&runs) {
        return Err(format!("--runs {runs} is outside 1..=100"));
    }
    let out = flags.value("--out").map(PathBuf::from);
    println!(
        "cij_benchmark all: seed {seed}, {seconds} s per run, {runs} run(s) per workload, \
         {} hardware threads",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let mut correct = true;
        let mut end_to_end = Vec::new();
        for _ in 0..runs {
            let result = child_run(kind, seed, seconds, false, None)?;
            correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
            end_to_end.push(result.get("metrics").cloned().unwrap_or(Value::Null));
        }
        let spans = out
            .as_ref()
            .map(|o| o.with_extension(format!("spans-{}.json", kind.name())));
        let traced = child_run(kind, seed, seconds, true, spans.as_deref())?;
        correct &= traced.get("correct").and_then(Value::as_bool) == Some(true);
        all_correct &= correct;
        workloads.push((
            kind.name(),
            Value::obj([
                ("correct", Value::Bool(correct)),
                ("end_to_end", merge_runs(&end_to_end)),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }
    let report = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("workloads", Value::obj(workloads)),
    ]);
    if let Some(path) = &out {
        std::fs::write(path, report.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--quick` pass: every workload at 1/20 size, tracing off and on.
    /// Asserts that outputs are correct (which includes: the ladder's pair
    /// sequence and page accesses equal the engine's), that every catalogue
    /// metric is emitted under a well-formed name, and that the result line
    /// parses back.
    #[test]
    fn quick_pass_emits_every_metric_on_every_workload() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let report = run::run(&RunOpts {
                    kind,
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    quick: true,
                    spans_out: None,
                });
                assert!(report.correct, "{} trace={trace}", kind.name());
                assert_eq!(report.failed, 0);
                assert!(report.attempted >= 1);
                let line = report.to_json().to_json();
                assert!(!line.contains('\n'));
                let parsed = json::parse(&line).expect("result line parses back");
                let keys: Vec<&str> = parsed
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let emitted = parsed.get("metrics").and_then(Value::as_obj).unwrap();
                let expected = if trace {
                    metrics::per_layer_catalogue()
                } else {
                    metrics::end_to_end_catalogue()
                };
                assert_eq!(emitted.len(), expected.len());
                for ((name, metric), (want, unit)) in emitted.iter().zip(expected) {
                    assert_eq!(name, want);
                    assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit));
                    let value = metric.get("value").and_then(Value::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
                    if !trace {
                        assert!(value.unwrap() > 0.0, "end-to-end {name} is never 0");
                    }
                }
            }
        }
    }

    #[test]
    fn per_layer_shares_fall_where_the_design_says() {
        let traced = |kind| {
            let report = run::run(&RunOpts {
                kind,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace: true,
                quick: true,
                spans_out: None,
            });
            move |name: &str| {
                report
                    .metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap()
            }
        };
        let nm = traced(Kind::NmUniform);
        assert!(
            nm("layers.storage_share") < 0.05,
            "storage is noise on the join"
        );
        assert!(nm("trace.span_coverage") > 0.95);
        assert_eq!(
            nm("core.service.roundtrip_ns"),
            0.0,
            "no service on the join"
        );
        let index = traced(Kind::IndexIoFile);
        assert!(
            index("layers.storage_share") > 0.5,
            "storage dominates the index"
        );
        assert_eq!(index("core.filter.calls"), 0.0, "no geometry on the index");
        let serve = traced(Kind::ServeMixed);
        assert!(serve("core.service.roundtrip_ns") > 0.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let flags = |args: &[&str]| Flags(args.iter().map(|s| s.to_string()).collect());
        assert!(run_one(&flags(&["--workload", "nope"])).is_err());
        assert!(run_one(&flags(&["--seed", "1"])).is_err());
        assert!(run_one(&flags(&["--workload", "nm_uniform", "--seed", "x"])).is_err());
        assert!(run_one(&flags(&["--workload", "nm_uniform", "--seconds", "-1"])).is_err());
        assert!(run_one(&flags(&["--workload", "nm_uniform", "--trace", "2"])).is_err());
        assert!(compare_files(&["only-one.json".to_string()]).is_err());
    }
}
