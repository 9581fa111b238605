//! One run of one workload: set-up (timed, repeated), preparation, then
//! either the measured closed loop (tracing off → end-to-end metrics) or the
//! traced ladder, rungs and outside deltas (→ per-layer metrics).

use crate::hostref::HostRef;
use crate::json::Value;
use crate::metrics::{end_to_end_catalogue, per_layer_catalogue, MetricSet};
use crate::summary::{median, peak_rss_mb, quartiles, tail_percentile};
use crate::traced::Traced;
use crate::workloads::{
    Bench, IndexIoFile, Kind, Measured, MwClustered, NmUniform, OpSample, ServeMixed,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/20-size inputs and a handful of ops: the self-tests' smoke pass.
    pub quick: bool,
    /// Where the traced run writes its spans when it ends.
    pub spans_out: Option<PathBuf>,
}

/// What a run printed as its last line, plus the verdict for the exit code.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Value,
}

impl RunReport {
    /// The driver's contract: exactly these four keys, on one line.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics.clone()),
        ])
    }
}

pub fn run(opts: &RunOpts) -> RunReport {
    match opts.kind {
        Kind::NmUniform => run_bench::<NmUniform>(opts),
        Kind::MwClustered => run_bench::<MwClustered>(opts),
        Kind::ServeMixed => run_bench::<ServeMixed>(opts),
        Kind::IndexIoFile => run_bench::<IndexIoFile>(opts),
    }
}

/// Set-up repetitions per run. A fixed count, so that every run of a
/// workload makes the same sequence of allocations before its first op.
const SETUP_REPS: usize = 7;

/// Builds the workload repeatedly, one instance alive at a time (so peak
/// memory is that of one), and returns the last instance with every
/// build's time in reference seconds (a pass of the host reference on
/// either side of each build, as around an op).
fn set_up<B: Bench>(opts: &RunOpts) -> (B, Vec<f64>) {
    let host = HostRef::default();
    let mut times = Vec::new();
    let mut bench = None;
    let mut before = host.read();
    for _ in 0..if opts.quick { 1 } else { SETUP_REPS } {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(B::build(opts.seed, opts.quick));
        let wall = t.elapsed().as_secs_f64();
        let after = host.read();
        times.push(wall * HostRef::scale(before, after));
        before = after;
    }
    (bench.expect("at least one build"), times)
}

fn run_bench<B: Bench + Traced>(opts: &RunOpts) -> RunReport {
    let (mut bench, setup_times) = set_up::<B>(opts);
    if let Err(why) = bench.prepare() {
        println!("INCORRECT {}: {why}", opts.kind.name());
        return RunReport {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Value::obj::<&str>([]),
        };
    }
    if opts.trace {
        return run_traced(&mut bench, opts);
    }

    let min_ops = if opts.quick { 3 } else { 5 };
    let measured = bench.measure(opts.seconds, min_ops);
    report_end_to_end(opts.kind, &measured, &setup_times)
}

fn report_end_to_end(kind: Kind, measured: &Measured, setup_times: &[f64]) -> RunReport {
    let samples = &measured.samples;
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let raw_walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let walls: Vec<f64> = samples.iter().map(OpSample::ref_wall_s).collect();
    let first_rows: Vec<f64> = samples.iter().map(OpSample::ref_first_rows_s).collect();
    let scales: Vec<f64> = samples.iter().map(|s| s.scale).collect();

    let mut m = MetricSet::default();
    m.set("op_p50_s", median_over_kinds(samples, OpSample::ref_wall_s));
    m.set(
        "first_rows_p50_s",
        median_over_kinds(samples, OpSample::ref_first_rows_s),
    );
    // One client, closed loop: the ops' own time, without the client's
    // think time (the host-reference passes between ops).
    m.set("ops_per_s", attempted as f64 / walls.iter().sum::<f64>());
    m.set("page_accesses_per_op", measured.accesses_per_op);
    m.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    m.set("setup_s", median(setup_times));

    println!(
        "{}: {attempted} ops in {:.2} s, closed loop, 1 client; {failed} failed",
        kind.name(),
        measured.wall_s,
    );
    println!("  timings are in reference seconds (wall × host-reference scale; README.md)");
    let (q1, q2, q3) = quartiles(&scales);
    println!("  host scale    q1 {q1:.4}  median {q2:.4}  q3 {q3:.4}    (1 = the quiet host)");
    let (q1, q2, q3) = quartiles(&raw_walls);
    println!("  op wall, raw  q1 {q1:.4}  median {q2:.4}  q3 {q3:.4} s");
    let (q1, q2, q3) = quartiles(&walls);
    println!("  op            q1 {q1:.4}  median {q2:.4}  q3 {q3:.4} s  (n = {attempted})");
    let (q1, q2, q3) = quartiles(&first_rows);
    println!("  first rows    q1 {q1:.4}  median {q2:.4}  q3 {q3:.4} s");
    match tail_percentile(&walls, 0.95) {
        Some(p95) => println!("  op p95        {p95:.4} s"),
        None => println!("  op p95        n/a (fewer than 10 samples beyond it)"),
    }
    let (q1, q2, q3) = quartiles(setup_times);
    println!(
        "  set-up        q1 {q1:.4}  median {q2:.4}  q3 {q3:.4} s  (n = {})",
        setup_times.len()
    );
    let catalogue = end_to_end_catalogue();
    print_metrics(&m, &catalogue);
    RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.to_json(&catalogue),
    }
}

/// The median per kind of op, averaged over the kinds. With one kind this
/// is the plain median. A request mix has a multi-modal latency
/// distribution, and the plain median of one sits in a gap between two
/// kinds, where it jumps with the share of each that the clock let through.
fn median_over_kinds(samples: &[OpSample], value: impl Fn(&OpSample) -> f64) -> f64 {
    let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_kind.entry(s.kind).or_default().push(value(s));
    }
    by_kind.values().map(|v| median(v)).sum::<f64>() / by_kind.len() as f64
}

fn run_traced<B: Bench + Traced>(bench: &mut B, opts: &RunOpts) -> RunReport {
    let tracer = crate::trace::Tracer::default();
    let mut m = MetricSet::default();
    let outcome = bench.trace(&mut m, opts, &tracer);
    if let Some(path) = &opts.spans_out {
        if let Err(e) = std::fs::write(path, tracer.to_json().to_json()) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    let catalogue = per_layer_catalogue();
    println!("{}: traced run", opts.kind.name());
    for (name, layer) in tracer.layers() {
        println!(
            "  span {name:<22} calls {:>8}  total {:>9.4} s  self {:>9.4} s",
            layer.calls,
            layer.total_ns as f64 * 1e-9,
            layer.self_s()
        );
    }
    print_metrics(&m, &catalogue);
    let (attempted, failed) = match &outcome {
        Ok(ops) => (*ops, 0),
        Err(why) => {
            println!("INCORRECT {}: {why}", opts.kind.name());
            (1, 1)
        }
    };
    RunReport {
        correct: outcome.is_ok(),
        attempted,
        failed,
        metrics: m.to_json(&catalogue),
    }
}

fn print_metrics(m: &MetricSet, catalogue: &[(&'static str, &'static str)]) {
    for (name, unit) in catalogue {
        println!("  {name:<36} {:>16.6} {unit}", m.get(name).unwrap_or(0.0));
    }
}
