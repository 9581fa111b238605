//! Runs [`cij_bench::experiments::fault_storm`] at `--scale` (default
//! 0.02): seeded transient faults must be byte-invisible on every backend,
//! and a persistently corrupt frame must fail exactly the query it touches.

fn main() {
    cij_bench::experiments::fault_storm::run(cij_bench::util::flag("scale", 0.02));
}
