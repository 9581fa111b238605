//! Runs every experiment of the evaluation section in sequence, at a scale
//! suitable for a quick full reproduction pass.
//!
//! Pass `--scale <f>` to override the per-experiment default scales with a
//! single global factor (applied to the paper's dataset sizes).

use cij_bench::experiments;
use cij_bench::Args;

fn main() {
    let args = Args::capture();
    let forward = |default: f64| -> Args {
        let scale = args.get("scale", default);
        Args::from_vec(vec!["--scale".into(), scale.to_string()])
    };
    experiments::fig5::run(&forward(0.1));
    experiments::fig6::run(&forward(0.05));
    experiments::table2::run(&forward(0.05));
    experiments::fig7::run(&forward(0.1));
    experiments::fig8::run_buffer(&forward(0.05));
    experiments::fig8::run_scalability(&forward(0.02));
    experiments::fig9::run_ratio(&forward(0.05));
    experiments::fig9::run_progress(&forward(0.05));
    experiments::fig10::run(&forward(0.02));
    experiments::fig11::run(&forward(0.02));
    experiments::table3::run(&forward(0.02));
    experiments::cache_sweep::run(&forward(0.02));
    experiments::fault_storm::run(&forward(0.02));
    println!("\nAll experiments completed.");
}
