//! `trajectory` — run every paper workload under every execution engine
//! and print `BENCH_trajectory.json` on stdout.
//!
//! ```text
//! cargo run --release -p cmm-bench --bin trajectory > BENCH_trajectory.json
//! ```
//!
//! Every figure is deterministic, so CI regenerates the file and `cmp`s
//! it against the committed one.

use cmm_bench::trajectory::{
    run_chaos_histogram, run_pool_throughput, run_serve_figures, run_snapshot_figures,
    run_trajectory, to_json, SNAPSHOT_EVERY,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: trajectory > BENCH_trajectory.json (it takes no arguments)");
        return ExitCode::FAILURE;
    }
    let measurements = run_trajectory();
    // The chaos-sweep outcome histogram: a deterministic record of what
    // the seeded fault schedules do to a fixed population of generated
    // cases.
    let chaos = run_chaos_histogram(40, 0, 0, 5);
    // Batch-service scaling on the cost-model clock. The run itself
    // asserts the timing-stripped batch report is byte-identical at
    // every -j.
    let pool = run_pool_throughput(&[1, 2, 4, 8]);
    // The same manifest, checkpointed at every SNAPSHOT_EVERY fuel
    // units. The run itself asserts the checkpointed report is
    // byte-identical at -j1 and -j4 and that no round-trip changed
    // machine state.
    let snap = run_snapshot_figures(SNAPSHOT_EVERY);
    // The execution service under its acceptance load: 17 tenants ×
    // 64 threads over all five engine tiers with rotation migration,
    // run at -j1 and -j8. The run itself asserts the scheduler event
    // logs are byte-identical, the parked population peaks above 1000
    // blobs, and at least one thread crossed an engine tier.
    let serve = run_serve_figures();
    print!("{}", to_json(&measurements, &chaos, &pool, &snap, &serve));
    ExitCode::SUCCESS
}
