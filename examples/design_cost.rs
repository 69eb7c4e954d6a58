//! Design cost per history length (§5 of EXPERIMENTS.md): designs the
//! inputs of perfbench's `design_cold` workload one at a time and prints
//! the mean, median and largest design time at each history.
//!
//! The inputs are those of `design_cold` under the given seed: the
//! taken bits of the six branch-suite programs, 20,000 per trace, under
//! program inputs `seed * 256 + set` for sets 0..8.
//!
//! Run with: `cargo run --release --example design_cost -- [SEED]`

use fsmgen_suite::core::Designer;
use fsmgen_suite::traces::BitTrace;
use fsmgen_suite::workloads::{BranchBenchmark, Input};
use std::time::Instant;

const TRACE_BITS: usize = 20_000;
const INPUT_SETS: u64 = 8;
const HISTORIES: [usize; 4] = [6, 8, 9, 10];

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("SEED must be an integer"));
    let traces: Vec<BitTrace> = (0..INPUT_SETS)
        .flat_map(|set| {
            BranchBenchmark::ALL.iter().map(move |bench| {
                bench
                    .trace(Input(seed * 256 + set), TRACE_BITS)
                    .iter()
                    .take(TRACE_BITS)
                    .map(|e| e.taken)
                    .collect()
            })
        })
        .collect();

    let mut program_ms = 0.0;
    for history in HISTORIES {
        let mut ms: Vec<f64> = traces
            .iter()
            .map(|trace| {
                let start = Instant::now();
                let design = Designer::new(history).design_from_trace(trace);
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(design.expect("20,000 bits fill any history"));
                elapsed
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        program_ms += mean;
        println!(
            "h={history:<2} designs {} mean {mean:.2} ms, median {:.2} ms, max {:.2} ms",
            ms.len(),
            ms[ms.len() / 2],
            ms[ms.len() - 1]
        );
    }
    println!("one program at every history: {program_ms:.1} ms (sum of the means)");
}
