//! The fsmgen benchmark: four workloads that each stress different
//! layers of the system, an open-loop load generator, and the statistics
//! and tracing they report with. See `README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

mod customize;
mod design_cold;
mod openloop;
pub mod run;
mod serve;
mod stats;
mod trace;

use fsmgen_traces::BitTrace;
use fsmgen_workloads::{BranchBenchmark, Input};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where runs write their result files and scratch stores, relative to
/// the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["design_cold", "customize", "serve_hot", "serve_cold"];

/// Program inputs per benchmark that one run cycles through, so its
/// numbers average over several inputs instead of hinging on one.
pub const INPUT_SETS: usize = 8;

/// The program input for stream `stream` (below 256) of `seed`. Every
/// trace the benchmark generates comes from a benchmark model under one
/// of these, so the seed alone fixes the inputs. Streams: `design_cold`
/// 0..8, `customize` 16..32, `serve_hot` 40, `serve_cold` 48..56.
#[must_use]
pub fn input(seed: u64, stream: u64) -> Input {
    Input(seed.wrapping_mul(256).wrapping_add(stream))
}

/// A benchmark's taken bits, exactly `bits` long, under input stream
/// `stream` of `seed`.
#[must_use]
pub fn taken_bits(bench: BranchBenchmark, seed: u64, stream: u64, bits: usize) -> BitTrace {
    bench
        .trace(input(seed, stream), bits)
        .iter()
        .take(bits)
        .map(|e| e.taken)
        .collect()
}

/// A fresh, empty scratch directory under [`OUT_DIR`].
///
/// # Panics
///
/// Panics when the directory cannot be created.
#[must_use]
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(OUT_DIR)
        .join("tmp")
        .join(format!("{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

/// Runs the workload called `name`, or `None` for an unknown name.
#[must_use]
pub fn run_named(name: &str, options: &run::Options) -> Option<run::Report> {
    Some(match name {
        "design_cold" => run::run(&design_cold::DesignCold, options),
        "customize" => run::run(&customize::Customize, options),
        "serve_hot" => run::run(&serve::Serve(serve::Mix::Hot), options),
        "serve_cold" => run::run(&serve::Serve(serve::Mix::Cold), options),
        _ => return None,
    })
}
