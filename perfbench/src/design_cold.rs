//! `design_cold`: the paper's design flow with nothing to reuse. Each
//! pass designs six branch-suite taken-bit traces at histories 6, 8, 9
//! and 10 on a fresh two-worker farm whose cache is disabled, so every
//! job pays the full trace → Markov → minimize → regex → DFA flow and
//! the serve, store and cache layers stay idle. Passes cycle through
//! [`crate::INPUT_SETS`] program inputs per benchmark, so one run's
//! numbers average over several inputs rather than hinge on one.

use crate::run::{Check, Measurement, Workload};
use crate::stats;
use crate::trace::Recorder;
use fsmgen::Designer;
use fsmgen_automata::machine_to_table;
use fsmgen_exec::CompiledMachine;
use fsmgen_farm::{DesignJob, Farm, FarmConfig, Fnv1a};
use fsmgen_traces::BitTrace;
use fsmgen_workloads::BranchBenchmark;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits per design trace.
pub const TRACE_BITS: usize = 20_000;
/// History lengths designed per trace.
pub const HISTORIES: [usize; 4] = [6, 8, 9, 10];
/// Farm workers (sized for a two-CPU host).
pub const WORKERS: usize = 2;

/// The workload.
pub struct DesignCold;

/// Per input set, the six benchmarks' traces, derived from the seed.
pub struct Traces {
    sets: Vec<Vec<Arc<BitTrace>>>,
}

fn jobs(traces: &[Arc<BitTrace>]) -> Vec<DesignJob> {
    let mut jobs = Vec::new();
    for trace in traces {
        for &h in &HISTORIES {
            let id = jobs.len() as u64;
            jobs.push(DesignJob::from_trace(
                id,
                Arc::clone(trace),
                Designer::new(h),
            ));
        }
    }
    jobs
}

impl Workload for DesignCold {
    type Fixture = Traces;

    fn name(&self) -> &'static str {
        "design_cold"
    }

    fn setup(&self, seed: u64) -> Traces {
        Traces {
            sets: (0..crate::INPUT_SETS as u64)
                .map(|set| {
                    BranchBenchmark::ALL
                        .iter()
                        .map(|&b| Arc::new(crate::taken_bits(b, seed, set, TRACE_BITS)))
                        .collect()
                })
                .collect(),
        }
    }

    fn measure(
        &self,
        traces: &mut Traces,
        budget: Duration,
        _full: bool,
        rec: &Recorder,
    ) -> Measurement {
        let start = Instant::now();
        let mut walls = Vec::new();
        let mut busy = Vec::new();
        let mut compile_us = Vec::new();
        // Machine-table digest per input set, one entry per pass of it.
        let mut digests: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut failed = 0u64;
        let mut attempted = 0u64;
        let mut first_pass = (0u64, 0u64, 0u64);
        // Passes run until the budget is spent; at least one cycle of
        // the input sets plus one repeat, so a digest is compared.
        while walls.len() <= traces.sets.len() || start.elapsed() < budget {
            let set = walls.len() % traces.sets.len();
            let farm = Farm::new(FarmConfig {
                workers: WORKERS,
                cache_capacity: 0,
            });
            let jobs = jobs(&traces.sets[set]);
            attempted += jobs.len() as u64;
            let pass_start = Instant::now();
            let report = {
                let _span = rec.span("farm.design_batch");
                farm.design_batch(jobs)
            };
            let wall = pass_start.elapsed();
            let job_walls: Duration = report.outcomes.iter().map(|o| o.wall).sum();
            busy.push(job_walls.as_secs_f64() / (WORKERS as f64 * wall.as_secs_f64()));
            failed += report.metrics.failed as u64;

            let mut digest = Fnv1a::new();
            let (mut designs, mut degraded, mut states) = (0, 0, 0);
            for outcome in &report.outcomes {
                let Ok(design) = &outcome.result else {
                    continue;
                };
                digest.write(machine_to_table(design.fsm()).as_bytes());
                designs += 1;
                degraded += u64::from(design.degradation().final_rung().is_some());
                states += design.fsm().num_states() as u64;
                let t0 = Instant::now();
                let compiled = {
                    let _span = rec.span("exec.compile");
                    CompiledMachine::compile(design.fsm())
                };
                compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(compiled.ok());
            }
            digests.entry(set).or_default().push(digest.finish());
            if walls.is_empty() {
                first_pass = (designs, degraded, states);
            }
            walls.push(wall.as_secs_f64() * 1e3);
        }

        let pass_ms = stats::median(&walls).unwrap_or(0.0);
        let per_pass_designs = (BranchBenchmark::ALL.len() * HISTORIES.len()) as f64;
        let rates: Vec<f64> = walls
            .iter()
            .map(|ms| per_pass_designs / (ms / 1e3))
            .collect();
        let tail_p = stats::tail_percentile(walls.len()).unwrap_or(50);
        let unstable: Vec<usize> = digests
            .iter()
            .filter(|(_, d)| d.windows(2).any(|w| w[0] != w[1]))
            .map(|(set, _)| *set)
            .collect();
        let mut all = Fnv1a::new();
        for d in digests.values() {
            all.write_u64(d[0]);
        }
        let checks = vec![
            Check::new(
                "every_job_succeeds",
                failed == 0,
                format!("{failed} of {attempted} jobs failed"),
            ),
            Check::new(
                "machine_digest_stable",
                unstable.is_empty(),
                format!(
                    "{:016x} over {} passes of {} input sets; unstable sets {unstable:?}",
                    all.finish(),
                    walls.len(),
                    digests.len()
                ),
            ),
        ];
        Measurement {
            ops_per_s: stats::median(&rates).unwrap_or(0.0),
            p50_ms: pass_ms,
            tail_ms: stats::nearest_rank(&stats::sorted(&walls), f64::from(tail_p) / 100.0)
                .unwrap_or(0.0),
            tail_note: format!("p{tail_p} of {} passes", walls.len()),
            overhead_basis: pass_ms,
            layer: vec![
                (
                    "farm.batch_ms",
                    walls.iter().sum::<f64>() / walls.len() as f64,
                ),
                (
                    "farm.worker_busy_ratio",
                    stats::median(&busy).unwrap_or(0.0),
                ),
                ("farm.cache_hit_ratio", 0.0),
                ("farm.designs", first_pass.0 as f64),
                ("core.degraded", first_pass.1 as f64),
                ("core.states_total", first_pass.2 as f64),
                (
                    "exec.compile_us",
                    compile_us.iter().sum::<f64>() / compile_us.len().max(1) as f64,
                ),
            ],
            client_latency_us: 0.0,
            attempted,
            failed,
            checks,
            notes: vec![format!(
                "{} passes of {per_pass_designs} designs; pass wall ms {}",
                walls.len(),
                stats::describe(&walls)
            )],
        }
    }

    fn check(&self, traces: &mut Traces, m: &mut Measurement) {
        m.checks.push(serial_matches_farm(&traces.sets[0]));
    }
}

/// One job per history on the first trace, designed serially, must match
/// the farm's machine byte for byte.
fn serial_matches_farm(traces: &[Arc<BitTrace>]) -> Check {
    let farm = Farm::new(FarmConfig {
        workers: WORKERS,
        cache_capacity: 0,
    });
    let report = farm.design_batch(jobs(traces));
    let mismatched: Vec<usize> = HISTORIES
        .iter()
        .enumerate()
        .filter(|&(i, &h)| {
            let serial = Designer::new(h).design_from_trace(&traces[0]);
            let farmed = report.outcomes[i].result.as_ref();
            match (serial, farmed) {
                (Ok(s), Ok(f)) => machine_to_table(s.fsm()) != machine_to_table(f.fsm()),
                _ => true,
            }
        })
        .map(|(_, &h)| h)
        .collect();
    Check::new(
        "serial_design_matches_farm",
        mismatched.is_empty(),
        format!("histories {HISTORIES:?}, mismatched {mismatched:?}"),
    )
}
