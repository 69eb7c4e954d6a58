//! `customize`: the paper's customized-processor flow (Figure 5) at the
//! quick configuration's history. Each panel generates one benchmark's
//! TRAIN and EVAL traces, trains eight custom FSMs at h = 6 on a fresh
//! two-worker farm, and simulates the custom architecture with k = 0..8
//! FSMs on the EVAL trace. Panels rotate over the six benchmarks, and
//! each rotation takes the next of [`crate::INPUT_SETS`] TRAIN/EVAL
//! input pairs. Simulation is the largest share of a panel, so this is
//! the workload for the exec and bpred layers.

use crate::run::{Check, Measurement, Workload};
use crate::stats;
use crate::trace::Recorder;
use fsmgen_bpred::{simulate, CustomTrainer};
use fsmgen_exec::{CompiledMachine, ExecBackend};
use fsmgen_farm::{Farm, FarmConfig};
use fsmgen_workloads::{BranchBenchmark, Input};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Dynamic branches per TRAIN and EVAL trace.
pub const TRACE_LEN: usize = 30_000;
/// Global history of the custom FSMs.
pub const HISTORY: usize = 6;
/// Custom FSMs trained per panel; the architecture sweeps k = 0..=this.
pub const CUSTOMS: usize = 8;
/// Farm workers (sized for a two-CPU host).
pub const WORKERS: usize = 2;
/// Equal windows `ops_per_s` takes its median over.
pub const WINDOWS: usize = 5;

/// The workload.
pub struct Customize;

/// The seed and the miss counts every repeat of a panel must match.
pub struct Fixture {
    seed: u64,
    /// Per `(benchmark, input set)`: mispredictions at k = 0..=CUSTOMS.
    reference: BTreeMap<(usize, usize), Vec<usize>>,
}

/// The TRAIN and EVAL inputs of input set `set`.
fn inputs(seed: u64, set: usize) -> (Input, Input) {
    let stream = 16 + 2 * set as u64;
    (crate::input(seed, stream), crate::input(seed, stream + 1))
}

/// What one panel did.
struct Panel {
    misses: Vec<usize>,
    branches: usize,
    designs: usize,
    states: u64,
    degraded: u64,
    hits: u64,
    lookups: u64,
    trace_gen: Duration,
    train: Duration,
    batch: Duration,
    /// Simulation time at k = 0..=CUSTOMS.
    sim: Vec<Duration>,
    compile_us: Vec<f64>,
}

fn panel(bench: BranchBenchmark, (train, eval): (Input, Input), rec: &Recorder) -> Panel {
    let t0 = Instant::now();
    let (train, eval) = {
        let _span = rec.span("workloads.trace");
        (bench.trace(train, TRACE_LEN), bench.trace(eval, TRACE_LEN))
    };
    let trace_gen = t0.elapsed();
    let farm = Farm::new(FarmConfig {
        workers: WORKERS,
        ..FarmConfig::default()
    });
    let t1 = Instant::now();
    let (designs, metrics) = {
        let _span = rec.span("bpred.train");
        CustomTrainer::new(HISTORY).train_parallel_with_metrics(&train, CUSTOMS, &farm)
    };
    let train_time = t1.elapsed();
    let mut misses = Vec::with_capacity(CUSTOMS + 1);
    let mut sim = Vec::with_capacity(CUSTOMS + 1);
    for k in 0..=CUSTOMS {
        let mut arch = designs.architecture(k);
        let t = Instant::now();
        let result = {
            let _span = rec.span("bpred.simulate");
            simulate(&mut arch, &eval)
        };
        sim.push(t.elapsed());
        misses.push(result.mispredictions);
    }
    let mut compile_us = Vec::new();
    for (_, design) in designs.designs() {
        let t = Instant::now();
        let compiled = {
            let _span = rec.span("exec.compile");
            CompiledMachine::compile(design.fsm())
        };
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(compiled.ok());
    }
    Panel {
        misses,
        branches: eval.len(),
        designs: designs.len(),
        states: designs
            .designs()
            .iter()
            .map(|(_, d)| d.fsm().num_states() as u64)
            .sum(),
        degraded: designs
            .designs()
            .iter()
            .filter(|(_, d)| d.degradation().final_rung().is_some())
            .count() as u64,
        hits: metrics.cache.hits + metrics.cache.snapshot_hits,
        lookups: metrics.cache.hits + metrics.cache.snapshot_hits + metrics.cache.misses,
        trace_gen,
        train: train_time,
        batch: metrics.batch_wall,
        sim,
        compile_us,
    }
}

impl Workload for Customize {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        "customize"
    }

    /// One untimed rotation on the first input set: warms the allocator
    /// and code paths and records the miss counts its repeats must match.
    fn setup(&self, seed: u64) -> Fixture {
        let off = Recorder::new(false);
        Fixture {
            seed,
            reference: BranchBenchmark::ALL
                .iter()
                .enumerate()
                .map(|(i, &b)| ((i, 0), panel(b, inputs(seed, 0), &off).misses))
                .collect(),
        }
    }

    fn measure(
        &self,
        fx: &mut Fixture,
        budget: Duration,
        _full: bool,
        rec: &Recorder,
    ) -> Measurement {
        let benches = BranchBenchmark::ALL;
        let start = Instant::now();
        let mut panels = Vec::new();
        let mut rotation_ms = Vec::new();
        let mut rotation_start = Instant::now();
        let mut mismatched = 0u64;
        // Whole rotations only, so every benchmark weighs the same; at
        // least one cycle of the input sets plus one repeat.
        while rotation_ms.len() <= crate::INPUT_SETS || start.elapsed() < budget {
            let set = rotation_ms.len() % crate::INPUT_SETS;
            for (i, &bench) in benches.iter().enumerate() {
                let p = panel(bench, inputs(fx.seed, set), rec);
                let reference = fx
                    .reference
                    .entry((i, set))
                    .or_insert_with(|| p.misses.clone());
                mismatched += u64::from(p.misses != *reference);
                panels.push(p);
            }
            rotation_ms.push(rotation_start.elapsed().as_secs_f64() * 1e3);
            rotation_start = Instant::now();
        }
        let elapsed = start.elapsed();
        // Windows hold whole rotations, so each weighs every benchmark
        // the same: window w is rotations [w*n/W, (w+1)*n/W).
        let per_window: Vec<f64> = (0..WINDOWS)
            .filter_map(|w| {
                let chunk = &rotation_ms
                    [w * rotation_ms.len() / WINDOWS..(w + 1) * rotation_ms.len() / WINDOWS];
                let ms: f64 = chunk.iter().sum();
                (ms > 0.0).then(|| (chunk.len() * benches.len()) as f64 / (ms / 1e3))
            })
            .collect();

        let n = panels.len() as f64;
        let mean = |f: &dyn Fn(&Panel) -> f64| panels.iter().map(f).sum::<f64>() / n;
        let rotation = &panels[..benches.len()];
        let branches: usize = rotation.iter().map(|p| p.branches).sum();
        let misses_k8: usize = rotation.iter().map(|p| p.misses[CUSTOMS]).sum();
        let custom_steps = |p: &Panel| -> f64 {
            (0..=CUSTOMS)
                .map(|k| (k.min(p.designs) * p.branches) as f64)
                .sum()
        };
        let extra_sim_ns: f64 = panels
            .iter()
            .map(|p| {
                p.sim
                    .iter()
                    .map(|t| t.saturating_sub(p.sim[0]).as_nanos() as f64)
                    .sum::<f64>()
            })
            .sum();
        let compile_us: Vec<f64> = panels
            .iter()
            .flat_map(|p| p.compile_us.iter().copied())
            .collect();
        let (hits, lookups) = panels
            .iter()
            .fold((0, 0), |(h, l), p| (h + p.hits, l + p.lookups));
        let panel_ms =
            mean(&|p| (p.trace_gen + p.train + p.sim.iter().sum::<Duration>()).as_secs_f64() * 1e3);
        let share = |part: f64| 100.0 * part / panel_ms;
        let sim_ms = mean(&|p| p.sim.iter().sum::<Duration>().as_secs_f64() * 1e3);
        let gen_ms = mean(&|p| p.trace_gen.as_secs_f64() * 1e3);
        let train_ms = mean(&|p| p.train.as_secs_f64() * 1e3);

        let tail_p = stats::tail_percentile(rotation_ms.len()).unwrap_or(50);
        let checks = vec![Check::new(
            "panels_repeat_reference",
            mismatched == 0,
            format!(
                "{mismatched} of {} panels differ from an earlier run of the same inputs",
                panels.len()
            ),
        )];
        Measurement {
            ops_per_s: stats::median(&per_window).unwrap_or(0.0),
            p50_ms: stats::median(&rotation_ms).unwrap_or(0.0),
            tail_ms: stats::nearest_rank(&stats::sorted(&rotation_ms), f64::from(tail_p) / 100.0)
                .unwrap_or(0.0),
            tail_note: format!("p{tail_p} of {} rotations of six panels", rotation_ms.len()),
            overhead_basis: panel_ms,
            layer: vec![
                ("workloads.trace_gen_ms", gen_ms),
                ("bpred.train_ms", train_ms),
                ("farm.batch_ms", mean(&|p| p.batch.as_secs_f64() * 1e3)),
                ("farm.cache_hit_ratio", hits as f64 / lookups.max(1) as f64),
                (
                    "bpred.simulate_ns_per_branch",
                    mean(&|p| p.sim[0].as_nanos() as f64 / p.branches as f64),
                ),
                (
                    "exec.fsm_step_ns",
                    extra_sim_ns / panels.iter().map(custom_steps).sum::<f64>(),
                ),
                ("exec.fsm_steps", rotation.iter().map(custom_steps).sum()),
                ("bpred.miss_rate_k8", misses_k8 as f64 / branches as f64),
                ("farm.designs", rotation.iter().map(|p| p.designs as f64).sum()),
                ("core.states_total", rotation.iter().map(|p| p.states as f64).sum()),
                ("core.degraded", rotation.iter().map(|p| p.degraded as f64).sum()),
                (
                    "exec.compile_us",
                    compile_us.iter().sum::<f64>() / compile_us.len().max(1) as f64,
                ),
            ],
            client_latency_us: 0.0,
            attempted: panels.len() as u64,
            failed: mismatched,
            checks,
            notes: vec![
                format!(
                    "{} panels in {:.3} s; per-window panels/s {per_window:.3?}; rotation wall ms {}",
                    panels.len(),
                    elapsed.as_secs_f64(),
                    stats::describe(&rotation_ms)
                ),
                format!(
                    "panel time shares: simulate {:.1}%, train {:.1}%, trace gen {:.1}% of {panel_ms:.3} ms",
                    share(sim_ms),
                    share(train_ms),
                    share(gen_ms)
                ),
            ],
        }
    }

    fn check(&self, fx: &mut Fixture, m: &mut Measurement) {
        m.checks.push(backends_agree(fx.seed));
        m.checks.push(figure1_has_three_states());
    }
}

/// The compiled and interpreted backends give identical results on the
/// widest architecture of every benchmark.
fn backends_agree(seed: u64) -> Check {
    let mut differing = Vec::new();
    let (train_input, eval_input) = inputs(seed, 0);
    for bench in BranchBenchmark::ALL {
        let train = bench.trace(train_input, TRACE_LEN);
        let eval = bench.trace(eval_input, TRACE_LEN);
        let farm = Farm::new(FarmConfig {
            workers: WORKERS,
            ..FarmConfig::default()
        });
        let designs = CustomTrainer::new(HISTORY).train_parallel(&train, CUSTOMS, &farm);
        let compiled = simulate(
            &mut designs.architecture_with_backend(CUSTOMS, ExecBackend::Compiled),
            &eval,
        );
        let interpreted = simulate(
            &mut designs.architecture_with_backend(CUSTOMS, ExecBackend::Interpreted),
            &eval,
        );
        if compiled != interpreted {
            differing.push(bench.name());
        }
    }
    Check::new(
        "compiled_matches_interpreted_k8",
        differing.is_empty(),
        format!("differing benchmarks {differing:?}"),
    )
}

fn figure1_has_three_states() -> Check {
    let states = fsmgen_experiments::figures::figure1().fsm().num_states();
    Check::new(
        "figure1_three_states",
        states == 3,
        format!("{states} states"),
    )
}
