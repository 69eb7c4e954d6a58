//! `serve_hot` and `serve_cold`: the design service under load. An
//! in-process server (one event-loop shard, one farm worker, default
//! cache, JSON v1) is driven by the generator of [`crate::openloop`].
//!
//! - `serve_hot` reads: 90% design requests over 32 traces designed
//!   during set-up, 10% pings, so every design is a cache hit and the
//!   run measures the protocol, the shard loop and the cache lookup.
//! - `serve_cold` writes: every request designs a distinct 1,024-bit
//!   window against a durable store, so each pays farm miss → design on
//!   the shard → compile-on-insert → store append and fsync.
//!
//! Latency is measured open-loop at a fixed reference rate, as the median
//! over equal windows of each window's quantiles. Capacity (`ops_per_s`)
//! is the saturation throughput: a closed loop keeps
//! [`SATURATION_IN_FLIGHT`] requests in flight and counts replies per
//! second over [`WINDOWS`] windows.

use crate::openloop::{self, Load, Outcome, Step, StepReport, Traffic};
use crate::run::{Check, Measurement, Workload};
use crate::stats::{self, Windows};
use crate::trace::Recorder;
use fsmgen::Designer;
use fsmgen_automata::{machine_from_table, machine_to_table};
use fsmgen_exec::CompiledMachine;
use fsmgen_farm::Fnv1a;
use fsmgen_serve::json::{self, Json};
use fsmgen_serve::{
    read_frame, Codec, Request, Response, ServeConfig, Server, ServerHandle, DEFAULT_MAX_FRAME,
};
use fsmgen_traces::BitTrace;
use fsmgen_workloads::BranchBenchmark;
use std::collections::HashSet;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Pool windows whose served designs are compared byte for byte with
/// local ones.
pub const CHECKED: usize = 32;
/// Windows the saturation throughput is split into.
pub const WINDOWS: usize = 5;
/// Requests kept in flight while measuring saturation throughput.
pub const SATURATION_IN_FLIGHT: usize = 16;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Cache-hit reads.
    Hot,
    /// Distinct cold designs against a durable store.
    Cold,
}

impl Mix {
    /// Offered rate of the latency windows, requests per second.
    #[must_use]
    pub fn reference_rate(self) -> f64 {
        match self {
            Mix::Hot => 4000.0,
            Mix::Cold => 250.0,
        }
    }

    /// Windows the reference-rate latency is split into. Each hot window
    /// still holds over 2,000 samples, so its p99 has ten beyond it; the
    /// median over many short windows keeps the host's occasional
    /// multi-millisecond stalls out of `tail_ms`.
    fn latency_windows(self) -> usize {
        match self {
            Mix::Hot => 15,
            Mix::Cold => 5,
        }
    }

    fn history(self) -> usize {
        match self {
            Mix::Hot => 4,
            Mix::Cold => 6,
        }
    }
}

/// The workload.
pub struct Serve(pub Mix);

/// Cheap stateless mixing of `(seed, seq)` into request choices.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The request stream of one mix.
pub struct MixTraffic {
    mix: Mix,
    seed: u64,
    /// The traces requests cut their windows from.
    traces: Vec<BitTrace>,
    /// `(trace, first bit)` of every window in the pool: the 32 warm
    /// traces (hot) or every distinct cold window.
    windows: Vec<(usize, usize)>,
    /// Bits per window.
    bits: usize,
    /// The first [`CHECKED`] windows, rendered once.
    texts: Vec<String>,
    /// The locally designed machine for each hot window.
    expected: Vec<String>,
    /// The first machine the server returned for each of the first
    /// [`CHECKED`] windows.
    returned: Mutex<Vec<Option<String>>>,
}

impl MixTraffic {
    /// Which pool window request `seq` designs, or `None` for a ping.
    fn pick(&self, seq: u64) -> Option<usize> {
        match self.mix {
            Mix::Hot => {
                let r = mix64(self.seed ^ seq.rotate_left(17));
                (!r.is_multiple_of(10)).then(|| (r >> 8) as usize % self.windows.len())
            }
            Mix::Cold => Some(seq as usize % self.windows.len()),
        }
    }

    fn window(&self, i: usize) -> BitTrace {
        let (trace, start) = self.windows[i];
        window(&self.traces[trace], start, self.bits)
    }

    /// Window `i` in the trace text form requests carry.
    fn text(&self, i: usize) -> String {
        match self.texts.get(i) {
            Some(text) => text.clone(),
            None => self.window(i).to_string(),
        }
    }
}

impl Traffic for MixTraffic {
    fn request(&self, seq: u64) -> Request {
        match self.pick(seq) {
            None => Request::Ping,
            Some(i) => Request::Design {
                id: seq,
                trace: self.text(i),
                history: self.mix.history(),
                threshold: None,
                dont_care: None,
            },
        }
    }

    fn check(&self, seq: u64, response: &Response) -> Result<(), String> {
        match (self.pick(seq), response) {
            (None, Response::Pong) => Ok(()),
            (
                Some(i),
                Response::DesignOk {
                    id,
                    cache_hit,
                    machine,
                    ..
                },
            ) => {
                if *id != seq {
                    return Err(format!("reply id {id} for request {seq}"));
                }
                if *cache_hit != (self.mix == Mix::Hot) {
                    return Err(format!("request {seq}: cache_hit = {cache_hit}"));
                }
                if self.mix == Mix::Hot && *machine != self.expected[i] {
                    return Err(format!(
                        "request {seq}: machine differs from the local design"
                    ));
                }
                if i < CHECKED {
                    self.returned.lock().unwrap_or_else(PoisonError::into_inner)[i]
                        .get_or_insert_with(|| machine.clone());
                }
                Ok(())
            }
            (_, other) => Err(format!("request {seq}: unexpected reply {other:?}")),
        }
    }
}

/// A running in-process server plus its request stream.
pub struct Fixture {
    mix: Mix,
    server: Arc<Server>,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    addr: String,
    traffic: MixTraffic,
    store_dir: Option<PathBuf>,
    next_seq: u64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Taken-bit traces of every benchmark under input stream `stream`,
/// `bits` long each.
fn suite_traces(seed: u64, stream: u64, bits: usize) -> Vec<BitTrace> {
    BranchBenchmark::ALL
        .iter()
        .map(|&b| crate::taken_bits(b, seed, stream, bits))
        .collect()
}

fn window(trace: &BitTrace, start: usize, len: usize) -> BitTrace {
    (start..start + len).filter_map(|i| trace.get(i)).collect()
}

/// The 32 hot windows: 256 bits each, spread over the six benchmarks.
fn hot_windows(seed: u64) -> (Vec<BitTrace>, Vec<(usize, usize)>, usize) {
    const BITS: usize = 256;
    let per_bench = CHECKED.div_ceil(BranchBenchmark::ALL.len());
    let traces = suite_traces(seed, 40, per_bench * BITS);
    let windows = (0..CHECKED)
        .map(|i| (i % traces.len(), (i / traces.len()) * BITS))
        .collect();
    (traces, windows, BITS)
}

/// Distinct 1,024-bit windows of every benchmark under four inputs, in a
/// seeded random order, so any prefix of the pool samples all of them.
/// The pool holds several times the requests a run on this host sends;
/// a run that exhausted it would reuse windows, get cache hits and fail
/// its checks.
fn cold_windows(seed: u64) -> (Vec<BitTrace>, Vec<(usize, usize)>, usize) {
    const BITS: usize = 1024;
    const STRIDE: usize = 16;
    const PER_TRACE: usize = 2500;
    let traces: Vec<BitTrace> = (48..52)
        .flat_map(|stream| suite_traces(seed, stream, (PER_TRACE - 1) * STRIDE + BITS))
        .collect();
    let mut seen = HashSet::new();
    let mut windows = Vec::new();
    for (t, trace) in traces.iter().enumerate() {
        for k in 0..PER_TRACE {
            let start = k * STRIDE;
            let (word, shift) = (start / 64, start % 64);
            let words = trace.words();
            let mut h = Fnv1a::new();
            for i in 0..BITS / 64 {
                let lo = words[word + i] >> shift;
                let hi = match (shift, words.get(word + i + 1)) {
                    (0, _) | (_, None) => 0,
                    (_, Some(next)) => next << (64 - shift),
                };
                h.write_u64(lo | hi);
            }
            if seen.insert(h.finish()) {
                windows.push((t, start));
            }
        }
    }
    // Fisher-Yates with the seed's stream of choices.
    for i in (1..windows.len()).rev() {
        let j = (mix64(seed ^ (i as u64).rotate_left(29)) % (i as u64 + 1)) as usize;
        windows.swap(i, j);
    }
    (traces, windows, BITS)
}

fn local_machine(trace: &BitTrace, history: usize) -> String {
    Designer::new(history)
        .design_from_trace(trace)
        .map(|d| machine_to_table(d.fsm()))
        .unwrap_or_default()
}

impl Workload for Serve {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        match self.0 {
            Mix::Hot => "serve_hot",
            Mix::Cold => "serve_cold",
        }
    }

    fn setup(&self, seed: u64) -> Fixture {
        let mix = self.0;
        let ((traces, windows, bits), store_dir) = match mix {
            Mix::Hot => (hot_windows(seed), None),
            Mix::Cold => (cold_windows(seed), Some(crate::scratch_dir("serve_cold"))),
        };
        let mut traffic = MixTraffic {
            mix,
            seed,
            traces,
            windows,
            bits,
            texts: Vec::new(),
            expected: Vec::new(),
            returned: Mutex::new(vec![None; CHECKED]),
        };
        traffic.texts = (0..CHECKED)
            .map(|i| traffic.window(i).to_string())
            .collect();
        if mix == Mix::Hot {
            traffic.expected = (0..CHECKED)
                .map(|i| local_machine(&traffic.window(i), mix.history()))
                .collect();
        }
        let server = Arc::new(
            Server::bind(ServeConfig {
                shards: 1,
                workers: 1,
                // Above the generator's pool, so admission never refuses
                // it while a previous step's sockets are being reaped.
                max_connections: 1024,
                cache_file: store_dir.as_ref().map(|d| d.join("designs.flog")),
                ..ServeConfig::default()
            })
            .expect("bind the in-process server"),
        );
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || runner.run());
        let fixture = Fixture {
            mix,
            server,
            handle,
            thread: Some(thread),
            addr,
            traffic,
            store_dir,
            next_seq: 0,
        };
        if mix == Mix::Hot {
            // Warm the cache: one design of each hot window.
            let mut conn = openloop::connect(&fixture.addr).expect("connect the warm-up client");
            for (i, text) in fixture.traffic.texts.iter().enumerate() {
                let reply = call(
                    &mut conn,
                    &Request::Design {
                        id: i as u64,
                        trace: text.clone(),
                        history: mix.history(),
                        threshold: None,
                        dont_care: None,
                    },
                );
                assert!(
                    matches!(reply, Ok(Response::DesignOk { .. })),
                    "warm-up design {i} failed: {reply:?}"
                );
            }
        }
        fixture
    }

    fn measure(
        &self,
        fx: &mut Fixture,
        budget: Duration,
        full: bool,
        rec: &Recorder,
    ) -> Measurement {
        let before = ServerCounters::read(&fx.server);
        // A full run splits its budget between the latency windows and
        // the saturation windows; a traced run measures latency only.
        let share = if full { 0.5 } else { 0.9 };
        let span = budget.mul_f64(share * 0.9);
        let windows = Windows {
            warmup: budget.mul_f64(share / 10.0),
            len: span / fx.mix.latency_windows() as u32,
            count: fx.mix.latency_windows(),
        };
        let reference = run_step(
            fx,
            Step {
                load: Load::Open(fx.mix.reference_rate()),
                duration: windows.end(),
                drain: Duration::from_secs(5),
            },
        );
        let per_window = windows.split(reference.latencies_ms());
        let tail_p = per_window
            .iter()
            .map(|w| tail_q(w.len()))
            .min()
            .unwrap_or(50);
        let p50s: Vec<f64> = per_window.iter().map(|w| quantile(w, 50)).collect();
        let tails: Vec<f64> = per_window.iter().map(|w| quantile(w, tail_p)).collect();
        let delta = ServerCounters::read(&fx.server).since(&before);
        let mut notes = vec![
            step_note(&reference, tail_p),
            format!("reference windows p50 ms {p50s:.4?}, p{tail_p} ms {tails:.4?}"),
        ];
        record_request_spans(rec, &reference);
        let mut steps = vec![reference];
        let mut ops_per_s = 0.0;
        if full {
            let saturated = run_step(
                fx,
                Step {
                    load: Load::Closed(SATURATION_IN_FLIGHT),
                    duration: windows.end(),
                    drain: Duration::from_secs(5),
                },
            );
            let throughput = Windows {
                len: span / WINDOWS as u32,
                count: WINDOWS,
                ..windows
            };
            let rates: Vec<f64> = throughput
                .split(saturated.completions())
                .iter()
                .map(|w| w.iter().sum::<f64>() / throughput.len.as_secs_f64())
                .collect();
            ops_per_s = stats::median(&rates).unwrap_or(0.0);
            notes.push(format!(
                "step saturation: {:?} for {:.3} s, {} requests on {} connections, \
                 windows req/s {rates:.1?}",
                saturated.step.load,
                saturated.step.duration.as_secs_f64(),
                saturated.attempted,
                saturated.connections
            ));
            steps.push(saturated);
        }
        let reference = &steps[0];

        let answered: Vec<&openloop::Sample> = reference
            .samples
            .iter()
            .filter(|s| s.done.is_some())
            .collect();
        let designs: Vec<&&openloop::Sample> =
            answered.iter().filter(|s| s.server_ms.is_some()).collect();
        let server_ms: Vec<f64> = designs.iter().filter_map(|s| s.server_ms).collect();
        let outside: Vec<f64> = designs
            .iter()
            .filter_map(|s| Some(s.latency()?.as_secs_f64() * 1e3 - s.server_ms?))
            .collect();
        let late = stats::sorted(&reference.lateness_ms());
        let attempted: u64 = steps.iter().map(|s| s.attempted).sum();
        let failed: u64 = steps.iter().map(|s| s.failures() as u64).sum();
        let reasons: Vec<String> = steps
            .iter()
            .flat_map(|s| &s.samples)
            .filter(|s| s.outcome != Outcome::Ok)
            .take(3)
            .map(|s| format!("request {}: {:?}", s.seq, s.outcome))
            .collect();
        let want_hits = if fx.mix == Mix::Hot { 1.0 } else { 0.0 };
        let checks = vec![
            Check::new(
                "every_request_answered",
                failed == 0,
                format!("{failed} of {attempted} requests failed or went unanswered {reasons:?}"),
            ),
            Check::new(
                "cache_hit_ratio",
                delta.hit_ratio() == want_hits,
                format!(
                    "{} hits of {} lookups, want ratio {want_hits}",
                    delta.hits,
                    delta.hits + delta.misses
                ),
            ),
        ];
        let mean = |v: &mut dyn Iterator<Item = f64>| {
            let (n, sum) = v.fold((0u64, 0.0), |(n, s), x| (n + 1, s + x));
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        let p50_ms = stats::median(&p50s).unwrap_or(0.0);
        Measurement {
            ops_per_s,
            p50_ms,
            tail_ms: stats::median(&tails).unwrap_or(0.0),
            tail_note: format!(
                "p{tail_p} per window at {} req/s, median of {} windows of >= {} samples",
                fx.mix.reference_rate(),
                per_window.len(),
                per_window.iter().map(Vec::len).min().unwrap_or(0)
            ),
            overhead_basis: p50_ms,
            layer: vec![
                (
                    "serve.proto.encode_ns",
                    mean(&mut reference.samples.iter().map(|s| s.encode_ns)),
                ),
                (
                    "serve.proto.decode_ns",
                    mean(&mut answered.iter().map(|s| s.decode_ns)),
                ),
                ("farm.cache_hit_ratio", delta.hit_ratio()),
                ("farm.designs", delta.misses as f64),
                ("serve.rejected", delta.rejected as f64),
                ("serve.timeouts", delta.timeouts as f64),
                ("farm.store.appends", delta.appends as f64),
                ("farm.store.flushes", delta.flushes as f64),
                ("serve.design_wall_ms", quantile(&server_ms, 50)),
                ("serve.outside_design_p99_ms", quantile(&outside, 99)),
                (
                    "gen.late_p99_ms",
                    stats::nearest_rank(&late, 0.99).unwrap_or(0.0),
                ),
                ("gen.max_late_ms", late.last().copied().unwrap_or(0.0)),
            ],
            client_latency_us: answered
                .iter()
                .filter_map(|s| s.latency())
                .map(|l| l.as_secs_f64() * 1e6)
                .sum(),
            attempted,
            failed,
            checks,
            notes,
        }
    }

    fn check(&self, fx: &mut Fixture, m: &mut Measurement) {
        let (states, degraded, compile_us, byte_identical) = check_designs(fx);
        m.checks.push(Check::new(
            "designs_match_local",
            byte_identical,
            format!("first {CHECKED} designs compared byte for byte"),
        ));
        m.layer.extend([
            ("core.states_total", states as f64),
            ("core.degraded", degraded as f64),
            ("exec.compile_us", compile_us),
        ]);
    }
}

/// The tail percentile reported for a window of `n` samples.
fn tail_q(n: usize) -> u32 {
    stats::tail_percentile(n).unwrap_or(50)
}

fn quantile(values: &[f64], percentile: u32) -> f64 {
    stats::nearest_rank(&stats::sorted(values), f64::from(percentile) / 100.0).unwrap_or(0.0)
}

/// Runs one step; each step opens fresh connections, so a reply a
/// failed step left in flight can never be matched to a later request.
fn run_step(fx: &mut Fixture, step: Step) -> StepReport {
    let report = openloop::run_step(&fx.addr, step, fx.next_seq, &fx.traffic);
    fx.next_seq = report.next_seq;
    report
}

/// One closed-loop exchange: a single write per frame (with Nagle off,
/// so the frame is not held back waiting for an acknowledgement), then
/// the reply.
fn call(conn: &mut TcpStream, request: &Request) -> Result<Response, String> {
    let payload = request.encode_with(Codec::JsonV1);
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    conn.write_all(&frame).map_err(|e| e.to_string())?;
    let reply = read_frame(conn, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
    Response::decode_with(Codec::JsonV1, &reply)
}

fn step_note(report: &StepReport, tail_p: u32) -> String {
    let late = stats::sorted(&report.lateness_ms());
    let lat: Vec<f64> = report.latencies_ms().map(|(_, ms)| ms).collect();
    format!(
        "step reference: {:?} for {:.3} s, {} requests, p50 {:.4} ms, p{tail_p} {:.4} ms, \
         generator late p99 {:.4} ms max {:.4} ms, backlog {}, {} connections",
        report.step.load,
        report.step.duration.as_secs_f64(),
        report.attempted,
        quantile(&lat, 50),
        quantile(&lat, tail_p),
        stats::nearest_rank(&late, 0.99).unwrap_or(0.0),
        late.last().copied().unwrap_or(0.0),
        report.backlog_at_end(),
        report.connections
    )
}

/// Records each request's timeline as benchmark spans.
fn record_request_spans(rec: &Recorder, report: &StepReport) {
    let start = report.start;
    for s in &report.samples {
        let due = start + s.due;
        if let Some(done) = s.done {
            rec.record("client.request", due, start + done, Some(s.seq));
        }
        let sent = start + s.sent;
        let encode = Duration::from_nanos(s.encode_ns as u64);
        rec.record(
            "client.encode",
            sent.checked_sub(encode).unwrap_or(sent),
            sent,
            Some(s.seq),
        );
    }
}

/// Compares the machine the server returned for each of the first
/// [`CHECKED`] windows with a local design, byte for byte, and times
/// compiling the returned machines. Returns `(states, degraded, mean
/// compile µs, ok)`; the compile time is 0 for the hot mix, whose timed
/// requests compile nothing.
fn check_designs(fx: &Fixture) -> (u64, u64, f64, bool) {
    let mut states = 0;
    let mut degraded = 0;
    let mut ok = true;
    let mut compile_us = Vec::new();
    let returned = fx
        .traffic
        .returned
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for (i, machine) in returned.iter().enumerate() {
        let design = Designer::new(fx.mix.history()).design_from_trace(&fx.traffic.window(i));
        let (Ok(design), Some(machine)) = (design, machine) else {
            ok = false;
            continue;
        };
        states += design.fsm().num_states() as u64;
        degraded += u64::from(design.degradation().final_rung().is_some());
        ok &= *machine == machine_to_table(design.fsm());
        if fx.mix == Mix::Cold {
            if let Ok(dfa) = machine_from_table(machine) {
                let t = Instant::now();
                std::hint::black_box(CompiledMachine::compile(&dfa).ok());
                compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let compile = if compile_us.is_empty() {
        0.0
    } else {
        compile_us.iter().sum::<f64>() / compile_us.len() as f64
    };
    (states, degraded, compile, ok)
}

/// Server counters read through `Server::metrics_json`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    hits: u64,
    misses: u64,
    rejected: u64,
    timeouts: u64,
    appends: u64,
    flushes: u64,
}

impl ServerCounters {
    fn read(server: &Server) -> ServerCounters {
        let doc = json::parse(&server.metrics_json()).expect("serve metrics are JSON");
        let top = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let sub = |b: &str, k: &str| {
            doc.get(b)
                .and_then(|v| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        ServerCounters {
            hits: sub("cache", "hits") + sub("cache", "snapshot_hits"),
            misses: sub("cache", "misses"),
            rejected: top("rejected_backpressure") + top("conns_rejected"),
            timeouts: top("timeouts"),
            appends: sub("store", "appends"),
            flushes: sub("store", "flushes"),
        }
    }

    fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            rejected: self.rejected - before.rejected,
            timeouts: self.timeouts - before.timeouts,
            appends: self.appends - before.appends,
            flushes: self.flushes - before.flushes,
        }
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}
