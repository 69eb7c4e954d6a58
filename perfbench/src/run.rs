//! Running one workload: repeated set-up, the untraced measurement, the
//! traced re-run, and the printed report.

use crate::stats;
use crate::trace::{ObsCapture, Recorder, SpanTotals};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload's timed operations never reach reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.markov.self_ms", "ms"),
    ("core.patterns.self_ms", "ms"),
    ("logicmin.minimize.self_ms", "ms"),
    ("automata.regex.self_ms", "ms"),
    ("automata.nfa.self_ms", "ms"),
    ("automata.dfa.self_ms", "ms"),
    ("automata.hopcroft.self_ms", "ms"),
    ("automata.reduce.self_ms", "ms"),
    ("exec.compile_us", "us"),
    ("farm.batch_ms", "ms"),
    ("farm.worker_busy_ratio", "ratio"),
    ("farm.cache_hit_ratio", "ratio"),
    ("farm.designs", "count"),
    ("core.degraded", "count"),
    ("core.states_total", "count"),
    ("workloads.trace_gen_ms", "ms"),
    ("bpred.train_ms", "ms"),
    ("bpred.simulate_ns_per_branch", "ns"),
    ("exec.fsm_step_ns", "ns"),
    ("exec.fsm_steps", "count"),
    ("bpred.miss_rate_k8", "ratio"),
    ("serve.request.self_us", "us"),
    ("serve.parse.self_us", "us"),
    ("serve.proto.encode_ns", "ns"),
    ("serve.proto.decode_ns", "ns"),
    ("serve.server_share", "ratio"),
    ("serve.design_wall_ms", "ms"),
    ("serve.outside_design_p99_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("farm.store.append.self_us", "us"),
    ("farm.store.appends", "count"),
    ("farm.store.flushes", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.max_late_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence (a digest, a count, or what went wrong).
    pub detail: String,
}

impl Check {
    /// A check that holds when `ok`.
    #[must_use]
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What one timed measurement produced.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Operations per second (designs, panels, or the highest offered
    /// request rate that met the latency limit).
    pub ops_per_s: f64,
    /// Median latency of one operation.
    pub p50_ms: f64,
    /// Tail latency of one operation.
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is, over how many samples.
    pub tail_note: String,
    /// A time per operation compared between the traced and untraced
    /// phases to give `bench.trace_overhead`.
    pub overhead_basis: f64,
    /// Per-layer metrics measured by the workload itself.
    pub layer: Vec<(&'static str, f64)>,
    /// Client-side latency of the served requests, summed, in µs (the
    /// denominator of `serve.server_share`).
    pub client_latency_us: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or went unanswered.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Extra report lines (per-step logs).
    pub notes: Vec<String>,
}

/// One workload of the benchmark.
pub trait Workload {
    /// Everything that must exist before the first timed operation.
    type Fixture;
    /// The workload's name.
    fn name(&self) -> &'static str;
    /// Builds the fixture from the seed.
    fn setup(&self, seed: u64) -> Self::Fixture;
    /// Runs timed operations for about `budget`. `full` asks for the
    /// complete end-to-end measurement; traced runs pass `false` and get
    /// only the fixed-rate part.
    fn measure(
        &self,
        fixture: &mut Self::Fixture,
        budget: Duration,
        full: bool,
        rec: &Recorder,
    ) -> Measurement;
    /// Output checks that need work of their own (reference designs,
    /// the other execution backend), run after the timed operations and
    /// outside the traced capture; they add to `m`.
    fn check(&self, fixture: &mut Self::Fixture, m: &mut Measurement);
}

/// The options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
}

/// A finished run, ready to print.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Report {
    /// True when every check held, no operation failed and every metric
    /// is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The human-readable lines: `workload metric value unit`, then the
    /// checks and notes.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {} {note}", self.workload);
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "check {} {} {verdict} {}",
                self.workload, c.name, c.detail
            );
        }
        let _ = writeln!(
            out,
            "{} attempted {} count\n{} failed {} count",
            self.workload, self.attempted, self.workload, self.failed
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{} {name} {value} {unit}", self.workload);
        }
        out
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` as `options` ask and returns its report.
pub fn run<W: Workload>(workload: &W, options: &Options) -> Report {
    if options.trace {
        run_traced(workload, options)
    } else {
        run_untraced(workload, options)
    }
}

fn run_untraced<W: Workload>(workload: &W, options: &Options) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(workload.setup(options.seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.expect("at least one set-up");
    let budget = Duration::from_secs_f64(options.seconds);
    let mut m = workload.measure(&mut fixture, budget, true, &Recorder::new(false));
    workload.check(&mut fixture, &mut m);
    drop(fixture);
    let metrics = vec![
        ("setup_s", stats::median(&setups).unwrap_or(0.0), "s"),
        ("ops_per_s", m.ops_per_s, "1/s"),
        ("p50_ms", m.p50_ms, "ms"),
        ("tail_ms", m.tail_ms, "ms"),
        ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    let mut notes = m.notes;
    notes.push(format!(
        "setup_s over {SETUP_REPEATS} set-ups: {}",
        setups
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!("tail_ms is {}", m.tail_note));
    Report {
        workload: workload.name(),
        metrics,
        attempted: m.attempted,
        failed: m.failed,
        checks: m.checks,
        notes,
    }
}

fn run_traced<W: Workload>(workload: &W, options: &Options) -> Report {
    let half = Duration::from_secs_f64(options.seconds / 2.0);
    let mut fixture = workload.setup(options.seed);
    let mut plain = workload.measure(&mut fixture, half, false, &Recorder::new(false));
    workload.check(&mut fixture, &mut plain);
    drop(fixture);

    let rec = Recorder::new(true);
    let mut fixture = workload.setup(options.seed);
    let capture = ObsCapture::install();
    let mut traced = workload.measure(&mut fixture, half, false, &rec);
    let capture = capture.stop();
    workload.check(&mut fixture, &mut traced);
    // Every thread that reported to the sink (server, farm workers) ends
    // with the fixture, before the capture is folded.
    drop(fixture);
    let totals = capture.finish();

    let mut values: BTreeMap<&'static str, f64> = layer_from_obs(&totals, traced.client_latency_us);
    values.extend(traced.layer.iter().copied());
    values.insert(
        "bench.trace_overhead",
        traced.overhead_basis / plain.overhead_basis,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();

    let name = workload.name();
    let spans = Path::new(crate::OUT_DIR).join(format!("{name}-seed{}.spans.jsonl", options.seed));
    let mut notes = traced.notes;
    notes.push(match write_spans(&rec, &spans) {
        Ok(()) => format!("bench spans written to {}", spans.display()),
        Err(e) => format!("bench spans not written: {e}"),
    });
    notes.extend(obs_span_notes(&totals));
    let mut checks = plain.checks;
    checks.extend(traced.checks);
    Report {
        workload: name,
        metrics,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        checks,
        notes,
    }
}

fn write_spans(rec: &Recorder, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    rec.write_jsonl(path)
}

/// The per-layer metrics that come straight from the program's own obs
/// spans.
fn layer_from_obs(
    totals: &BTreeMap<String, SpanTotals>,
    client_latency_us: f64,
) -> BTreeMap<&'static str, f64> {
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mut out = BTreeMap::new();
    for (metric, span) in [
        ("core.markov.self_ms", "markov"),
        ("core.patterns.self_ms", "patterns"),
        ("logicmin.minimize.self_ms", "minimize"),
        ("automata.regex.self_ms", "regex"),
        ("automata.nfa.self_ms", "nfa"),
        ("automata.dfa.self_ms", "dfa"),
        ("automata.hopcroft.self_ms", "hopcroft"),
        ("automata.reduce.self_ms", "reduce"),
    ] {
        out.insert(metric, get(span).mean_self_ms());
    }
    out.insert(
        "serve.request.self_us",
        get("serve_request").mean_self_ms() * 1e3,
    );
    out.insert(
        "serve.parse.self_us",
        get("serve_parse").mean_self_ms() * 1e3,
    );
    out.insert(
        "farm.store.append.self_us",
        get("store_append").mean_self_ms() * 1e3,
    );
    if client_latency_us > 0.0 {
        out.insert(
            "serve.server_share",
            get("serve_request").wall_us as f64 / client_latency_us,
        );
    }
    out
}

/// Where the traced time went: every obs span name with its count and
/// summed self and wall time, largest self time first.
fn obs_span_notes(totals: &BTreeMap<String, SpanTotals>) -> Vec<String> {
    let mut spans: Vec<(&String, &SpanTotals)> =
        totals.iter().filter(|(_, t)| t.count > 0).collect();
    spans.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_us));
    spans
        .into_iter()
        .map(|(name, t)| {
            format!(
                "obs span {name}: {} closed, self {:.3} ms, wall {:.3} ms",
                t.count,
                t.self_us as f64 / 1e3,
                t.wall_us as f64 / 1e3
            )
        })
        .collect()
}
