//! The CLI subcommands.
//!
//! Every command returns a classified [`CliError`], which `main` maps to a
//! distinct exit code: usage mistakes exit 2, unparsable input data exits
//! 3, budget exhaustion (with `--no-degrade`) exits 4, everything else 1.

use crate::args::Args;
use crate::error::CliError;
use fsmgen::{failpoints, DesignBudget, DesignError, Designer};
use fsmgen_bpred::{
    simulate as run_sim, BranchPredictor, Combining, CustomTrainer, Gshare, LocalGlobalChooser,
    Ppm, XScaleBtb,
};
use fsmgen_experiments::figures;
use fsmgen_farm::{
    read_design_file, CompactPolicy, DesignJob, DesignStore, EventSink, Farm, FarmConfig,
    FarmEvent, ObsBridgeSink, StderrSink, StoreConfig,
};
use fsmgen_synth::{synthesize_area, to_vhdl, Encoding, VhdlOptions};
use fsmgen_traces::BitTrace;
use fsmgen_workloads::{BranchBenchmark, Input, ValueBenchmark};
use std::io::Read as _;
use std::time::{Duration, Instant};

/// A flag-parsing failure is a usage error (exit 2).
fn usage(message: String) -> CliError {
    CliError::Usage(message)
}

/// Top-level usage text.
pub const USAGE: &str = "\
fsmgen — automated design of finite state machine predictors

USAGE:
  fsmgen design   [--history N] [--threshold P] [--dont-care F]
                  [--format summary|dot|vhdl|table]
                  [--budget-states N] [--budget-nfa-states N]
                  [--budget-minterms N] [--budget-primes N]
                  [--budget-cover-nodes N] [--budget-ms MILLIS]
                  [--profile] [--profile-json FILE] [--trace-jsonl FILE]
                  [--no-degrade] [--inject-fault SPEC] [FILE]
          Design a predictor from a 0/1 trace (FILE or stdin; whitespace
          is ignored, so '0000 1000 1011 ...' works as-is). The table
          format can be reloaded with 'fsmgen predict'.
          The --budget-* flags cap the design pipeline; when a stage
          exceeds its cap the designer degrades gracefully (heuristic
          minimizer, then shorter history, then a saturating counter)
          and reports what it did. --budget-states caps the states of
          the unminimized machine, 2^(N+1)-1 at history N;
          --budget-primes caps the implicants found while generating
          primes. With --no-degrade a blown budget is
          an error instead (exit code 4). --inject-fault arms test
          failpoints, e.g. 'minimize=budget:1,dfa=error'.
          --profile prints a per-stage wall/counter table (stdout with
          the summary format, stderr otherwise); --profile-json writes
          the same breakdown as JSON and --trace-jsonl writes the raw
          span/counter event stream, one JSON object per line.

  fsmgen predict  --machine FILE [TRACE_FILE]
          Load a machine table and replay it over a 0/1 trace (file or
          stdin), reporting prediction accuracy.

  fsmgen trace    --benchmark NAME [--kind branch|value|bits]
                  [--len N] [--input K]
          Dump a synthetic workload trace. Branch benchmarks: compress,
          gs, gsm, g721, ijpeg, vortex. Value benchmarks: groff, gcc,
          li, go, perl.

  fsmgen trace export [--format chrome|folded] [--in trace.jsonl]
                  [--out FILE] [--stage NAME] [--min-us N] [--strict]
          Convert an obs JSONL trace (from design/farm/serve/confidence
          --trace-jsonl) into Chrome trace_event JSON — load it at
          chrome://tracing or ui.perfetto.dev — or folded flamegraph
          stacks for inferno/speedscope. Streaming: memory stays bounded
          however large the trace. Corrupt or torn lines are skipped and
          counted in the stderr report (with --strict they fail the
          export, exit 3). --stage keeps only spans under the named
          stage; --min-us drops spans shorter than N microseconds. --in
          and --out default to stdin/stdout ('-' works too).

  fsmgen simulate {--benchmark NAME | --trace-file FILE} [--lenient]
                  [--len N] [--customs K] [--history N]
          Simulate XScale, gshare, LGC, PPM and the customized FSM
          architecture and print miss rates. With --trace-file the file
          (PC TAKEN [TARGET] per line) is split in half: customs train on
          the first half and every predictor is evaluated on the second.
          --lenient skips malformed trace lines (reported on stderr)
          instead of failing.

EXIT CODES:
  0 success, 1 general failure, 2 usage error, 3 input parse error,
  4 design budget exceeded (with --no-degrade).

  fsmgen compile  --patterns LIST [--format summary|dot|vhdl|table]
          Compile history patterns in the paper's notation (oldest bit
          first, 'x' = don't care, '|' or ',' separated; e.g.
          \"0x1x | 0xx1x\" is Figure 7) into a steady-state machine.

  fsmgen confidence --benchmark NAME [--len N] [--trace-jsonl FILE]
          Run one Figure 2 panel: SUD counter sweep vs cross-trained FSM
          confidence estimators on a value benchmark (groff, gcc, li,
          go, perl). --trace-jsonl streams the panel's design-pipeline
          spans for 'fsmgen trace export'.

  fsmgen headlines [--len N]
          Verify the paper's §6.4/§7.5 headline claims on the synthetic
          substrate and print holds/fails per claim.

  fsmgen figure   {1|6|7}
          Print one of the paper's example machines as Graphviz DOT.

  fsmgen farm     [--benchmarks LIST] [--histories LIST] [--len N]
                  [--repeat K] [--threshold P] [--dont-care F]
                  [--jobs N] [--cache-capacity N] [--metrics-json FILE]
                  [--cache-file FILE] [--dump-machines DIR]
                  [--trace-jsonl FILE] [--verbose] [--no-degrade]
                  [--inject-fault SPEC] [budget flags as for 'design']
          Design a whole fleet of predictors as one batch: one job per
          (benchmark, history, pass). Jobs run on --jobs worker threads
          behind a content-addressed design cache (--cache-capacity
          entries; repeated passes hit it). Prints one line per job plus
          the batch metrics; --metrics-json writes the structured
          summary (throughput, p50/p95 latency, cache hit rate,
          degradation rungs) to FILE. --benchmarks and --histories are
          comma-separated (defaults: all branch benchmarks, history 4).
          --trace-jsonl streams the farm lifecycle events and every
          worker's design-pipeline spans to FILE as JSONL, one schema.
          --inject-fault arms process-wide failpoints visible to the
          workers, e.g. 'farm-worker=error:1'. --cache-file persists the
          design cache across runs as a durable append-only store:
          recovered before the batch (torn tails truncated, corrupt
          records skipped, legacy snapshots migrated — never fatal) and
          appended to as jobs complete, so a second run is served warm
          and even a killed run keeps its flushed designs.
          --dump-machines writes each job's machine table into DIR for
          artifact diffing.

  fsmgen cache    {info|verify|gc|compact} --cache-file FILE [--keep N]
                  [--max-generations N]
          Inspect or maintain a persistent design store (or a legacy
          snapshot). 'info' prints the format, accounting, a per-record
          summary and a machine state-count summary (min/median/max
          states, u16 table spills); 'verify' fully decodes every
          record; both exit
          nonzero when any record is corrupt or a torn tail was
          detected, after printing the damage report. 'gc' compacts the
          store keeping only the N newest unique records (default 64).
          'compact' deduplicates in place, optionally bounded by --keep
          and dropping records older than --max-generations sessions.
          'gc' and 'compact' migrate a legacy snapshot to the log
          format.

  fsmgen serve    [--addr HOST:PORT] [--shards N] [--workers N]
                  [--cache-capacity N]
                  [--max-connections N] [--queue-limit N]
                  [--read-timeout-ms N] [--max-frame-bytes N]
                  [--retry-after-ms N] [--cache-file FILE]
                  [--flush-every N] [--flush-interval-ms N]
                  [--metrics-json FILE] [--trace-jsonl FILE]
                  [--inject-fault SPEC] [--redesign]
                  [--redesign-window N] [--redesign-threshold X]
                  [--redesign-hysteresis X] [--redesign-history N]
          Run the TCP design service: length-prefixed JSON requests in,
          designed machines out, all fronted by the same cache-aware
          farm as 'fsmgen farm'. Prints 'listening on HOST:PORT' once
          ready (default 127.0.0.1:0 = OS-assigned port). --cache-file
          is a durable store: recovered on start, appended to on every
          design (fsync'd every --flush-every appends or
          --flush-interval-ms, whichever first) and compacted on
          graceful shutdown — a killed server loses at most one flush
          interval. Stop it with a 'shutdown' protocol request ('fsmgen
          client --shutdown'); the server then drains in-flight
          requests, compacts the store and writes --metrics-json. The
          wire format is specified in DESIGN.md. --inject-fault arms
          process-wide failpoints, e.g. 'serve-conn=error:1'.
          --shards N runs the sharded event-driven architecture: N
          non-blocking event-loop threads, connections dealt round-robin,
          the design cache partitioned per shard by trace fingerprint
          (one shared durable log), pipelined frames answered in request
          order. 0 (the default) keeps the thread-per-connection
          architecture. Both speak JSON v1 and, negotiated per
          connection by an 'FSMB' preamble, the compact binary v2 codec.
          --redesign enables the live predictor: clients stream outcome
          bits ('predict_request' frames), a windowed monitor watches the
          hit rate, and when it collapses below --redesign-threshold the
          server redesigns on the fresh window and hot-swaps the machine
          without dropping in-flight requests. The knob flags imply
          --redesign.

  fsmgen scenario {run|hunt} [--seed N] [--machine FILE]
                  [--train-benchmark NAME] [--train-len N] [--history N]
                  [--backend compiled|interpreted]
          Seeded adversarial scenario engine: deterministic streams of
          phase changes, drift, bursts and biased/periodic regimes, all
          a pure function of one seed, dueling a designed machine
          against the 2-bit-counter fallback. The machine comes from
          --machine (a table file, as 'design --format table' writes) or
          is designed fresh from --train-benchmark (default gsm).

          run   [--plan FILE] [--sample-every N] [--doublecheck]
                [--emit-plan FILE]
          Replay one plan (--plan JSON, else seeded from --seed) and
          print the deterministic JSONL event log: segment entries,
          periodic samples, final report. --doublecheck runs the plan
          twice and fails on the first diverging line — the determinism
          contract. --emit-plan writes the plan JSON for later replay.

          hunt  [--rounds N] [--restarts N] [--max-len N]
                [--target-gap X] [--out FILE]
          Mutate plans (seeded hill-climb over segment boundaries, bias
          knobs and regime mixes) hunting for a stream where the
          designed machine underperforms the counter; the winning plan
          is minimized (segments dropped, lengths halved) and printed as
          a hunt_report JSON, reproducible bit-identically from the
          printed seed. Exits nonzero when no losing plan was found.

  fsmgen client   --addr HOST:PORT [--ping | --stats | --shutdown]
                  [--history N] [--threshold P] [--dont-care F]
                  [--format summary|table] [--batch FILE]
                  [--codec json|binary] [--timeout-ms N] [TRACE_FILE]
          Talk to a running design service. Default: send one design
          request (trace from TRACE_FILE or stdin, as for 'design') and
          print the result; --format table prints the machine table,
          reloadable with 'fsmgen predict'. --batch FILE sends one
          request per line ('HISTORY BITS...', '#' comments allowed)
          over a single connection. --ping, --stats and --shutdown send
          the corresponding control requests instead. --stats --watch S
          re-polls every S seconds and prints one rate line per sample
          (same computation as 'fsmgen top'; --samples N stops after N).
          --codec binary speaks the compact binary v2 wire codec
          (negotiated by preamble; the payloads are byte-identical to
          JSON v1, just framed smaller).

  fsmgen loadgen  --addr HOST:PORT [--connections N] [--requests N]
                  [--pipeline N] [--seed N] [--codec json|binary]
                  [--workers N] [--distinct-traces N] [--history N]
                  [--rate R] [--deadline-ms N] [--json]
          Drive a seeded client swarm at a running design service:
          --connections pipelined connections multiplexed across
          --workers threads, each issuing --requests requests drawn from
          a design-heavy mix over a --distinct-traces trace pool.
          Closed-loop by default (each connection keeps --pipeline
          requests in flight); --rate R switches to open-loop injection
          at R req/s across the swarm. The workload is a pure function
          of --seed. Prints a human summary plus the loadgen_report
          JSON (--json prints only the JSON), with sustained req/s and
          p50/p95/p99 latency. Exits nonzero if any connection failed
          to connect, aborted, or saw a failed response.

  fsmgen top      HOST:PORT [--interval-ms N] [--timeout-ms N]
                  [--once] [--json] [--count N]
          Live dashboard for a running design service: polls the stats
          endpoint every --interval-ms (default 1000) and shows req/s,
          cache hit rate, rejection/timeout rates, latency p50/p95/p99
          with a p95 sparkline, store flush/compaction activity and
          uptime. Tolerates server restarts mid-watch (counters that
          rewind re-baseline and the frame is marked). On a TTY this is
          a full-screen ANSI view; when stdout is redirected it degrades
          to plain per-sample lines (--count N frames, default one
          two-sample table). --once prints a single table and exits;
          --json prints one machine-readable frame instead.";

fn branch_benchmark(name: &str) -> Result<BranchBenchmark, CliError> {
    BranchBenchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| CliError::Usage(format!("unknown branch benchmark {name:?}")))
}

/// Reads the first positional argument as a file, or stdin when absent.
fn read_input(args: &Args) -> Result<String, CliError> {
    match args.positional().first() {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| CliError::Other(format!("cannot read stdin: {e}")))?;
            Ok(buf)
        }
    }
}

/// Assembles a [`DesignBudget`] from the `--budget-*` flags.
fn budget_from_flags(args: &Args) -> Result<DesignBudget, CliError> {
    Ok(DesignBudget {
        max_dfa_states: args.flag_opt("budget-states").map_err(usage)?,
        max_nfa_states: args.flag_opt("budget-nfa-states").map_err(usage)?,
        max_minterms: args.flag_opt("budget-minterms").map_err(usage)?,
        max_primes: args.flag_opt("budget-primes").map_err(usage)?,
        max_cover_nodes: args.flag_opt("budget-cover-nodes").map_err(usage)?,
        deadline: args
            .flag_opt::<u64>("budget-ms")
            .map_err(usage)?
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
    })
}

/// `fsmgen design`: trace in, designed machine out.
///
/// # Errors
///
/// Returns a classified error: usage for bad flags, parse for a bad
/// trace, budget when `--no-degrade` is set and a cap is exceeded.
pub fn design(args: &Args) -> Result<(), CliError> {
    let history: usize = args.flag_or("history", 4).map_err(usage)?;
    let threshold: f64 = args.flag_or("threshold", 0.5).map_err(usage)?;
    let dont_care: f64 = args.flag_or("dont-care", 0.01).map_err(usage)?;
    let format = args.flag("format").unwrap_or("summary");
    if history == 0 || history > fsmgen::MAX_ORDER {
        return Err(CliError::Usage(format!(
            "--history must be in 1..={}, got {history}",
            fsmgen::MAX_ORDER
        )));
    }
    let budget = budget_from_flags(args)?;
    if let Some(spec) = args.flag("inject-fault") {
        failpoints::configure_from_spec(spec).map_err(usage)?;
    }

    let raw = read_input(args)?;
    let trace: BitTrace = raw
        .parse()
        .map_err(|e| CliError::Parse(format!("bad trace: {e}")))?;

    // Observability: any of the three flags records the pipeline's span
    // and counter events for this design; otherwise the recorder stays on
    // its disabled fast path. --trace-jsonl streams through a stamped
    // JSONL sink (ts_us/tid per line, flushed at every root-span close)
    // so the file is exportable with 'fsmgen trace export' and survives
    // a crash mid-run.
    let observing = args.has("profile")
        || args.flag("profile-json").is_some()
        || args.flag("trace-jsonl").is_some();
    let jsonl_sink = match args.flag("trace-jsonl") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Other(format!("cannot create {path}: {e}")))?;
            Some(std::sync::Arc::new(fsmgen_obs::JsonlObsSink::new(
                std::io::BufWriter::new(file),
            )))
        }
        None => None,
    };
    let jsonl_guard = jsonl_sink
        .clone()
        .map(|sink| fsmgen_obs::install(sink as std::sync::Arc<dyn fsmgen_obs::ObsSink>));
    let (result, events) = if observing {
        fsmgen_obs::profiled_events(|| {
            Designer::new(history)
                .prob_threshold(threshold)
                .dont_care_fraction(dont_care)
                .budget(budget)
                .degrade(!args.has("no-degrade"))
                .design_from_trace(&trace)
        })
    } else {
        let result = Designer::new(history)
            .prob_threshold(threshold)
            .dont_care_fraction(dont_care)
            .budget(budget)
            .degrade(!args.has("no-degrade"))
            .design_from_trace(&trace);
        (result, Vec::new())
    };
    drop(jsonl_guard);
    failpoints::clear();
    if let Some(sink) = jsonl_sink {
        sink.flush();
        if let Some(path) = args.flag("trace-jsonl") {
            eprintln!("design: trace events written to {path}");
        }
    }
    if let Some(path) = args.flag("profile-json") {
        let profile = fsmgen_obs::PipelineProfile::from_events(&events);
        std::fs::write(path, profile.to_json())
            .map_err(|e| CliError::Other(format!("cannot write {path}: {e}")))?;
        eprintln!("design: profile written to {path}");
    }
    let design = result.map_err(|e| match e {
        DesignError::BudgetExceeded { .. } => CliError::Budget(e.to_string()),
        DesignError::TraceTooShort { .. } | DesignError::EmptyModel => {
            CliError::Parse(e.to_string())
        }
        DesignError::BadConfig(_) | DesignError::OrderTooLarge { .. } => {
            CliError::Usage(e.to_string())
        }
        other => CliError::Other(other.to_string()),
    })?;

    // Machine-readable formats keep stdout clean; the degradation report
    // still reaches the user on stderr.
    if design.degradation().is_degraded() && format != "summary" {
        eprintln!("warning: design degraded: {}", design.degradation());
    }

    match format {
        "summary" => {
            println!(
                "trace: {} bits ({:.1}% ones)",
                trace.len(),
                100.0 * trace.ones_fraction()
            );
            println!("history: {history}, threshold: {threshold}, dont-care: {dont_care}");
            println!(
                "markov histories observed: {}",
                design.model().observed_histories()
            );
            println!("cover: {}", design.cover());
            match design.regex() {
                Some(re) => println!("regex: {re}"),
                None => println!("regex: (empty language, constant predict-0)"),
            }
            println!(
                "states: {} (was {} before start-state reduction)",
                design.fsm().num_states(),
                design.pre_reduction_states()
            );
            if design.degradation().is_degraded() {
                println!("degraded: {}", design.degradation());
                println!(
                    "effective history: {} (requested {history})",
                    design.effective_history()
                );
            }
            let est = synthesize_area(design.fsm(), Encoding::Binary);
            println!(
                "area: {:.0} gate-equivalents ({} flip-flops, {:.0} logic gates)",
                est.area, est.flip_flops, est.logic_gates
            );
        }
        "dot" => print!("{}", design.fsm().to_dot("predictor")),
        "vhdl" => print!("{}", to_vhdl(design.fsm(), &VhdlOptions::default())),
        "table" => print!("{}", fsmgen_automata::machine_to_table(design.fsm())),
        other => {
            return Err(CliError::Usage(format!(
                "unknown format {other:?} (summary|dot|vhdl|table)"
            )))
        }
    }
    if args.has("profile") {
        let profile = fsmgen_obs::PipelineProfile::from_events(&events);
        // Machine-readable formats keep stdout clean: the table goes to
        // stderr unless the human-facing summary is already on stdout.
        if format == "summary" {
            print!("{}", profile.to_text());
        } else {
            eprint!("{}", profile.to_text());
        }
    }
    Ok(())
}

/// `fsmgen trace`: dump a synthetic workload, or — with the `export`
/// subcommand — convert an obs JSONL trace to a visualization format.
///
/// # Errors
///
/// Returns a usage error for unknown benchmarks or invalid flags.
pub fn trace(args: &Args) -> Result<(), CliError> {
    if args.positional().first().map(String::as_str) == Some("export") {
        return trace_export(args);
    }
    let name = args
        .flag("benchmark")
        .ok_or_else(|| CliError::Usage("--benchmark is required".into()))?;
    let len: usize = args.flag_or("len", 10_000).map_err(usage)?;
    let input = Input(args.flag_or("input", 1u64).map_err(usage)?);
    let kind = args.flag("kind").unwrap_or("branch");

    match kind {
        "branch" => {
            let t = branch_benchmark(name)?.trace(input, len);
            for e in &t {
                println!("{:#x} {} {:#x}", e.pc, u8::from(e.taken), e.target);
            }
        }
        "bits" => {
            let t = branch_benchmark(name)?.trace(input, len);
            let bits: BitTrace = t.iter().map(|e| e.taken).collect();
            println!("{bits}");
        }
        "value" => {
            let bench = ValueBenchmark::ALL
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| CliError::Usage(format!("unknown value benchmark {name:?}")))?;
            for e in &bench.trace(input, len) {
                println!("{:#x} {:#x}", e.pc, e.value);
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown kind {other:?} (branch|value|bits)"
            )))
        }
    }
    Ok(())
}

/// `fsmgen trace export`: stream an obs JSONL trace into Chrome
/// `trace_event` JSON (chrome://tracing / Perfetto) or folded
/// flamegraph stacks (inferno / speedscope).
///
/// # Errors
///
/// Usage errors for bad flags; a parse error (exit 3) in `--strict`
/// mode when the input has a corrupt or torn line; otherwise damage is
/// skipped and counted in the report printed to stderr.
fn trace_export(args: &Args) -> Result<(), CliError> {
    use fsmgen_obs::trace::{export, ExportFormat, ExportOptions};
    let format = match args.flag("format").unwrap_or("chrome") {
        "chrome" => ExportFormat::Chrome,
        "folded" => ExportFormat::Folded,
        other => {
            return Err(CliError::Usage(format!(
                "trace export: unknown format {other:?} (chrome|folded)"
            )))
        }
    };
    let options = ExportOptions {
        strict: args.has("strict"),
        stage: args.flag("stage").map(str::to_string),
        min_us: args.flag_or("min-us", 0u64).map_err(usage)?,
    };
    let report = {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut input: Box<dyn std::io::BufRead> = match args.flag("in") {
            Some("-") | None => Box::new(stdin.lock()),
            Some(path) => Box::new(std::io::BufReader::new(
                std::fs::File::open(path)
                    .map_err(|e| CliError::Other(format!("cannot open {path}: {e}")))?,
            )),
        };
        let mut out: Box<dyn std::io::Write> = match args.flag("out") {
            Some("-") | None => Box::new(stdout.lock()),
            Some(path) => Box::new(std::io::BufWriter::new(
                std::fs::File::create(path)
                    .map_err(|e| CliError::Other(format!("cannot create {path}: {e}")))?,
            )),
        };
        export(format, &mut input, &mut out, &options).map_err(|e| match e {
            fsmgen_obs::ExportError::Corrupt { .. } => CliError::Parse(e.to_string()),
            fsmgen_obs::ExportError::Io(err) => CliError::Other(format!("trace export: {err}")),
        })?
    };
    eprintln!("trace export: {report}");
    Ok(())
}

/// `fsmgen simulate`: predictor comparison on one benchmark.
///
/// # Errors
///
/// Returns a usage error for unknown benchmarks or invalid flags, a
/// parse error for a malformed trace file (unless `--lenient`).
pub fn simulate(args: &Args) -> Result<(), CliError> {
    let len: usize = args.flag_or("len", 40_000).map_err(usage)?;
    let customs: usize = args.flag_or("customs", 4).map_err(usage)?;
    let history: usize = args.flag_or("history", 9).map_err(usage)?;

    let (train, eval) = match (args.flag("benchmark"), args.flag("trace-file")) {
        (Some(name), None) => {
            let bench = branch_benchmark(name)?;
            (
                bench.trace(Input::TRAIN, len),
                bench.trace(Input::EVAL, len),
            )
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
            let full = if args.has("lenient") {
                let (t, report) = fsmgen_traces::parse_branch_trace_lenient(&text);
                if !report.is_clean() {
                    eprintln!("warning: {path}: {report}");
                }
                t
            } else {
                fsmgen_traces::parse_branch_trace(&text)
                    .map_err(|e| CliError::Parse(format!("{path}: {e}")))?
            };
            if full.len() < 4 {
                return Err(CliError::Parse("trace file needs at least 4 events".into()));
            }
            let mid = full.len() / 2;
            let train: fsmgen_traces::BranchTrace = full.events()[..mid].iter().copied().collect();
            let eval: fsmgen_traces::BranchTrace = full.events()[mid..].iter().copied().collect();
            (train, eval)
        }
        _ => {
            return Err(CliError::Usage(
                "exactly one of --benchmark or --trace-file is required".into(),
            ))
        }
    };

    println!(
        "{:<20} {:>12} {:>10}",
        "predictor", "table bits", "miss rate"
    );
    let row = |p: &mut dyn BranchPredictor| {
        let r = run_sim(p, &eval);
        println!(
            "{:<20} {:>12} {:>9.2}%",
            p.describe(),
            p.storage_bits(),
            100.0 * r.miss_rate()
        );
    };
    row(&mut XScaleBtb::xscale());
    row(&mut Gshare::new(4096));
    row(&mut Combining::new(1024, 4096, 1024));
    row(&mut LocalGlobalChooser::new(512, 10, 4096));
    row(&mut Ppm::new(8));

    let designs = CustomTrainer::new(history).train(&train, customs);
    let mut arch = designs.architecture(customs);
    let r = run_sim(&mut arch, &eval);
    println!(
        "{:<20} {:>12} {:>9.2}%  ({} FSM states total)",
        arch.describe(),
        arch.storage_bits(),
        100.0 * r.miss_rate(),
        arch.total_custom_states()
    );
    Ok(())
}

/// `fsmgen compile`: patterns in paper notation -> machine.
///
/// # Errors
///
/// Returns a parse error for malformed pattern lists, usage for unknown
/// formats.
pub fn compile(args: &Args) -> Result<(), CliError> {
    let list = args
        .flag("patterns")
        .ok_or_else(|| CliError::Usage("--patterns is required".into()))?;
    let patterns =
        fsmgen_automata::parse_pattern_list(list).map_err(|e| CliError::Parse(e.to_string()))?;
    let fsm = fsmgen_automata::compile_patterns(&patterns);
    match args.flag("format").unwrap_or("summary") {
        "summary" => {
            println!("patterns: {list}");
            println!("states: {}", fsm.num_states());
            let est = synthesize_area(&fsm, Encoding::Binary);
            println!(
                "area: {:.0} gate-equivalents ({} flip-flops, {:.0} logic gates)",
                est.area, est.flip_flops, est.logic_gates
            );
        }
        "dot" => print!("{}", fsm.to_dot("pattern_fsm")),
        "vhdl" => print!("{}", to_vhdl(&fsm, &VhdlOptions::default())),
        "table" => print!("{}", fsmgen_automata::machine_to_table(&fsm)),
        other => {
            return Err(CliError::Usage(format!(
                "unknown format {other:?} (summary|dot|vhdl|table)"
            )))
        }
    }
    Ok(())
}

/// `fsmgen predict`: replay a saved machine over a trace.
///
/// # Errors
///
/// Returns a parse error for malformed machines or traces, other for
/// unreadable files.
pub fn predict(args: &Args) -> Result<(), CliError> {
    let machine_path = args
        .flag("machine")
        .ok_or_else(|| CliError::Usage("--machine is required".into()))?;
    let machine_text = std::fs::read_to_string(machine_path)
        .map_err(|e| CliError::Other(format!("cannot read {machine_path}: {e}")))?;
    let machine = fsmgen_automata::machine_from_table(&machine_text)
        .map_err(|e| CliError::Parse(e.to_string()))?;

    let raw = read_input(args)?;
    let trace: BitTrace = raw
        .parse()
        .map_err(|e| CliError::Parse(format!("bad trace: {e}")))?;
    if trace.is_empty() {
        return Err(CliError::Parse("trace is empty".into()));
    }

    let mut p = fsmgen_automata::MoorePredictor::new(machine);
    let mut correct = 0usize;
    for bit in &trace {
        if p.predict() == bit {
            correct += 1;
        }
        p.update(bit);
    }
    println!(
        "{} states, {} bits, {}/{} correct ({:.2}%)",
        p.num_states(),
        trace.len(),
        correct,
        trace.len(),
        100.0 * correct as f64 / trace.len() as f64
    );
    Ok(())
}

/// `fsmgen confidence`: one Figure 2 panel.
///
/// # Errors
///
/// Returns a usage error for unknown benchmarks or invalid flags.
pub fn confidence(args: &Args) -> Result<(), CliError> {
    let name = args
        .flag("benchmark")
        .ok_or_else(|| CliError::Usage("--benchmark is required".into()))?;
    let bench = ValueBenchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| CliError::Usage(format!("unknown value benchmark {name:?}")))?;
    let len: usize = args.flag_or("len", 40_000).map_err(usage)?;
    let config = fsmgen_experiments::fig2::Fig2Config {
        trace_len: len,
        ..fsmgen_experiments::fig2::Fig2Config::default()
    };
    // --trace-jsonl streams the whole panel's design-pipeline spans
    // (including farm worker threads) for 'fsmgen trace export'.
    let panel = match args.flag("trace-jsonl") {
        Some(path) => {
            let panel =
                fsmgen_experiments::profiling::with_trace_jsonl(std::path::Path::new(path), || {
                    fsmgen_experiments::fig2::run_panel(bench, &config)
                })
                .map_err(|e| CliError::Other(format!("cannot create {path}: {e}")))?;
            eprintln!("confidence: trace events written to {path}");
            panel
        }
        None => fsmgen_experiments::fig2::run_panel(bench, &config),
    };
    print!("{}", fsmgen_experiments::report::fig2_table(&panel));
    Ok(())
}

/// `fsmgen headlines`: verify the paper's headline claims.
///
/// # Errors
///
/// Returns a general error when any claim fails (exit status reflects it)
/// or a usage error for an invalid flag.
pub fn headlines(args: &Args) -> Result<(), CliError> {
    let len: usize = args.flag_or("len", 40_000).map_err(usage)?;
    let claims =
        fsmgen_experiments::headlines::run(&fsmgen_experiments::headlines::HeadlineConfig {
            trace_len: len,
        });
    print!("{}", fsmgen_experiments::headlines::table(&claims));
    let failed = claims.iter().filter(|c| !c.holds).count();
    if failed > 0 {
        return Err(CliError::Other(format!(
            "{failed} headline claim(s) do not hold at this scale"
        )));
    }
    Ok(())
}

/// `fsmgen figure`: print a paper figure's machine.
///
/// # Errors
///
/// Returns a usage error when the figure id is not 1, 6 or 7.
pub fn figure(args: &Args) -> Result<(), CliError> {
    match args.positional().first().map(String::as_str) {
        Some("1") => {
            let design = figures::figure1();
            println!(
                "-- with start-up states ({}):",
                design.pre_reduction_states()
            );
            print!("{}", design.minimized_with_startup().to_dot("fig1_startup"));
            println!(
                "-- after start state removal ({}):",
                design.fsm().num_states()
            );
            print!("{}", design.fsm().to_dot("fig1_steady"));
            Ok(())
        }
        Some("6") => {
            print!("{}", figures::figure6().to_dot("fig6"));
            Ok(())
        }
        Some("7") => {
            print!("{}", figures::figure7().to_dot("fig7"));
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "expected figure 1, 6 or 7, got {other:?}"
        ))),
    }
}

/// Fans farm events out to several sinks (`--verbose` plus
/// `--trace-jsonl` at the same time).
struct TeeSink(Vec<std::sync::Arc<dyn EventSink>>);

impl EventSink for TeeSink {
    fn record(&self, event: &FarmEvent) {
        for sink in &self.0 {
            sink.record(event);
        }
    }
}

/// Parses a comma-separated list flag, with a default when absent.
fn comma_list(args: &Args, name: &str, default: &str) -> Vec<String> {
    args.flag(name)
        .unwrap_or(default)
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// `fsmgen farm`: batch-design a fleet of predictors on worker threads
/// behind the content-addressed design cache.
///
/// # Errors
///
/// Returns a usage error for bad flags or unknown benchmarks, other when
/// any job in the batch failed (the rest still complete and are printed).
pub fn farm(args: &Args) -> Result<(), CliError> {
    let len: usize = args.flag_or("len", 20_000).map_err(usage)?;
    let repeat: usize = args.flag_or("repeat", 1).map_err(usage)?;
    let jobs_workers: usize = args.flag_or("jobs", 4).map_err(usage)?;
    let cache_capacity: usize = args.flag_or("cache-capacity", 256).map_err(usage)?;
    let threshold: f64 = args.flag_or("threshold", 0.5).map_err(usage)?;
    let dont_care: f64 = args.flag_or("dont-care", 0.01).map_err(usage)?;
    let budget = budget_from_flags(args)?;
    if repeat == 0 {
        return Err(CliError::Usage("--repeat must be at least 1".into()));
    }

    let histories: Vec<usize> = comma_list(args, "histories", "4")
        .iter()
        .map(|h| h.parse::<usize>().map_err(|e| format!("--histories: {e}")))
        .collect::<Result<_, _>>()
        .map_err(usage)?;
    for &h in &histories {
        if h == 0 || h > fsmgen::MAX_ORDER {
            return Err(CliError::Usage(format!(
                "--histories entries must be in 1..={}, got {h}",
                fsmgen::MAX_ORDER
            )));
        }
    }
    let benches: Vec<BranchBenchmark> = match args.flag("benchmarks") {
        None => BranchBenchmark::ALL.to_vec(),
        Some(_) => comma_list(args, "benchmarks", "")
            .iter()
            .map(|n| branch_benchmark(n))
            .collect::<Result<_, _>>()?,
    };
    if benches.is_empty() {
        return Err(CliError::Usage("--benchmarks list is empty".into()));
    }

    // Worker threads can't see thread-local failpoints; arm process-wide.
    if let Some(spec) = args.flag("inject-fault") {
        failpoints::configure_from_spec_global(spec).map_err(usage)?;
    }

    // One job per (pass, benchmark, history). The trace for a benchmark
    // is built once and shared; repeated passes model fleet re-runs and
    // are where the design cache earns its keep.
    let traces: Vec<std::sync::Arc<BitTrace>> = benches
        .iter()
        .map(|b| {
            std::sync::Arc::new(
                b.trace(Input::TRAIN, len)
                    .iter()
                    .map(|e| e.taken)
                    .collect::<BitTrace>(),
            )
        })
        .collect();
    let mut jobs = Vec::new();
    let mut labels = Vec::new();
    for pass in 0..repeat {
        for (bench, trace) in benches.iter().zip(&traces) {
            for &history in &histories {
                let designer = Designer::new(history)
                    .prob_threshold(threshold)
                    .dont_care_fraction(dont_care)
                    .budget(budget)
                    .degrade(!args.has("no-degrade"));
                jobs.push(DesignJob::from_trace(
                    jobs.len() as u64,
                    std::sync::Arc::clone(trace),
                    designer,
                ));
                labels.push(format!("{}/H{history} pass {pass}", bench.name()));
            }
        }
    }

    let config = FarmConfig {
        workers: jobs_workers.max(1),
        cache_capacity,
    };
    // Observability: --trace-jsonl streams both the farm's own lifecycle
    // events (bridged onto the obs schema) and every worker thread's
    // design-pipeline spans into one JSONL file. The pipeline spans need
    // the process-wide sink because jobs run on worker threads.
    let jsonl_sink: Option<
        std::sync::Arc<fsmgen_obs::JsonlObsSink<std::io::BufWriter<std::fs::File>>>,
    > = match args.flag("trace-jsonl") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Other(format!("cannot create {path}: {e}")))?;
            Some(std::sync::Arc::new(fsmgen_obs::JsonlObsSink::new(
                std::io::BufWriter::new(file),
            )))
        }
        None => None,
    };
    let obs_sink: Option<std::sync::Arc<dyn fsmgen_obs::ObsSink>> = jsonl_sink
        .clone()
        .map(|sink| sink as std::sync::Arc<dyn fsmgen_obs::ObsSink>);
    let mut sinks: Vec<std::sync::Arc<dyn EventSink>> = Vec::new();
    if args.has("verbose") {
        sinks.push(std::sync::Arc::new(StderrSink));
    }
    if let Some(sink) = &obs_sink {
        fsmgen_obs::install_global(std::sync::Arc::clone(sink));
        sinks.push(std::sync::Arc::new(ObsBridgeSink::new(
            std::sync::Arc::clone(sink),
        )));
    }
    let farm = match sinks.len() {
        0 => Farm::new(config),
        1 => Farm::with_sink(config, sinks.remove(0)),
        _ => Farm::with_sink(config, std::sync::Arc::new(TeeSink(sinks))),
    };
    // Warm start: attach the durable store, replaying its log into the
    // cache. Damage (torn tails, corrupt records) is never fatal — the
    // farm just starts (partially) cold; a store that cannot be opened
    // at all (e.g. a foreign file) leaves the run un-persisted.
    let cache_file = args.flag("cache-file").map(std::path::PathBuf::from);
    if let Some(path) = &cache_file {
        match farm.attach_store(path, StoreConfig::default()) {
            Ok(stats) => eprintln!(
                "farm: cache store {}: {} recovered, {} migrated, {} skipped, {} torn tail(s) truncated",
                path.display(),
                stats.recovered,
                stats.migrated,
                stats.skipped,
                stats.truncated
            ),
            Err(e) => eprintln!(
                "farm: ignoring cache store {}: {e} (starting cold, not persisting)",
                path.display()
            ),
        }
    }
    let report = farm.design_batch(jobs);
    if let Some(path) = &cache_file {
        match farm.flush_store() {
            Ok(()) => eprintln!("farm: cache store {} flushed", path.display()),
            Err(e) => eprintln!("farm: could not flush cache store {}: {e}", path.display()),
        }
    }
    failpoints::clear_global();
    if let Some(sink) = &jsonl_sink {
        fsmgen_obs::clear_global();
        sink.flush();
        if let Some(path) = args.flag("trace-jsonl") {
            eprintln!("farm: trace events written to {path}");
        }
    }

    println!(
        "{:<24} {:>7} {:>7} {:>10}  status",
        "job", "states", "cached", "wall ms"
    );
    let mut failed = 0usize;
    for (outcome, label) in report.outcomes.iter().zip(&labels) {
        match &outcome.result {
            Ok(design) => println!(
                "{:<24} {:>7} {:>7} {:>10.2}  {}",
                label,
                design.fsm().num_states(),
                if outcome.cache_hit { "hit" } else { "-" },
                outcome.wall.as_secs_f64() * 1e3,
                if design.degradation().is_degraded() {
                    format!("degraded: {}", design.degradation())
                } else {
                    "ok".into()
                }
            ),
            Err(e) => {
                failed += 1;
                println!(
                    "{:<24} {:>7} {:>7} {:>10.2}  FAILED: {e}",
                    label,
                    "-",
                    "-",
                    outcome.wall.as_secs_f64() * 1e3
                );
            }
        }
    }
    println!("{}", report.metrics);

    if let Some(path) = args.flag("metrics-json") {
        std::fs::write(path, report.metrics.to_json())
            .map_err(|e| CliError::Other(format!("cannot write {path}: {e}")))?;
        eprintln!("farm: metrics written to {path}");
    }
    if let Some(dir) = args.flag("dump-machines") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Other(format!("cannot create {}: {e}", dir.display())))?;
        for (outcome, label) in report.outcomes.iter().zip(&labels) {
            if let Ok(design) = &outcome.result {
                let name = format!("{}.table", label.replace(['/', ' '], "_"));
                std::fs::write(
                    dir.join(&name),
                    fsmgen_automata::machine_to_table(design.fsm()),
                )
                .map_err(|e| CliError::Other(format!("cannot write {name}: {e}")))?;
            }
        }
        eprintln!("farm: machine tables written to {}", dir.display());
    }
    if failed > 0 {
        return Err(CliError::Other(format!("{failed} job(s) failed")));
    }
    Ok(())
}

/// `fsmgen cache`: inspect, verify or compact a persistent design store
/// written by `fsmgen farm --cache-file` (or a legacy snapshot, which
/// the mutating actions migrate to the log format).
///
/// # Errors
///
/// Returns a usage error for a missing action or `--cache-file`, other
/// when the file is unreadable — or, for `info` and `verify`, when any
/// record is corrupt or a torn tail was detected (reported first, then
/// a nonzero exit; never a panic, never a silent success).
pub fn cache(args: &Args) -> Result<(), CliError> {
    let Some(action) = args.positional().first() else {
        return Err(CliError::Usage(
            "cache: expected an action: info, verify, gc or compact".into(),
        ));
    };
    let path = args
        .flag("cache-file")
        .ok_or_else(|| CliError::Usage("cache: --cache-file FILE is required".into()))?;
    let path = std::path::Path::new(path);
    let store_error =
        |e: fsmgen_farm::StoreError| CliError::Other(format!("cache: {}: {e}", path.display()));
    // Damage report shared by `info` and `verify`: nonzero exit whenever
    // any record failed to decode or a torn tail was found.
    let damage = |decoded: &fsmgen_farm::DecodedStore| -> Result<(), CliError> {
        if decoded.skipped > 0 || decoded.truncated > 0 {
            return Err(CliError::Other(format!(
                "cache: {}: {} corrupt record(s) skipped, {} torn tail(s) ({} valid)",
                path.display(),
                decoded.skipped,
                decoded.truncated,
                decoded.records.len()
            )));
        }
        Ok(())
    };
    match action.as_str() {
        "info" => {
            let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let decoded = read_design_file(path).map_err(store_error)?;
            println!("store {} ({})", path.display(), decoded.format);
            println!(
                "  {size} bytes, {} record(s) decoded, {} corrupt skipped, {} torn tail(s)",
                decoded.records.len(),
                decoded.skipped,
                decoded.truncated
            );
            for (i, rec) in decoded.records.iter().enumerate() {
                println!(
                    "  [{i:>3}] fp {:016x}  gen {:>3}  {} states, history {}, {}",
                    rec.fingerprint,
                    rec.generation,
                    rec.design.fsm().num_states(),
                    rec.design.effective_history(),
                    if rec.design.degradation().is_degraded() {
                        "degraded"
                    } else {
                        "ok"
                    }
                );
            }
            if !decoded.records.is_empty() {
                let mut states: Vec<usize> = decoded
                    .records
                    .iter()
                    .map(|rec| rec.design.fsm().num_states())
                    .collect();
                states.sort_unstable();
                let spill = states
                    .iter()
                    .filter(|&&n| n > fsmgen_exec::U8_STATE_LIMIT)
                    .count();
                println!(
                    "  machines: {} — states min {} / median {} / max {} ({} over the \
                     {}-state u8 table width, compiled as u16)",
                    states.len(),
                    states[0],
                    states[states.len() / 2],
                    states[states.len() - 1],
                    spill,
                    fsmgen_exec::U8_STATE_LIMIT
                );
            }
            damage(&decoded)
        }
        "verify" => {
            let decoded = read_design_file(path).map_err(store_error)?;
            damage(&decoded)?;
            println!(
                "{}: ok ({} record(s), {})",
                path.display(),
                decoded.records.len(),
                decoded.format
            );
            Ok(())
        }
        "gc" => {
            let keep: usize = args.flag_or("keep", 64).map_err(usage)?;
            let (mut store, records) =
                DesignStore::open(path, StoreConfig::default()).map_err(store_error)?;
            let total = records.len();
            let policy = CompactPolicy {
                keep: Some(keep),
                max_generations: None,
            };
            let report = store.compact(&policy).map_err(store_error)?;
            println!(
                "{}: kept {} of {} record(s), {} dropped",
                path.display(),
                report.kept,
                total,
                report.dropped
            );
            Ok(())
        }
        "compact" => {
            let keep: Option<usize> = args.flag_opt("keep").map_err(usage)?;
            let max_generations: Option<u32> = args.flag_opt("max-generations").map_err(usage)?;
            let (mut store, records) =
                DesignStore::open(path, StoreConfig::default()).map_err(store_error)?;
            let total = records.len();
            let report = store
                .compact(&CompactPolicy {
                    keep,
                    max_generations,
                })
                .map_err(store_error)?;
            println!(
                "{}: kept {} of {} record(s), {} dropped",
                path.display(),
                report.kept,
                total,
                report.dropped
            );
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "cache: unknown action {other:?} (expected info, verify, gc or compact)"
        ))),
    }
}

/// Assembles the online-redesign config from the `--redesign*` flags.
/// Any knob flag implies `--redesign` itself.
fn redesign_from_flags(args: &Args) -> Result<Option<fsmgen_serve::RedesignConfig>, CliError> {
    let knobs = [
        "redesign-window",
        "redesign-threshold",
        "redesign-hysteresis",
        "redesign-history",
    ];
    if !args.has("redesign") && !knobs.iter().any(|k| args.has(k)) {
        return Ok(None);
    }
    let defaults = fsmgen_serve::RedesignConfig::default();
    let rate = |name: &str, default: f64| -> Result<f64, CliError> {
        let value: f64 = args.flag_or(name, default).map_err(usage)?;
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(CliError::Usage(format!(
                "--{name} must be a rate in 0..=1, got {value}"
            )));
        }
        Ok(value)
    };
    let history: usize = args
        .flag_or("redesign-history", defaults.history)
        .map_err(usage)?;
    if history == 0 || history > fsmgen::MAX_ORDER {
        return Err(CliError::Usage(format!(
            "--redesign-history must be in 1..={}, got {history}",
            fsmgen::MAX_ORDER
        )));
    }
    Ok(Some(fsmgen_serve::RedesignConfig {
        window: args
            .flag_or("redesign-window", defaults.window)
            .map_err(usage)?
            .max(1),
        collapse_threshold: rate("redesign-threshold", defaults.collapse_threshold)?,
        hysteresis: rate("redesign-hysteresis", defaults.hysteresis)?,
        history,
    }))
}

/// `fsmgen serve`: run the TCP design service until a protocol-level
/// shutdown request arrives.
///
/// # Errors
///
/// Usage errors for bad flags; bind failures and shutdown-time
/// persistence failures as general errors.
pub fn serve(args: &Args) -> Result<(), CliError> {
    let config = fsmgen_serve::ServeConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:0").to_string(),
        shards: args.flag_or("shards", 0usize).map_err(usage)?,
        workers: args.flag_or("workers", 1usize).map_err(usage)?,
        cache_capacity: args.flag_or("cache-capacity", 1024usize).map_err(usage)?,
        max_connections: args.flag_or("max-connections", 64usize).map_err(usage)?,
        queue_limit: args.flag_or("queue-limit", 256usize).map_err(usage)?,
        read_timeout: Duration::from_millis(
            args.flag_or("read-timeout-ms", 5000u64).map_err(usage)?,
        ),
        max_frame_bytes: args
            .flag_or("max-frame-bytes", fsmgen_serve::DEFAULT_MAX_FRAME)
            .map_err(usage)?,
        cache_file: args.flag("cache-file").map(std::path::PathBuf::from),
        metrics_json: args.flag("metrics-json").map(std::path::PathBuf::from),
        retry_after_ms: args.flag_or("retry-after-ms", 50u64).map_err(usage)?,
        flush_every: args.flag_or("flush-every", 8usize).map_err(usage)?,
        flush_interval: Duration::from_millis(
            args.flag_or("flush-interval-ms", 200u64).map_err(usage)?,
        ),
        redesign: redesign_from_flags(args)?,
    };
    if let Some(spec) = args.flag("inject-fault") {
        failpoints::configure_from_spec_global(spec).map_err(usage)?;
    }
    let jsonl_sink = match args.flag("trace-jsonl") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Other(format!("cannot create {path}: {e}")))?;
            let sink =
                std::sync::Arc::new(fsmgen_obs::JsonlObsSink::new(std::io::BufWriter::new(file)));
            fsmgen_obs::install_global(
                std::sync::Arc::clone(&sink) as std::sync::Arc<dyn fsmgen_obs::ObsSink>
            );
            Some(sink)
        }
        None => None,
    };
    let server = fsmgen_serve::Server::bind(config)
        .map_err(|e| CliError::Other(format!("bind failed: {e}")))?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _flushed = std::io::stdout().flush();
    let result = server
        .run()
        .map_err(|e| CliError::Other(format!("serve: {e}")));
    fsmgen_obs::clear_global();
    if let Some(sink) = jsonl_sink {
        sink.flush();
    }
    result
}

/// The machine a scenario duels against the counter fallback: loaded
/// from a `--machine` table file, or designed fresh from a benchmark
/// training trace (`--train-benchmark`/`--train-len`/`--history`).
fn scenario_machine(args: &Args) -> Result<fsmgen_automata::Dfa, CliError> {
    if let Some(path) = args.flag("machine") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
        return fsmgen_automata::machine_from_table(&text)
            .map_err(|e| CliError::Parse(e.to_string()));
    }
    let history: usize = args.flag_or("history", 4).map_err(usage)?;
    if history == 0 || history > fsmgen::MAX_ORDER {
        return Err(CliError::Usage(format!(
            "--history must be in 1..={}, got {history}",
            fsmgen::MAX_ORDER
        )));
    }
    let name = args.flag("train-benchmark").unwrap_or("gsm");
    let len: usize = args.flag_or("train-len", 20_000).map_err(usage)?;
    let trace: BitTrace = branch_benchmark(name)?
        .trace(Input::TRAIN, len)
        .iter()
        .map(|e| e.taken)
        .collect();
    let design = Designer::new(history)
        .design_from_trace(&trace)
        .map_err(|e| CliError::Other(format!("training design failed: {e}")))?;
    Ok(design.fsm().clone())
}

fn scenario_backend(args: &Args) -> Result<fsmgen_exec::ExecBackend, CliError> {
    match args.flag("backend").unwrap_or("compiled") {
        "compiled" => Ok(fsmgen_exec::ExecBackend::Compiled),
        "interpreted" => Ok(fsmgen_exec::ExecBackend::Interpreted),
        other => Err(CliError::Usage(format!(
            "unknown backend {other:?} (compiled|interpreted)"
        ))),
    }
}

/// `fsmgen scenario {run|hunt}`: the seeded adversarial scenario engine.
///
/// `run` replays one plan (from `--seed` or a `--plan` JSON file) and
/// prints the deterministic event log; `--doublecheck` runs it twice and
/// fails on any divergence. `hunt` hill-climbs over mutated plans
/// looking for one where the designed machine loses to the 2-bit
/// counter fallback, then minimizes and prints it.
///
/// # Errors
///
/// Usage errors for bad flags; parse errors for bad plan/machine files;
/// general errors for doublecheck divergence or a hunt that found no
/// losing plan.
pub fn scenario(args: &Args) -> Result<(), CliError> {
    use fsmgen_scenario as scn;
    let Some(action) = args.positional().first() else {
        return Err(CliError::Usage(
            "scenario: expected an action: run or hunt".into(),
        ));
    };
    let machine = scenario_machine(args)?;
    let backend = scenario_backend(args)?;
    match action.as_str() {
        "run" => {
            let plan = match args.flag("plan") {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
                    scn::ScenarioPlan::from_json(&text)
                        .map_err(|e| CliError::Parse(format!("{path}: {e}")))?
                }
                None => scn::ScenarioPlan::from_seed(args.flag_or("seed", 1u64).map_err(usage)?),
            };
            let sample_every: u64 = args.flag_or("sample-every", 1024).map_err(usage)?;
            if let Some(path) = args.flag("emit-plan") {
                std::fs::write(path, plan.to_json())
                    .map_err(|e| CliError::Other(format!("cannot write {path}: {e}")))?;
                eprintln!("scenario: plan written to {path}");
            }
            let log = if args.has("doublecheck") {
                scn::doublecheck(&machine, &plan, backend, sample_every.max(1))
                    .map_err(|e| CliError::Other(format!("doublecheck: {e}")))?
            } else {
                scn::run_logged(&machine, &plan, backend, sample_every.max(1))
                    .map_err(|e| CliError::Other(e.to_string()))?
                    .rendered()
            };
            println!("{log}");
            Ok(())
        }
        "hunt" => {
            let defaults = scn::HuntConfig::default();
            let config = scn::HuntConfig {
                seed: args.flag_or("seed", defaults.seed).map_err(usage)?,
                rounds: args.flag_or("rounds", defaults.rounds).map_err(usage)?,
                restarts: args.flag_or("restarts", defaults.restarts).map_err(usage)?,
                max_total_len: args
                    .flag_or("max-len", defaults.max_total_len)
                    .map_err(usage)?,
                target_gap: args
                    .flag_or("target-gap", defaults.target_gap)
                    .map_err(usage)?,
                backend,
            };
            let report =
                scn::hunt(&machine, &config).map_err(|e| CliError::Other(e.to_string()))?;
            if let Some(path) = args.flag("out") {
                std::fs::write(path, report.to_json())
                    .map_err(|e| CliError::Other(format!("cannot write {path}: {e}")))?;
                eprintln!("scenario: hunt report written to {path}");
            }
            println!("{}", report.to_json());
            eprintln!(
                "hunt: {} plan(s) evaluated, seed {}: {}",
                report.evaluated,
                report.seed,
                if report.found {
                    format!(
                        "found a losing plan ({} segments, {} bits, gap {:.4})",
                        report.plan.segments.len(),
                        report.plan.total_len(),
                        report.report.gap()
                    )
                } else {
                    format!("no losing plan found (best gap {:.4})", report.report.gap())
                }
            );
            if report.found {
                Ok(())
            } else {
                Err(CliError::Other(
                    "hunt: no plan found where the designed machine loses to the counter".into(),
                ))
            }
        }
        other => Err(CliError::Usage(format!(
            "scenario: unknown action {other:?} (expected run or hunt)"
        ))),
    }
}

/// The `--codec` flag, shared by `fsmgen client` and `fsmgen loadgen`:
/// JSON v1 by default, the compact binary v2 codec on request.
fn parse_codec(args: &Args) -> Result<fsmgen_serve::Codec, CliError> {
    fsmgen_serve::Codec::parse(args.flag("codec").unwrap_or("json")).map_err(CliError::Usage)
}

/// `fsmgen loadgen`: a seeded pipelined client swarm against a running
/// design service, reporting sustained throughput and latency
/// percentiles.
///
/// # Errors
///
/// Usage errors for bad flags; a general error (exit 1) when any
/// connection failed to connect, aborted, or saw a failed response —
/// so CI smoke jobs can gate on the exit code alone.
pub fn loadgen(args: &Args) -> Result<(), CliError> {
    let Some(addr) = args.flag("addr") else {
        return Err(CliError::Usage(
            "loadgen: --addr HOST:PORT is required".into(),
        ));
    };
    let defaults = fsmgen_serve::LoadgenConfig::default();
    let rate = match args.flag_opt::<f64>("rate").map_err(usage)? {
        Some(r) if r.is_finite() && r > 0.0 => Some(r),
        Some(r) => {
            return Err(CliError::Usage(format!(
                "loadgen: --rate must be a positive req/s rate, got {r}"
            )))
        }
        None => None,
    };
    let config = fsmgen_serve::LoadgenConfig {
        addr: addr.to_string(),
        connections: args
            .flag_or("connections", defaults.connections)
            .map_err(usage)?,
        requests_per_conn: args
            .flag_or("requests", defaults.requests_per_conn)
            .map_err(usage)?,
        pipeline: args
            .flag_or("pipeline", defaults.pipeline)
            .map_err(usage)?
            .max(1),
        seed: args.flag_or("seed", defaults.seed).map_err(usage)?,
        codec: parse_codec(args)?,
        workers: args
            .flag_or("workers", defaults.workers)
            .map_err(usage)?
            .max(1),
        distinct_traces: args
            .flag_or("distinct-traces", defaults.distinct_traces)
            .map_err(usage)?
            .max(1),
        history: args.flag_or("history", defaults.history).map_err(usage)?,
        rate,
        deadline: Duration::from_millis(args.flag_or("deadline-ms", 60_000u64).map_err(usage)?),
        ..defaults
    };
    let report = fsmgen_serve::run_loadgen(&config);
    if args.has("json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "swarm: {} connections x {} requests, pipeline {}, {} worker thread(s), {}",
            config.connections,
            config.requests_per_conn,
            config.pipeline,
            config.workers,
            match config.rate {
                Some(r) => format!("open loop at {r} req/s"),
                None => "closed loop".to_string(),
            }
        );
        println!(
            "completed: {}/{} conns  sent {}  ok {}  failed {}  aborted {}",
            report.completed_conns,
            config.connections,
            report.requests_sent,
            report.responses_ok,
            report.responses_failed,
            report.aborted
        );
        println!(
            "sustained: {:.0} req/s over {:.2}s   latency p50 {}us  p95 {}us  p99 {}us",
            report.req_per_sec,
            report.wall.as_secs_f64(),
            report.p50_us,
            report.p95_us,
            report.p99_us
        );
        println!("{}", report.to_json());
    }
    let clean = report.connect_errors == 0
        && report.aborted == 0
        && report.responses_failed == 0
        && report.completed_conns == config.connections;
    if clean {
        Ok(())
    } else {
        Err(CliError::Other(format!(
            "loadgen: {} connect error(s), {} aborted, {} failed response(s)",
            report.connect_errors, report.aborted, report.responses_failed
        )))
    }
}

/// `fsmgen client`: one control request, one design request, or a batch
/// of design requests over a single connection.
///
/// # Errors
///
/// Usage errors for bad flags, parse errors for bad batch lines, general
/// errors for connection failures and server-reported design errors.
pub fn client(args: &Args) -> Result<(), CliError> {
    use fsmgen_serve::{Request, Response, ServeClient};
    let Some(addr) = args.flag("addr") else {
        return Err(CliError::Usage(
            "client: --addr HOST:PORT is required".into(),
        ));
    };
    let timeout = Duration::from_millis(args.flag_or("timeout-ms", 10_000u64).map_err(usage)?);
    let codec = parse_codec(args)?;
    let mut client = ServeClient::connect_with(addr, timeout, codec)
        .map_err(|e| CliError::Other(format!("cannot connect to {addr}: {e}")))?;
    let call = |client: &mut ServeClient, request: &Request| {
        client
            .design_with_retry(request, 20)
            .map_err(|e| CliError::Other(format!("request failed: {e}")))
    };

    if args.has("ping") {
        match call(&mut client, &Request::Ping)? {
            Response::Pong => {
                println!("pong");
                return Ok(());
            }
            other => return Err(CliError::Other(format!("unexpected reply: {other:?}"))),
        }
    }
    if args.has("stats") {
        // --watch polls on an interval and prints one rate line per
        // sample, sharing the delta/restart computation with 'fsmgen
        // top' (crate::top / fsmgen_serve::watch).
        if let Some(secs) = args.flag_opt::<f64>("watch").map_err(usage)? {
            if secs.is_nan() || secs <= 0.0 {
                return Err(CliError::Usage("client: --watch needs seconds > 0".into()));
            }
            let samples: u64 = args.flag_or("samples", 0).map_err(usage)?;
            drop(client);
            return crate::top::client_watch(addr, Duration::from_secs_f64(secs), samples, timeout);
        }
        match call(&mut client, &Request::Stats)? {
            Response::Stats(json) => {
                println!("{json}");
                return Ok(());
            }
            other => return Err(CliError::Other(format!("unexpected reply: {other:?}"))),
        }
    }
    if args.has("shutdown") {
        match call(&mut client, &Request::Shutdown)? {
            Response::ShutdownAck => {
                println!("shutdown acknowledged");
                return Ok(());
            }
            other => return Err(CliError::Other(format!("unexpected reply: {other:?}"))),
        }
    }

    let format = args.flag("format").unwrap_or("summary");
    if !matches!(format, "summary" | "table") {
        return Err(CliError::Usage(format!(
            "client: unknown format {format:?} (expected summary or table)"
        )));
    }
    let print_design = |label: &str, response: Response| -> Result<(), CliError> {
        match response {
            Response::DesignOk {
                states,
                cache_hit,
                wall_ms,
                machine,
                ..
            } => {
                if format == "table" {
                    print!("{machine}");
                } else {
                    println!(
                        "{label}: {states} state(s)  cache={}  {wall_ms:.3} ms",
                        if cache_hit { "hit" } else { "miss" }
                    );
                }
                Ok(())
            }
            Response::DesignError { error, .. } => {
                Err(CliError::Other(format!("{label}: server error: {error}")))
            }
            other => Err(CliError::Other(format!(
                "{label}: unexpected reply: {other:?}"
            ))),
        }
    };
    let history: usize = args.flag_or("history", 4).map_err(usage)?;
    let threshold: Option<f64> = args.flag_opt("threshold").map_err(usage)?;
    let dont_care: Option<f64> = args.flag_opt("dont-care").map_err(usage)?;

    if let Some(batch_path) = args.flag("batch") {
        let text = std::fs::read_to_string(batch_path)
            .map_err(|e| CliError::Other(format!("cannot read {batch_path}: {e}")))?;
        let mut id = 0u64;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((history_text, trace)) = line.split_once(char::is_whitespace) else {
                return Err(CliError::Parse(format!(
                    "{batch_path}:{}: expected 'HISTORY BITS...'",
                    lineno + 1
                )));
            };
            let history: usize = history_text.parse().map_err(|_| {
                CliError::Parse(format!(
                    "{batch_path}:{}: bad history {history_text:?}",
                    lineno + 1
                ))
            })?;
            let request = Request::Design {
                id,
                trace: trace.to_string(),
                history,
                threshold,
                dont_care,
            };
            let response = call(&mut client, &request)?;
            print_design(&format!("job {id} (h={history})"), response)?;
            id += 1;
        }
        return Ok(());
    }

    let raw = read_input(args)?;
    let request = Request::Design {
        id: 0,
        trace: raw,
        history,
        threshold,
        dont_care,
    };
    let response = call(&mut client, &request)?;
    print_design("design", response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| (*s).to_string())).unwrap()
    }

    #[test]
    fn figure_command_validates_id() {
        assert!(figure(&args(&["1"])).is_ok());
        assert!(figure(&args(&["6"])).is_ok());
        assert!(figure(&args(&["7"])).is_ok());
        assert!(figure(&args(&["2"])).is_err());
        assert!(figure(&args(&[])).is_err());
    }

    #[test]
    fn trace_command_requires_benchmark() {
        assert!(trace(&args(&[])).is_err());
        assert!(trace(&args(&["--benchmark", "nope"])).is_err());
        assert!(trace(&args(&["--benchmark", "gsm", "--kind", "weird"])).is_err());
    }

    #[test]
    fn simulate_small_run() {
        assert!(simulate(&args(&[
            "--benchmark",
            "g721",
            "--len",
            "3000",
            "--customs",
            "2",
            "--history",
            "4",
        ]))
        .is_ok());
    }

    #[test]
    fn simulate_from_trace_file() {
        let dir = std::env::temp_dir().join("fsmgen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.trace");
        let text =
            fsmgen_traces::format_branch_trace(&BranchBenchmark::Gsm.trace(Input::TRAIN, 2_000));
        std::fs::write(&path, text).unwrap();
        assert!(simulate(&args(&[
            "--trace-file",
            path.to_str().unwrap(),
            "--customs",
            "1",
            "--history",
            "4",
        ]))
        .is_ok());
        // Both sources or neither is an error.
        assert!(simulate(&args(&[])).is_err());
        assert!(simulate(&args(&[
            "--benchmark",
            "gsm",
            "--trace-file",
            path.to_str().unwrap(),
        ]))
        .is_err());
    }

    #[test]
    fn compile_patterns_notation() {
        assert!(compile(&args(&["--patterns", "0x1x | 0xx1x"])).is_ok());
        assert!(compile(&args(&["--patterns", "1x", "--format", "table"])).is_ok());
        assert!(compile(&args(&["--patterns", "2z"])).is_err());
        assert!(compile(&args(&[])).is_err());
    }

    #[test]
    fn confidence_panel_small() {
        assert!(confidence(&args(&["--benchmark", "li", "--len", "4000"])).is_ok());
        assert!(confidence(&args(&["--benchmark", "nope"])).is_err());
        assert!(confidence(&args(&[])).is_err());
    }

    #[test]
    fn predict_round_trip() {
        let dir = std::env::temp_dir().join("fsmgen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bits_path = dir.join("p.bits");
        std::fs::write(&bits_path, "0101 0101 0101 0101 0101").unwrap();
        let machine_path = dir.join("p.fsm");
        let fsm = fsmgen_automata::compile_patterns(&[vec![Some(false)]]);
        std::fs::write(&machine_path, fsmgen_automata::machine_to_table(&fsm)).unwrap();
        assert!(predict(&args(&[
            "--machine",
            machine_path.to_str().unwrap(),
            bits_path.to_str().unwrap(),
        ]))
        .is_ok());
        assert!(predict(&args(&[bits_path.to_str().unwrap()])).is_err());
        assert!(predict(&args(&["--machine", "/no/such.fsm"])).is_err());
    }

    /// Serializes the tests that actually run farm batches: the
    /// `farm-worker` failpoint is process-global, so a batch in a
    /// concurrent test could consume another test's armed fault.
    static FARM_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn farm_batch_with_cache_and_metrics() {
        let _guard = FARM_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fsmgen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("farm-metrics.json");
        assert!(farm(&args(&[
            "--benchmarks",
            "gsm,g721",
            "--histories",
            "2,3",
            "--len",
            "2000",
            "--repeat",
            "2",
            "--jobs",
            "2",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ]))
        .is_ok());
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"jobs\": 8"));
        assert!(json.contains("\"hit_rate\""));
    }

    #[test]
    fn farm_flag_validation() {
        assert!(farm(&args(&["--benchmarks", "nope", "--len", "500"])).is_err());
        assert!(farm(&args(&["--histories", "0", "--len", "500"])).is_err());
        assert!(farm(&args(&["--histories", "banana", "--len", "500"])).is_err());
        assert!(farm(&args(&["--repeat", "0", "--len", "500"])).is_err());
        assert!(farm(&args(&["--benchmarks", " ", "--len", "500"])).is_err());
    }

    #[test]
    fn farm_injected_fault_fails_one_job_not_the_batch() {
        // The injected fault kills exactly one job; the command reports
        // the failure (exit nonzero) but the batch still completes.
        let _guard = FARM_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = farm(&args(&[
            "--benchmarks",
            "gsm",
            "--histories",
            "2",
            "--len",
            "1500",
            "--repeat",
            "3",
            "--jobs",
            "2",
            "--cache-capacity",
            "0",
            "--inject-fault",
            "farm-worker=error:1",
        ]));
        assert!(matches!(r, Err(CliError::Other(ref m)) if m.contains("1 job(s) failed")));
    }

    #[test]
    fn design_profile_and_trace_outputs() {
        let dir = std::env::temp_dir().join("fsmgen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("profile-in.txt");
        std::fs::write(&trace_path, "0011".repeat(32)).unwrap();
        let profile_path = dir.join("design-profile.json");
        let jsonl_path = dir.join("design-trace.jsonl");
        assert!(design(&args(&[
            "--history",
            "4",
            "--profile",
            "--profile-json",
            profile_path.to_str().unwrap(),
            "--trace-jsonl",
            jsonl_path.to_str().unwrap(),
            trace_path.to_str().unwrap(),
        ]))
        .is_ok());

        let json = std::fs::read_to_string(&profile_path).unwrap();
        assert!(json.contains("\"version\": 1"), "{json}");
        assert!(json.contains("\"kind\": \"pipeline_profile\""), "{json}");
        // Every pipeline stage of the DESIGN.md flow diagram is profiled.
        for stage in [
            "markov", "patterns", "minimize", "regex", "nfa", "dfa", "hopcroft", "reduce",
        ] {
            assert!(json.contains(&format!("\"name\": \"{stage}\"")), "{stage}");
        }

        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"v\": 1, \"type\": "), "{line}");
        }
        assert!(jsonl.contains("\"type\": \"span_end\", \"name\": \"design\""));
    }

    #[test]
    fn farm_trace_jsonl_streams_both_schemas() {
        let _guard = FARM_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fsmgen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl_path = dir.join("farm-trace.jsonl");
        assert!(farm(&args(&[
            "--benchmarks",
            "gsm",
            "--histories",
            "2",
            "--len",
            "1500",
            "--jobs",
            "2",
            "--trace-jsonl",
            jsonl_path.to_str().unwrap(),
        ]))
        .is_ok());
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        // One schema for both sources: farm lifecycle marks and the
        // workers' design-pipeline spans interleave in the same stream.
        assert!(
            jsonl.contains("\"type\": \"mark\", \"scope\": \"farm\""),
            "{jsonl}"
        );
        assert!(
            jsonl.contains("\"type\": \"span_end\", \"name\": \"design\""),
            "{jsonl}"
        );
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"v\": 1, \"type\": "), "{line}");
        }
    }

    #[test]
    fn design_from_file() {
        let dir = std::env::temp_dir().join("fsmgen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, "0000 1000 1011 1101 1110 1111").unwrap();
        for format in ["summary", "dot", "vhdl"] {
            assert!(design(&args(&[
                "--history",
                "2",
                "--format",
                format,
                path.to_str().unwrap(),
            ]))
            .is_ok());
        }
        assert!(design(&args(&["--format", "bogus", path.to_str().unwrap()])).is_err());
        assert!(design(&args(&["/no/such/file.txt"])).is_err());
    }
}
