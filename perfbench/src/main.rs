//! `fsmgen-bench`: runs one benchmark workload (or, without
//! `--workload`, every workload, each in its own child process), prints
//! every metric as `workload metric value unit`, and ends with one JSON
//! result line.
//!
//! ```text
//! fsmgen-bench --workload design_cold --seed 1 --seconds 20 --trace 0
//! ```

use fsmgen_perfbench::run::{Options, Report};
use fsmgen_perfbench::{run_named, OUT_DIR, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: fsmgen-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<String>,
    options: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut options = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    Ok(Args { workload, options })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args.options),
        None => run_all(&args.options),
    }
}

fn run_one(name: &str, options: &Options) -> ExitCode {
    let report = run_named(name, options).expect("workload names are validated");
    print!("{}", report.text());
    let json = report.json();
    let file = Path::new(OUT_DIR).join(format!(
        "{name}-seed{}-trace{}.json",
        options.seed,
        u8::from(options.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&file, &json)) {
        eprintln!("could not write {}: {e}", file.display());
    }
    println!("{json}");
    exit_code(&report)
}

fn exit_code(report: &Report) -> ExitCode {
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, so each one's peak
/// memory and warm state are its own, and relays their output.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .output();
        match output {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("could not run {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
