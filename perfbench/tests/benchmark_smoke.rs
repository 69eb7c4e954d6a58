//! Runs every workload at about one second of measurement and checks the
//! benchmark's output contract: every metric `BENCHMARK.json` names is
//! printed with its unit and appears in the result line, outputs pass
//! their checks, and the same seed reproduces every count and digest.

use fsmgen_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer metrics that are counts or exact ratios of deterministic
/// work, so they must repeat exactly for one seed.
const DETERMINISTIC: [&str; 9] = [
    "farm.designs",
    "farm.cache_hit_ratio",
    "core.degraded",
    "core.states_total",
    "exec.fsm_steps",
    "bpred.miss_rate_k8",
    "farm.store.appends",
    "serve.rejected",
    "serve.timeouts",
];

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    text: String,
    result: Json,
}

impl Run {
    fn value(&self, metric: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{metric} missing from the result line"))
    }

    /// The leading token of each check's detail (a digest or a count).
    fn check_evidence(&self) -> BTreeMap<String, String> {
        self.text
            .lines()
            .filter_map(|l| l.strip_prefix("check "))
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                let (_workload, name, _verdict) = (parts.next()?, parts.next()?, parts.next()?);
                Some((name.to_string(), parts.next().unwrap_or("").to_string()))
            })
            .collect()
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_fsmgen-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run fsmgen-bench");
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = text.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    Run { text, result }
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_counts() {
    let spec = spec();
    let workloads: Vec<String> = names_of_workloads(&spec);
    assert_eq!(workloads, fsmgen_perfbench::WORKLOADS);
    for w in &workloads {
        let plain = run(w, 3, false);
        let traced = run(w, 3, true);
        let again = run(w, 3, true);
        for (r, key) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
            assert_eq!(
                r.result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w}"
            );
            assert!(
                r.result
                    .get("attempted")
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    >= 1
            );
            assert_eq!(
                r.result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{w}"
            );
            let wanted = names(&spec, key);
            let Some(Json::Obj(printed)) = r.result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            assert_eq!(
                printed.len(),
                wanted.len(),
                "{w}: exactly the {key} metrics"
            );
            for (name, unit) in &wanted {
                let line = format!("{w} {name} ");
                assert!(
                    r.text
                        .lines()
                        .any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                    "{w}: no `{name} <value> {unit}` line"
                );
                let m = r.result.get("metrics").and_then(|m| m.get(name));
                assert_eq!(
                    m.and_then(|m| m.get("unit")).and_then(Json::as_str),
                    Some(unit.as_str())
                );
                assert!(r.value(name).is_finite(), "{w}: {name}");
            }
        }
        for name in DETERMINISTIC {
            assert_eq!(
                traced.value(name),
                again.value(name),
                "{w}: {name} must repeat"
            );
        }
        assert_eq!(
            plain.check_evidence().get("machine_digest_stable"),
            traced.check_evidence().get("machine_digest_stable"),
            "{w}: machine digests must repeat"
        );
        assert_eq!(
            traced.check_evidence(),
            again.check_evidence(),
            "{w}: check evidence must repeat"
        );
    }
}

fn names_of_workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--trace", "2"],
        vec!["--seconds", "0"],
        vec!["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fsmgen-bench"))
            .args(&args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run fsmgen-bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
