//! The benchmark's self-test. Every workload of `BENCHMARK.json` runs in
//! quick mode the way the benchmark command runs it: each run must check
//! out and emit exactly the metrics `BENCHMARK.json` names, with their
//! units, and a deliberately wrong reference must raise `error_rate`.

use std::path::PathBuf;
use std::process::Command;

use cumulon::trace::json::{parse, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(doc: &JsonValue, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{key} is not an array"))
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// Runs one quick workload in a working directory of its own; its exit
/// status and standard output.
fn quick(workload: &str, trace: &str, extra: &[&str]) -> (bool, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--quick"])
        .args(extra)
        .output()
        .unwrap();
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

/// The `error_rate` row of the printed table.
fn error_rate(stdout: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("error_rate"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no error_rate row in\n{stdout}"))
}

#[test]
fn every_workload_emits_the_named_metrics() {
    let doc = benchmark_json();
    for workload in names(&doc, "workloads", "name") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = quick(&workload, trace, &[]);
            assert!(ok, "{workload} --trace {trace}:\n{stdout}");
            let last = parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(
                last.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{stdout}"
            );
            assert_eq!(last.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(last.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
            assert_eq!(error_rate(&stdout), 0.0);
            let Some(JsonValue::Obj(metrics)) = last.get("metrics") else {
                panic!("{workload}: no metrics object")
            };
            let mut want = names(&doc, key, "name");
            want.sort();
            assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), want);
            for (name, unit) in names(&doc, key, "name")
                .iter()
                .zip(names(&doc, key, "unit"))
            {
                let m = &metrics[name];
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                let v = m.get("value").and_then(JsonValue::as_f64).unwrap();
                assert!(v.is_finite(), "{workload}: {name} = {v}");
            }
        }
    }
}

#[test]
fn wrong_reference_raises_error_rate() {
    for workload in names(&benchmark_json(), "workloads", "name") {
        let (ok, stdout) = quick(&workload, "0", &["--corrupt-reference"]);
        assert!(
            error_rate(&stdout) > 0.0,
            "{workload}: wrong reference went unnoticed\n{stdout}"
        );
        // With every operation failed no latency exists, and the run
        // prints no result line at all.
        if ok {
            let last = parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(last.get("correct"), Some(&JsonValue::Bool(false)));
        }
    }
}
