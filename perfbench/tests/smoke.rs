//! Runs every workload end to end at smoke scale, untraced and traced,
//! and checks the result line: correct outputs, no failed operation, and
//! every metric `BENCHMARK.json` names for that mode.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn smoke(workload: &str, trace: &str) {
    let workdir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--gpasta")
        .arg(env!("CARGO_BIN_EXE_gpasta"))
        .arg("--workdir")
        .arg(&workdir)
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {last}\n{stderr}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: {last}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );

    let section = if trace == "0" {
        "end_to_end"
    } else {
        "per_layer"
    };
    let metrics = result.get("metrics").expect("a metrics object");
    let bench = benchmark_json();
    for m in bench
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
    {
        let name = m.get("name").and_then(Value::as_str).expect("metric name");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
        assert_eq!(got.get("unit"), m.get("unit"), "{workload}: unit of {name}");
        let value = got
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        if trace == "0" {
            assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
        }
    }
}

#[test]
fn eco_runs_end_to_end() {
    smoke("eco", "0");
    smoke("eco", "1");
}

#[test]
fn full_runs_end_to_end() {
    smoke("full", "0");
    smoke("full", "1");
}

#[test]
fn serve_runs_end_to_end() {
    smoke("serve", "0");
    smoke("serve", "1");
}
