//! All five workloads at tiny sizes through the real command line, and
//! the declarations in `BENCHMARK.json` held against what is printed.
//!
//! One test function on purpose: the workloads time themselves and share
//! `out/`, so they must not run side by side.

use embench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("parse BENCHMARK.json")
}

fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get_field(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get_field(k)
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run `embench run --smoke` and parse the last line of its stdout.
fn run(workload: &str, seed: u64, traced: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_embench"))
        .args(["run", "--smoke", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("start embench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} seed {seed} traced {traced} exited with {}:\n{stderr}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("bad result line {last:?}: {e}"))
}

fn check_result(result: &Value, expected: &[(String, String)], what: &str) {
    let keys: BTreeSet<&str> = match result {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("{what}: result is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
        "{what}: result keys"
    );
    assert_eq!(
        result.get_field("correct").and_then(Value::as_bool),
        Some(true),
        "{what}: correctness gates"
    );
    let attempted = result.get_field("attempted").and_then(Value::as_u64);
    assert!(
        attempted.is_some_and(|a| a >= 1),
        "{what}: attempted {attempted:?}"
    );
    assert_eq!(
        result.get_field("failed").and_then(Value::as_u64),
        Some(0),
        "{what}: failed"
    );
    let Some(Value::Object(metrics)) = result.get_field("metrics") else {
        panic!("{what}: no metrics object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get_field("value").and_then(Value::as_f64).is_some(),
                "{what}: {name} has no numeric value"
            );
            let unit = m.get_field("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        printed, expected,
        "{what}: printed metrics against BENCHMARK.json"
    );
}

#[test]
fn five_workloads_print_what_benchmark_json_declares() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");

    // The declarations themselves: names well formed, used once, and the
    // same lists the code carries.
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, WORKLOADS, "workload names");
    let code = |list: &[embench::spec::MetricDecl]| -> Vec<(String, String)> {
        list.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(end_to_end, code(&END_TO_END), "end_to_end against spec.rs");
    assert_eq!(per_layer, code(&PER_LAYER), "per_layer against spec.rs");
    let mut seen = BTreeSet::new();
    for (name, _) in workloads
        .iter()
        .map(|w| (w.clone(), String::new()))
        .chain(end_to_end.iter().cloned())
        .chain(per_layer.iter().cloned())
    {
        let well_formed = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        assert!(well_formed, "malformed name {name:?}");
        assert!(seen.insert(name.clone()), "name {name:?} used twice");
    }
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    // Every workload: a plain run on two seeds, a traced run on one.
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let result = run(workload, seed, false);
            check_result(
                &result,
                &end_to_end,
                &format!("{workload} seed {seed} plain"),
            );
            let Some(Value::Object(metrics)) = result.get_field("metrics") else {
                unreachable!("checked above");
            };
            for (name, m) in metrics {
                let value = m.get_field("value").and_then(Value::as_f64).unwrap_or(0.0);
                assert!(value != 0.0, "{workload}: end-to-end metric {name} is zero");
            }
        }
        let traced = run(workload, 1, true);
        check_result(&traced, &per_layer, &format!("{workload} traced"));
        let trace_file = embench::default_out_dir().join(format!("{workload}.trace.jsonl"));
        let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
        let first = spans.lines().next().expect("at least one span");
        for key in [
            "\"name\"",
            "\"start_ns\"",
            "\"end_ns\"",
            "\"parent\"",
            "\"op\"",
        ] {
            assert!(
                first.contains(key),
                "{workload}: span without {key}: {first}"
            );
        }
    }
}
