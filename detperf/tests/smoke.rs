//! A one-second run of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names is emitted with its unit, and no op fails.

use serde_json::Value;
use std::process::Command;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Value, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("list present")
        .iter()
        .map(|v| {
            v.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

/// Runs one workload for a second; returns the result's metrics after
/// checking that the run succeeded with no failed op.
fn run(workload: &str, seed: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_detperf"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("detperf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed={seed} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    result.get("metrics").expect("metrics").clone()
}

#[test]
fn every_workload_emits_every_metric_and_checks_out() {
    let bench = benchmark();
    // Run sequentially: each run is a whole-process measurement.
    for workload in names(&bench, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let metrics = run(&workload, "1", trace);
            let declared = bench.get(section).and_then(Value::as_array).expect("list");
            assert_eq!(
                metrics.as_object().map(<[_]>::len),
                Some(declared.len()),
                "{workload} trace={trace} emits exactly the {section} metrics"
            );
            for m in declared {
                let name = m.get("name").and_then(Value::as_str).expect("named");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
                assert_eq!(got.get("unit"), m.get("unit"), "{workload}: unit of {name}");
                let value = got.get("value").and_then(Value::as_f64).expect("numeric");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if section == "end_to_end" {
                    assert!(value != 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn reference_pass_metrics_do_not_depend_on_the_seed() {
    let bench = benchmark();
    for workload in names(&bench, "workloads") {
        let (a, b) = (run(&workload, "1", "0"), run(&workload, "2", "0"));
        let value = |m: &Value, name: &str| {
            m.get(name)
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .expect("numeric metric")
        };
        for name in ["pta_completed_frac", "avg_points_to", "det_facts"] {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{workload}: {name} differs between seeds 1 and 2"
            );
        }
        // The server's helper threads allocate a few hundred bytes more or
        // less depending on timing; everything else is the same input.
        let (ha, hb) = (value(&a, "op_heap_mb"), value(&b, "op_heap_mb"));
        assert!(
            (ha - hb).abs() <= 1e-4 * ha,
            "{workload}: op_heap_mb {ha} under seed 1, {hb} under seed 2"
        );
    }
}
