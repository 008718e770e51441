//! Both binaries, end to end, at smoke size: all four workload shapes,
//! every check on. The trace half is the integration test of check (e):
//! the pipeline replica equals `Simulation` / `MultiplexSim` field for
//! field on every shape, or `trace` exits non-zero.

use chlm_benchmark::json::{self, Value};
use std::process::Command;

fn run(exe: &str, args: &[&str]) -> Value {
    let out = Command::new(exe).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{exe} {args:?} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    json::parse(stdout.lines().last().expect("a result line")).expect("JSON result")
}

fn checks(result: &Value) -> (f64, f64) {
    let c = result.get("checks").expect("checks");
    let field = |k: &str| c.get(k).and_then(Value::as_f64).expect("count");
    (field("attempted"), field("failed"))
}

fn workload_names(result: &Value) -> Vec<&str> {
    let list = result
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    list.iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect()
}

const NAMES: [&str; 4] = ["world-65k", "world-65k-t2", "grid-e24", "grid-e27"];

#[test]
fn end_to_end_smoke_passes_every_check() {
    let result = run(env!("CARGO_BIN_EXE_chlm-benchmark"), &["run", "--smoke"]);
    assert_eq!(workload_names(&result), NAMES);
    let (attempted, failed) = checks(&result);
    // (b) once, (c) three pairs, (d) 1 + 1 + 6 + 6 banks.
    assert_eq!((attempted, failed), (18.0, 0.0));
}

#[test]
fn trace_smoke_replica_equals_the_engine_on_all_four_shapes() {
    let result = run(
        env!("CARGO_BIN_EXE_chlm-benchmark-trace"),
        &["trace", "--smoke"],
    );
    assert_eq!(workload_names(&result), NAMES);
    let (attempted, failed) = checks(&result);
    assert!(attempted >= 40.0, "{attempted} checks");
    assert_eq!(failed, 0.0);
    // Every per-layer metric of BENCHMARK.json is printed for every workload.
    let expected = chlm_benchmark::layers::metrics().len();
    for w in result
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
    {
        let metrics = w.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(metrics.len(), expected);
    }
}

/// Unknown workloads and flags are usage errors, not silent defaults.
#[test]
fn usage_errors_exit_2_without_printing_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--smok"],
        &["bench"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_chlm-benchmark"))
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
