//! `BENCHMARK.json`, generated from the definitions the binaries use, so
//! that the file at the root of the repo cannot drift from the code:
//! `chlm-benchmark contract > BENCHMARK.json` writes it and
//! `tests/contract.rs` pins it.

use crate::json::{obj, Value};
use crate::layers;
use crate::result::E2E_METRICS;
use crate::workload::WORKLOADS;

/// Seconds one `bench` run measures (`--seconds`). Chosen so that the
/// slowest workload still fits its three guaranteed repetitions on this
/// machine, and 92 runs plus two builds fit the driver's 3420 s.
pub const RUN_SECONDS: u64 = 20;

pub fn document() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
        .collect();
    let end_to_end: Vec<Value> = E2E_METRICS
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
                ("bound", m.bound.into()),
            ])
        })
        .collect();
    let per_layer: Vec<Value> = layers::metrics()
        .into_iter()
        .map(|(name, unit, better)| {
            obj([
                ("name", name.into()),
                ("unit", unit.into()),
                ("better", better.as_str().into()),
            ])
        })
        .collect();
    obj([
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_document_fits_the_contract_limits() {
        let doc = document();
        assert!(doc.render_lines(2).len() < 64 * 1024);
        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is required");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        for m in e2e {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{m:?}");
            // setup_s carries the largest bound.
            assert!(bound(m) <= bound(setup), "{m:?}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads");
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
