//! The per-layer metric names: one layer per module of the repo, named
//! after it. The list is the same for every workload (a layer a workload
//! bypasses reads 0 there), so one traced run always prints every name in
//! `BENCHMARK.json`; `tests/contract.rs` pins that file against this list.

use crate::result::Better::{self, Higher, Lower};
use crate::workload::WORKLOADS;
use chlm_sim::{Backend, HopMetric, VariantSpec};

/// `(name, unit, better)` of one per-layer metric.
pub type LayerMetric = (String, &'static str, Better);

/// The stage and world-observer layers, each with the counter (if any)
/// recorded at the same boundary as its span.
pub const STAGE_LAYERS: [(&str, Option<&str>); 6] = [
    ("mobility", None),
    ("graph.topology", Some("edge_flips_per_tick")),
    ("cluster.hierarchy", Some("depth")),
    ("cluster.address", Some("addr_changes_per_tick")),
    ("lm.assignment", Some("host_changes_per_tick")),
    ("sim.observe.world", None),
];

/// Span of the cost model pricing with `metric`.
pub fn cost_layer(metric: HopMetric) -> &'static str {
    match metric {
        HopMetric::EuclideanCalibrated | HopMetric::Euclidean(_) => "sim.cost.eucl",
        HopMetric::HierRouting => "sim.cost.hier",
        HopMetric::Bfs => "sim.cost.bfs",
    }
}

pub const COST_LAYERS: [&str; 3] = ["sim.cost.eucl", "sim.cost.hier", "sim.cost.bfs"];
pub const RESIDUAL: &str = "sim.engine.residual.ms_per_tick";
pub const OVERHEAD: &str = "trace.overhead.pct";

pub fn handoff_layer(bank: &str) -> String {
    format!("sim.scheme.{bank}.handoff")
}
pub fn query_layer(bank: &str) -> String {
    format!("sim.scheme.{bank}.query")
}
pub fn network_layer(bank: &str) -> String {
    format!("proto.network.{bank}")
}

/// Every bank of every workload, once (the world workloads' `chlm-eucl`
/// is also the first bank of `grid-e24`), with whether any workload runs
/// it with lookups on.
fn all_banks() -> Vec<(VariantSpec, bool)> {
    let mut out: Vec<(VariantSpec, bool)> = Vec::new();
    for w in WORKLOADS {
        for v in w.variants() {
            let queried = w.query_rate() > 0.0;
            match out.iter_mut().find(|(known, _)| known.label == v.label) {
                Some((_, q)) => *q |= queried,
                None => out.push((v, queried)),
            }
        }
    }
    out
}

/// Every per-layer metric, in the order the trace table prints them.
pub fn metrics() -> Vec<LayerMetric> {
    let mut out: Vec<LayerMetric> = Vec::new();
    let mut push = |layer: &str, suffix: &str, unit, better| {
        out.push((format!("{layer}.{suffix}"), unit, better));
    };
    for (layer, counter) in STAGE_LAYERS {
        push(layer, "ms_per_tick", "ms", Lower);
        push(layer, "allocs_per_tick", "count", Lower);
        push(layer, "alloc_kb_per_tick", "KiB", Lower);
        if let Some(counter) = counter {
            push(layer, counter, "count", Lower);
        }
    }
    for layer in COST_LAYERS {
        push(layer, "setup_ms_per_tick", "ms", Lower);
        push(layer, "hops_ms_per_tick", "ms", Lower);
        push(layer, "hops_calls_per_tick", "count", Lower);
        push(layer, "allocs_per_tick", "count", Lower);
        push(layer, "alloc_kb_per_tick", "KiB", Lower);
    }
    let banks = all_banks();
    for (bank, _) in &banks {
        let layer = handoff_layer(&bank.label);
        push(&layer, "ms_per_tick", "ms", Lower);
        push(&layer, "allocs_per_tick", "count", Lower);
    }
    for (bank, _) in banks.iter().filter(|(_, queried)| *queried) {
        let layer = query_layer(&bank.label);
        push(&layer, "ms_per_tick", "ms", Lower);
        push(&layer, "allocs_per_tick", "count", Lower);
        // Work served, fixed by the workload's query rate.
        push(&layer, "lookups_per_tick", "count", Higher);
    }
    for (bank, _) in &banks {
        if matches!(bank.backend, Backend::Packet { .. }) {
            let layer = network_layer(&bank.label);
            push(&layer, "sent_per_tick", "count", Lower);
            push(&layer, "transmissions_per_tick", "count", Lower);
            push(&layer, "dropped_per_tick", "count", Lower);
            push(&layer, "retransmissions_per_tick", "count", Lower);
        }
    }
    out.push((RESIDUAL.to_string(), "ms", Lower));
    out.push((OVERHEAD.to_string(), "%", Lower));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_benchmark_contract() {
        let all = metrics();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        let mut names: Vec<&str> = all.iter().map(|m| m.0.as_str()).collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn every_layer_of_the_issue_is_present() {
        let all = metrics();
        let has = |name: &str| all.iter().any(|m| m.0 == name);
        for name in [
            "mobility.ms_per_tick",
            "graph.topology.edge_flips_per_tick",
            "cluster.hierarchy.depth",
            "cluster.address.alloc_kb_per_tick",
            "lm.assignment.host_changes_per_tick",
            "sim.observe.world.allocs_per_tick",
            "sim.cost.hier.setup_ms_per_tick",
            "sim.cost.bfs.hops_calls_per_tick",
            "sim.scheme.chlm-eucl.handoff.ms_per_tick",
            "sim.scheme.home-hier.handoff.allocs_per_tick",
            "sim.scheme.gls-packet.query.lookups_per_tick",
            "proto.network.home-packet.retransmissions_per_tick",
            RESIDUAL,
            OVERHEAD,
        ] {
            assert!(has(name), "{name} missing");
        }
        // Only the E27 banks serve lookups, only its packet banks a network.
        assert!(!has("sim.scheme.chlm-eucl.query.ms_per_tick"));
        assert!(!has("proto.network.chlm-analytic.sent_per_tick"));
        assert_eq!(all.len(), 93);
    }
}
