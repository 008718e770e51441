//! One end-to-end repetition, run inside a fresh child process: construct,
//! the workload's unmeasured warm ticks, then its measured ticks in a closed
//! loop (the next `step()` starts only after the previous one returned)
//! on a single load-generating thread, tracing off.

use crate::alloc;
use crate::json::{obj, Value};
use crate::proc::rss_peak_mb;
use crate::workload::Workload;
use chlm_sim::SimReport;
use std::time::Instant;

/// Wall time of `f` in seconds, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// What the parent needs to know about one bank's report: its digest, the
/// sanity fields of check (d), and — as one string, compared between the
/// analytic and the packet bank of a scheme for check (c) — the counts the
/// two backends must agree on even when the graph is partitioned.
pub fn bank_facts(label: &str, report: &SimReport) -> Value {
    let q = report.query.as_ref();
    let per_level: Vec<(u64, u64)> = report
        .ledger
        .per_level
        .iter()
        .map(|c| (c.migration_events, c.reorg_events))
        .collect();
    let parity = format!(
        "{:?} {:?}",
        q.map(|q| (q.arrivals, q.resolved, &q.level_lookups)),
        per_level
    );
    obj([
        ("label", label.into()),
        ("sim_digest", format!("{:#018x}", report.digest()).into()),
        ("depth", report.depth.into()),
        // NaN renders as null, which the parent's sanity check rejects.
        ("total_overhead", report.total_overhead().into()),
        (
            "query_arrivals",
            q.map_or(Value::Null, |q| q.arrivals.into()),
        ),
        ("backend_parity", parity.into()),
    ])
}

/// Run one repetition of `workload` and describe it for the parent.
pub fn repetition(workload: &Workload, world_seed: u64, smoke: bool) -> Value {
    let cfg = workload.config(world_seed, smoke);
    let (setup_s, mut sim) = timed(|| workload.build(&cfg));
    for _ in 0..workload.warm_ticks(smoke) {
        sim.step();
    }
    let ticks = workload.ticks(smoke);
    let mut tick_ms = Vec::with_capacity(ticks);
    let before = alloc::snapshot();
    for _ in 0..ticks {
        let (s, ()) = timed(|| sim.step());
        tick_ms.push(s * 1e3);
    }
    let allocs = alloc::snapshot() - before;
    let rss = rss_peak_mb();
    let labels: Vec<String> = workload.variants().into_iter().map(|v| v.label).collect();
    let banks: Vec<Value> = labels
        .iter()
        .zip(sim.finish())
        .map(|(label, report)| bank_facts(label, &report))
        .collect();
    obj([
        ("workload", workload.name.into()),
        ("world_seed", world_seed.into()),
        ("n", cfg.n.into()),
        ("ticks", ticks.into()),
        ("setup_s", setup_s.into()),
        ("tick_ms", tick_ms.into()),
        ("alloc_calls", allocs.calls.into()),
        ("alloc_bytes", allocs.bytes.into()),
        ("rss_peak_mb", rss.map_or(Value::Null, Value::from)),
        ("banks", Value::Arr(banks)),
    ])
}
