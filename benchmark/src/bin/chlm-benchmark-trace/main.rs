//! Per-layer benchmark of the CHLM simulator: a traced run of the
//! pipeline replica beside an untraced run of the real engine. See
//! README.md and `replica.rs`.

mod replica;

use chlm_benchmark::alloc::{self, AllocCount, CountingAlloc};
use chlm_benchmark::json::{obj, Value};
use chlm_benchmark::layers::{
    self, handoff_layer, network_layer, query_layer, COST_LAYERS, OVERHEAD, RESIDUAL, STAGE_LAYERS,
};
use chlm_benchmark::measure::timed;
use chlm_benchmark::proc::{exit_code, run_child, Args};
use chlm_benchmark::result::Checks;
use chlm_benchmark::span::Tracer;
use chlm_benchmark::stats::median;
use chlm_benchmark::workload::{Workload, DEFAULT_SEED, WORKLOADS};
use chlm_proto::network::NetworkStats;
use chlm_sim::observe::Observer;
use chlm_sim::{HopPricer, SimConfig, SimReport, Simulation, TickCtx};
use replica::{Arrivals, Counters, Outcome, Replica, TICK};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  chlm-benchmark-trace trace [--seed S] [--workload W] [--smoke]
      every workload (or W), one traced repetition each; JSON on stdout, the
      per-layer tables on stderr, spans in benchmark/out/trace-<workload>.json;
      exit 1 if a check fails";

/// Where the spans go: `out/` beside this package's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args::new(argv.collect());
    let outcome = match command.as_str() {
        "trace" => trace(args),
        "child" => child(args),
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    exit_code("chlm-benchmark-trace", outcome)
}

fn trace(mut args: Args) -> Result<bool, String> {
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let only = args.value("--workload")?;
    let smoke = args.flag("--smoke");
    args.finish()?;
    let selected: Vec<Workload> = match &only {
        Some(name) => vec![Workload::named(name)?],
        None => WORKLOADS.to_vec(),
    };
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all = Checks::default();
    let mut results = Vec::new();
    for w in &selected {
        // The child prints its own table as it finishes.
        let result = run_child(&me, &w.child_args(seed, 0, smoke))?;
        all.absorb(Checks::from_json(
            result.get("checks").ok_or("child output lacks checks")?,
        )?);
        results.push(result);
    }
    eprintln!(
        "seed {seed}{}: {} checks attempted, {} failed",
        if smoke { ", smoke" } else { "" },
        all.attempted,
        all.failures.len()
    );
    let out = obj([
        ("schema", "chlm-benchmark-trace-v1".into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("checks", all.to_json()),
        ("workloads", Value::Arr(results)),
    ]);
    println!("{}", out.render());
    Ok(all.failures.is_empty())
}

/// Records `TickCtx::query_arrivals` of every tick it sees.
struct ArrivalRecorder(Rc<RefCell<Vec<Arrivals>>>);

impl Observer for ArrivalRecorder {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        self.0.borrow_mut().push(ctx.query_arrivals.to_vec());
    }
}

/// The lookup arrivals of the first `ticks` ticks of `cfg`'s world. They
/// are a pure function of (world config, seed, tick), and the function
/// that draws them is crate-private, so a plain `Simulation` pre-pass over
/// the same world records them for the replica to replay.
fn record_arrivals(cfg: &SimConfig, ticks: usize) -> Vec<Arrivals> {
    if cfg.query_rate <= 0.0 {
        return Vec::new();
    }
    let recorded = Rc::new(RefCell::new(Vec::with_capacity(ticks)));
    let mut sim = Simulation::new(cfg.clone());
    sim.add_observer(Box::new(ArrivalRecorder(Rc::clone(&recorded))));
    for _ in 0..ticks {
        sim.step();
    }
    drop(sim);
    Rc::try_unwrap(recorded).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner)
}

/// Suffixes of the `proto.network.<bank>` metrics, in [`net_delta`]'s order.
const NETWORK_SUFFIXES: [&str; 4] = [
    "sent_per_tick",
    "transmissions_per_tick",
    "dropped_per_tick",
    "retransmissions_per_tick",
];

fn net_delta(after: Option<NetworkStats>, before: Option<NetworkStats>) -> [u64; 4] {
    let (a, b) = (after.unwrap_or_default(), before.unwrap_or_default());
    [
        a.sent - b.sent,
        a.transmissions - b.transmissions,
        a.dropped - b.dropped,
        a.retransmissions - b.retransmissions,
    ]
}

/// Check (e), the packet half of (c), and — whenever no packet was
/// dropped — the strong form of (c): full analytic-vs-packet equality.
fn check_outcome(
    workload: &Workload,
    reports: &[SimReport],
    labels: &[String],
    outcome: &Outcome,
    checks: &mut Checks,
) {
    let name = workload.name;
    let first = &reports[0];
    checks.check(first.rates == outcome.rates, || {
        format!("(e) {name}: replica merged_rates() differ from the engine's report")
    });
    checks.check(first.events == outcome.events, || {
        format!("(e) {name}: replica EventCounts differ from the engine's report")
    });
    for (label, report) in labels.iter().zip(reports) {
        let Some(bank) = outcome.banks.iter().find(|b| &b.label == label) else {
            checks.check(false, || format!("(e) {name}: replica has no bank {label}"));
            continue;
        };
        checks.check(report.ledger == bank.ledger, || {
            format!("(e) {name}: bank {label}: replica HandoffLedger differs from the engine's")
        });
        checks.check(report.query == bank.query, || {
            format!("(e) {name}: bank {label}: replica QueryStats differ from the engine's")
        });
        for net in [bank.handoff_net, bank.query_net].into_iter().flatten() {
            checks.check(net.lost == 0, || {
                format!(
                    "(c) {name}: bank {label} lost {} packets on lossless links",
                    net.lost
                )
            });
        }
    }
    if workload.has_backend_pairs() {
        for (pair, banks) in reports.chunks(2).zip(outcome.banks.chunks(2)) {
            let packet = &banks[banks.len() - 1];
            let dropped = packet.handoff_net.map_or(0, |n| n.dropped)
                + packet.query_net.map_or(0, |n| n.dropped);
            if dropped > 0 {
                // A partitioned tick: the analytic oracle prices the pair
                // by its Euclidean fallback, the network drops the packet.
                continue;
            }
            let (a, p) = (&pair[0], &pair[pair.len() - 1]);
            checks.check(a.query == p.query && a.ledger == p.ledger, || {
                format!(
                    "(c) {name}: no packet dropped, yet {} and its analytic twin disagree on QueryStats or the ledger",
                    packet.label
                )
            });
        }
    }
}

/// The real engine over the same world, tracing off: the reference for
/// check (e) and the base of `trace.overhead.pct`.
struct Untraced {
    reports: Vec<SimReport>,
    tick_ms: Vec<f64>,
    allocs: AllocCount,
}

fn run_engine(workload: &Workload, cfg: &SimConfig, smoke: bool) -> Untraced {
    let mut sim = workload.build(cfg);
    for _ in 0..workload.warm_ticks(smoke) {
        sim.step();
    }
    let before = alloc::snapshot();
    let tick_ms = (0..workload.ticks(smoke))
        .map(|_| timed(|| sim.step()).0 * 1e3)
        .collect();
    let allocs = alloc::snapshot() - before;
    Untraced {
        reports: sim.finish(),
        tick_ms,
        allocs,
    }
}

/// The replica's measured ticks: spans, the counters recorded beside
/// them, and what the banks accumulated.
struct Traced {
    tracer: Tracer,
    counters: Counters,
    tick_ms: Vec<f64>,
    /// Per bank, in `labels` order, over the measured ticks only.
    labels: Vec<String>,
    lookups: Vec<u64>,
    network: Vec<[u64; 4]>,
    outcome: Outcome,
}

fn run_replica(workload: &Workload, cfg: &SimConfig, smoke: bool) -> Traced {
    let (warm_ticks, ticks) = (workload.warm_ticks(smoke), workload.ticks(smoke));
    let variants = workload.variants();
    let arrivals = record_arrivals(cfg, warm_ticks + ticks);
    // Spans per tick: root, 9 stage calls, per group a scope, per bank up
    // to two spans with a folded child each.
    let per_tick = 10 + variants.len() * 5;
    let mut tracer = Tracer::with_capacity(ticks.max(warm_ticks) * per_tick);
    let mut replica = Replica::new(cfg, &variants, arrivals, &mut tracer);
    let mut counters = Counters::default();
    for _ in 0..warm_ticks {
        replica.step(&mut tracer, &mut counters);
    }
    tracer.clear();
    counters = Counters::default();
    let (net_before, lookups_before) = (replica.network_totals(), replica.lookups());
    let tick_ms = (0..ticks)
        .map(|_| timed(|| replica.step(&mut tracer, &mut counters)).0 * 1e3)
        .collect();
    let lookups = replica
        .lookups()
        .iter()
        .zip(&lookups_before)
        .map(|(a, b)| a - b)
        .collect();
    let network = replica
        .network_totals()
        .iter()
        .zip(&net_before)
        .map(|(after, before)| {
            let (handoff, query) = (net_delta(after.0, before.0), net_delta(after.1, before.1));
            [0, 1, 2, 3].map(|j| handoff[j] + query[j])
        })
        .collect();
    Traced {
        labels: replica.labels(),
        outcome: replica.finish(),
        tracer,
        counters,
        tick_ms,
        lookups,
        network,
    }
}

/// Every per-layer value this workload produced, by metric name, per
/// measured tick.
fn layer_values(traced: &Traced, ticks: usize, overhead_pct: f64) -> BTreeMap<String, f64> {
    let per = ticks as f64;
    let totals = traced.tracer.totals();
    let of = |name: &str| traced.tracer.total_of(&totals, name);
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    let kib = |a: AllocCount| a.bytes as f64 / 1024.0 / per;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |layer: &str, suffix: &str, v: f64| {
        values.insert(format!("{layer}.{suffix}"), v);
    };
    let c = traced.counters;
    let stage_counters = [
        0,
        c.edge_flips,
        c.depth_sum,
        c.addr_changes,
        c.host_changes,
        0,
    ];
    for ((layer, counter_name), count) in STAGE_LAYERS.into_iter().zip(stage_counters) {
        let t = of(layer);
        set(layer, "ms_per_tick", ms(t.self_ns));
        set(layer, "allocs_per_tick", t.self_allocs.calls as f64 / per);
        set(layer, "alloc_kb_per_tick", kib(t.self_allocs));
        if let Some(counter_name) = counter_name {
            set(layer, counter_name, count as f64 / per);
        }
    }
    for layer in COST_LAYERS {
        let (scope, hops) = (of(layer), of(&format!("{layer}.hops")));
        let allocs = scope.self_allocs + hops.self_allocs;
        set(layer, "setup_ms_per_tick", ms(scope.self_ns));
        set(layer, "hops_ms_per_tick", ms(hops.self_ns));
        set(layer, "hops_calls_per_tick", hops.calls as f64 / per);
        set(layer, "allocs_per_tick", allocs.calls as f64 / per);
        set(layer, "alloc_kb_per_tick", kib(allocs));
    }
    for (i, label) in traced.labels.iter().enumerate() {
        let (handoff, query) = (handoff_layer(label), query_layer(label));
        for layer in [&handoff, &query] {
            let t = of(layer);
            set(layer, "ms_per_tick", ms(t.self_ns));
            set(layer, "allocs_per_tick", t.self_allocs.calls as f64 / per);
        }
        set(&query, "lookups_per_tick", traced.lookups[i] as f64 / per);
        for (suffix, count) in NETWORK_SUFFIXES.into_iter().zip(traced.network[i]) {
            set(&network_layer(label), suffix, count as f64 / per);
        }
    }
    values.insert(RESIDUAL.to_string(), ms(of(TICK).self_ns));
    values.insert(OVERHEAD.to_string(), overhead_pct);
    values
}

fn child(mut args: Args) -> Result<bool, String> {
    let workload = Workload::named(&args.value("--workload")?.ok_or("child needs --workload")?)?;
    let seed: u64 = args.parsed("--seed")?.ok_or("child needs --seed")?;
    let smoke = args.flag("--smoke");
    args.finish()?;
    let cfg = workload.config(seed, smoke);
    let ticks = workload.ticks(smoke);
    let per = ticks as f64;

    let untraced = run_engine(&workload, &cfg, smoke);
    let traced = run_replica(&workload, &cfg, smoke);

    let mut checks = Checks::default();
    let variant_labels: Vec<String> = workload.variants().into_iter().map(|v| v.label).collect();
    check_outcome(
        &workload,
        &untraced.reports,
        &variant_labels,
        &traced.outcome,
        &mut checks,
    );

    let (untraced_p50, traced_p50) = (median(&untraced.tick_ms), median(&traced.tick_ms));
    let overhead = (traced_p50 / untraced_p50 - 1.0) * 100.0;
    let values = layer_values(&traced, ticks, overhead);

    // Both sums the acceptance criteria ask for. The spans' self values
    // must add up to the root spans exactly; a gap is a bookkeeping bug.
    let totals = traced.tracer.totals();
    let span_ns: u64 = totals.iter().map(|t| t.self_ns).sum();
    let span_allocs: AllocCount = totals.iter().map(|t| t.self_allocs).sum();
    let roots = traced.tracer.spans().iter().filter(|s| s.parent.is_none());
    let (tick_ns, tick_allocs) = roots.fold((0, AllocCount::default()), |(ns, a), s| {
        (ns + (s.end_ns - s.start_ns), a + s.allocs)
    });
    checks.check(span_allocs == tick_allocs && span_ns == tick_ns, || {
        format!(
            "(e) {}: spans sum to {span_ns} ns / {span_allocs:?}, the ticks to {tick_ns} ns / {tick_allocs:?}",
            workload.name
        )
    });

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let suffix = if smoke { "-smoke" } else { "" };
    let path = format!("{OUT_DIR}/trace-{}{suffix}.json", workload.name);
    let spans = obj([
        ("workload", workload.name.into()),
        ("world_seed", seed.into()),
        ("n", cfg.n.into()),
        ("ticks", ticks.into()),
        ("spans", traced.tracer.to_json()),
    ]);
    std::fs::write(&path, spans.render() + "\n").map_err(|e| format!("{path}: {e}"))?;

    let tick_ms = tick_ns as f64 / 1e6 / per;
    let per_tick = |a: AllocCount| (a.calls as f64 / per, a.bytes as f64 / 1024.0 / per);
    eprint!("{}", table(&workload, cfg.n, ticks, &values, tick_ms));
    eprintln!(
        "  sum of span allocs {:.1}/tick ({:.1} KiB); whole-tick count {:.1}/tick ({:.1} KiB); untraced engine, same world, {:.1}/tick ({:.1} KiB)",
        per_tick(span_allocs).0,
        per_tick(span_allocs).1,
        per_tick(tick_allocs).0,
        per_tick(tick_allocs).1,
        per_tick(untraced.allocs).0,
        per_tick(untraced.allocs).1,
    );
    let residual_share = values[RESIDUAL] / tick_ms;
    eprintln!(
        "  sim.engine.residual {:.2}% of the tick{}; trace.overhead {overhead:.1}% (traced p50 {traced_p50:.2} ms, untraced {untraced_p50:.2} ms){}",
        residual_share * 100.0,
        if residual_share < 0.03 { "" } else { "  WARN: above 3%" },
        if overhead < 15.0 { "" } else { "  WARN: above 15%" },
    );
    eprintln!(
        "  checks: {} attempted, {} failed; spans in {path}",
        checks.attempted,
        checks.failures.len()
    );
    for f in &checks.failures {
        eprintln!("  FAILED {f}");
    }
    // Every per-layer metric of BENCHMARK.json, 0 where this workload
    // bypasses the layer.
    let metrics: Vec<(String, Value)> = layers::metrics()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            (name, obj([("value", value.into()), ("unit", unit.into())]))
        })
        .collect();
    let out = obj([
        ("name", workload.name.into()),
        ("world_seed", seed.into()),
        ("n", cfg.n.into()),
        ("ticks", ticks.into()),
        ("tick_ms_mean_traced", tick_ms.into()),
        ("tick_ms_p50_untraced", untraced_p50.into()),
        ("allocs_per_tick_traced", per_tick(tick_allocs).0.into()),
        ("allocs_per_tick_spans", per_tick(span_allocs).0.into()),
        (
            "allocs_per_tick_untraced",
            per_tick(untraced.allocs).0.into(),
        ),
        ("metrics", Value::Obj(metrics)),
        ("checks", checks.to_json()),
    ]);
    println!("{}", out.render());
    Ok(checks.failures.is_empty())
}

/// The human per-layer table: one row per layer that ran, with its share
/// of the traced tick, then the time sum.
fn table(
    workload: &Workload,
    n: usize,
    ticks: usize,
    values: &BTreeMap<String, f64>,
    tick_ms: f64,
) -> String {
    let get = |layer: &str, suffix: &str| {
        values
            .get(&format!("{layer}.{suffix}"))
            .copied()
            .unwrap_or(0.0)
    };
    let mut out = format!(
        "{} traced (n={n}, threads={}, {ticks} ticks)\n  {:<34} {:>10} {:>7} {:>12} {:>12}  {}\n",
        workload.name,
        workload.threads,
        "layer",
        "ms/tick",
        "share",
        "allocs/tick",
        "KiB/tick",
        "counters"
    );
    let mut row = |layer: &str, ms: f64, allocs: f64, kib: Option<f64>, extra: String| {
        if ms == 0.0 && allocs == 0.0 {
            return 0.0;
        }
        out.push_str(&format!(
            "  {:<34} {:>10.3} {:>6.1}% {:>12.1} {:>12}  {}\n",
            layer,
            ms,
            ms / tick_ms * 100.0,
            allocs,
            kib.map_or("-".to_string(), |k| format!("{k:.1}")),
            extra
        ));
        ms
    };
    let mut listed_ms = 0.0;
    for (layer, counter) in STAGE_LAYERS {
        let extra = counter.map_or(String::new(), |c| format!("{c} {:.1}", get(layer, c)));
        listed_ms += row(
            layer,
            get(layer, "ms_per_tick"),
            get(layer, "allocs_per_tick"),
            Some(get(layer, "alloc_kb_per_tick")),
            extra,
        );
    }
    for layer in COST_LAYERS {
        let (setup, hops) = (
            get(layer, "setup_ms_per_tick"),
            get(layer, "hops_ms_per_tick"),
        );
        let extra = format!(
            "setup {setup:.3} ms, hops {hops:.3} ms in {:.1} calls",
            get(layer, "hops_calls_per_tick")
        );
        listed_ms += row(
            layer,
            setup + hops,
            get(layer, "allocs_per_tick"),
            Some(get(layer, "alloc_kb_per_tick")),
            extra,
        );
    }
    for bank in workload.variants() {
        let (handoff, query, net) = (
            handoff_layer(&bank.label),
            query_layer(&bank.label),
            network_layer(&bank.label),
        );
        let sent = get(&net, "sent_per_tick");
        let net_extra = if sent > 0.0 {
            format!(
                "network: sent {sent:.1}, transmissions {:.1}, dropped {:.1}, retransmissions {:.1}",
                get(&net, "transmissions_per_tick"),
                get(&net, "dropped_per_tick"),
                get(&net, "retransmissions_per_tick")
            )
        } else {
            String::new()
        };
        listed_ms += row(
            &handoff,
            get(&handoff, "ms_per_tick"),
            get(&handoff, "allocs_per_tick"),
            None,
            net_extra,
        );
        listed_ms += row(
            &query,
            get(&query, "ms_per_tick"),
            get(&query, "allocs_per_tick"),
            None,
            format!("lookups {:.1}", get(&query, "lookups_per_tick")),
        );
    }
    let residual = values.get(RESIDUAL).copied().unwrap_or(0.0);
    out.push_str(&format!(
        "  sum of layer ms {listed_ms:.3} + residual {residual:.3} = {:.3}; traced tick mean {tick_ms:.3} ms\n",
        listed_ms + residual
    ));
    out
}
