//! E27: the update-vs-query crossover across LM schemes.
//!
//! The paper's case for hierarchical location management rests on update
//! (handoff) overhead; the query plane is the other side of the ledger.
//! This experiment sweeps the call-to-mobility ratio (CMR — expressed as
//! lookup arrivals per node per second; the mobility side is fixed by the
//! config's speed, so the ratio is proportional to the paper's CMR) over
//! identical per-seed world traces and asks, per scheme: at what CMR does
//! lookup traffic overtake update traffic?
//!
//! The sweep is public so the golden snapshot test runs the *same* code
//! the E27 record runs: one [`CrossoverSpec`] → deterministic row lists →
//! one canonical JSON rendering. Each (mobility, n, seed, cmr) world is
//! simulated once and fanned out to all six banks — 3 schemes ×
//! {analytic, lossless packet} — through the shared-world multiplexer;
//! whenever the trace stays connected the two backends agree exactly (the
//! `query_parity.rs` wall), so equal backend columns are a standing
//! cross-check, not redundancy — a gap between them measures partition
//! time, priced by the analytic oracle's Euclidean fallback vs dropped
//! packets.
//!
//! Crossover extraction: update overhead is CMR-independent (lookup
//! arrivals never feed back into the world trace), and per-lookup cost is
//! CMR-independent too, so query overhead is linear through the origin in
//! the CMR. Per replication we fit the slope `k = Σ(q_c·c) / Σ(c²)` over
//! the swept CMR points and report `crossover = update / k`, then
//! summarize mean ± ci95 over replications.

use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_grid, Backend, HopMetric, MobilityKind, SimConfig, SimReport, VariantSpec};

use crate::lm_compare::{mobility_models, schemes};
use crate::{
    env_usize, jf, json_array, measured_seconds, replications, scaling_sizes, summarize, threads,
    warmup_seconds,
};
use std::time::Instant;

/// The backends the query plane is priced on, in report order.
fn backends() -> [(&'static str, Backend); 2] {
    [
        ("analytic", Backend::Analytic),
        ("packet", Backend::packet()),
    ]
}

/// Everything that pins one crossover run. Two specs with equal fields
/// produce byte-identical rows (`threads` excluded — the engine is
/// thread-invariant, so it is a pure speed knob).
#[derive(Debug, Clone)]
pub struct CrossoverSpec {
    sizes: Vec<usize>,
    /// Swept CMR points (lookup arrivals per node per second).
    cmrs: Vec<f64>,
    replications: usize,
    base_seed: u64,
    threads: usize,
    duration: f64,
    warmup: f64,
    mobilities: Vec<(&'static str, MobilityKind)>,
}

impl CrossoverSpec {
    /// The fixed golden-snapshot spec: n = 256, 2 seeds, walk + waypoint,
    /// two CMR points. Keep in sync with
    /// `tests/golden/query_crossover_n256.json`.
    pub fn golden() -> Self {
        let mut mobilities = mobility_models();
        mobilities.retain(|(name, _)| *name != "rpgm");
        CrossoverSpec {
            replications: 2,
            mobilities,
            ..CrossoverSpec::smoke(2)
        }
    }

    /// The CI smoke spec: n = 256, 1 seed, all three mobilities.
    fn smoke(threads: usize) -> Self {
        CrossoverSpec {
            sizes: vec![256],
            cmrs: vec![1.0, 4.0],
            replications: 1,
            base_seed: 27_000,
            threads,
            duration: 2.0,
            warmup: 1.0,
            mobilities: mobility_models(),
        }
    }

    /// The shared-world config at one (mobility, n, cmr) grid cell. BFS
    /// pricing, and dense enough (degree 12, the `parity.rs` rule) that
    /// the unit-disk graph stays connected — on a partitioned tick the
    /// analytic oracle prices cross-partition pairs with a Euclidean
    /// fallback the packet network cannot execute, which would open an
    /// analytic-vs-packet gap in the update columns.
    fn config_for(&self, n: usize, mobility: MobilityKind, cmr: f64) -> SimConfig {
        SimConfig::builder(n)
            .duration(self.duration)
            .warmup(self.warmup)
            .mobility(mobility)
            .target_degree(12.0)
            .hop_metric(HopMetric::Bfs)
            .query_rate(cmr)
            .build()
    }
}

/// The six banks fanned out per world, in report order: scheme name,
/// backend name, and the variant that prices them.
fn banks() -> Vec<(&'static str, &'static str, VariantSpec)> {
    let mut v = Vec::new();
    for (sname, scheme) in schemes() {
        for (bname, backend) in backends() {
            let variant =
                VariantSpec::new(format!("{sname}/{bname}"), scheme, HopMetric::Bfs, backend);
            v.push((sname, bname, variant));
        }
    }
    v
}

/// One (mobility, scheme, backend, n, cmr) cell: update and query
/// overheads in packets per node per second, mean ± ci95 over the spec's
/// replications.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    mobility: &'static str,
    scheme: &'static str,
    backend: &'static str,
    n: usize,
    cmr: f64,
    update_mean: f64,
    update_ci95: f64,
    query_mean: f64,
    query_ci95: f64,
}

/// One (mobility, scheme, backend, n) crossover: the CMR at which the
/// query plane's overhead equals the update plane's, mean ± ci95 over
/// per-replication crossovers.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    mobility: &'static str,
    scheme: &'static str,
    backend: &'static str,
    n: usize,
    crossover_mean: f64,
    crossover_ci95: f64,
}

/// Query-plane overhead of one report (every swept CMR is nonzero).
fn query_overhead(report: &SimReport) -> f64 {
    report
        .query
        .as_ref()
        .expect("nonzero cmr reports query stats")
        .overhead_per_node_per_second()
}

/// Run the sweep: one world per (mobility, n, cmr, seed), six banks per
/// world, and fold per-CMR rows plus per-cell crossovers out of the grid.
pub fn run_crossover(spec: &CrossoverSpec) -> (Vec<QueryRow>, Vec<CrossoverRow>) {
    // Cells in mobility → n → cmr order.
    let mut cells = Vec::new();
    for &(_, mobility) in &spec.mobilities {
        for &n in &spec.sizes {
            for &cmr in &spec.cmrs {
                cells.push(spec.config_for(n, mobility, cmr));
            }
        }
    }
    let mut rows = Vec::new();
    let mut crossovers = Vec::new();
    if cells.is_empty() {
        return (rows, crossovers);
    }
    let banks = banks();
    let variants: Vec<VariantSpec> = banks.iter().map(|(_, _, v)| v.clone()).collect();
    let seeds = seed_range(spec.base_seed, spec.replications);
    let grid = run_grid(&cells, &seeds, &variants, spec.threads);
    for (&(mob_name, _), by_size) in spec
        .mobilities
        .iter()
        .zip(grid.chunks_exact(spec.sizes.len() * spec.cmrs.len()))
    {
        for (vi, &(scheme_name, backend_name, _)) in banks.iter().enumerate() {
            for (&n, by_cmr) in spec.sizes.iter().zip(by_size.chunks_exact(spec.cmrs.len())) {
                for (&cmr, cell) in spec.cmrs.iter().zip(by_cmr) {
                    let u = summarize(&cell[vi], SimReport::total_overhead);
                    let q = summarize(&cell[vi], query_overhead);
                    rows.push(QueryRow {
                        mobility: mob_name,
                        scheme: scheme_name,
                        backend: backend_name,
                        n,
                        cmr,
                        update_mean: u.mean,
                        update_ci95: u.ci95(),
                        query_mean: q.mean,
                        query_ci95: q.ci95(),
                    });
                }
                // Per-replication crossover: least-squares slope of
                // query overhead vs CMR through the origin, then
                // update / slope. Update overhead is CMR-independent;
                // read it off the first CMR point.
                let xs: Vec<f64> = (0..seeds.len())
                    .map(|rep| {
                        let update = by_cmr[0][vi][rep].total_overhead();
                        let (mut num, mut den) = (0.0, 0.0);
                        for (&cmr, cell) in spec.cmrs.iter().zip(by_cmr) {
                            num += query_overhead(&cell[vi][rep]) * cmr;
                            den += cmr * cmr;
                        }
                        let slope = num / den;
                        if slope > 0.0 {
                            update / slope
                        } else {
                            f64::NAN
                        }
                    })
                    .collect();
                let s = Summary::of(&xs).expect("cell with no replications");
                crossovers.push(CrossoverRow {
                    mobility: mob_name,
                    scheme: scheme_name,
                    backend: backend_name,
                    n,
                    crossover_mean: s.mean,
                    crossover_ci95: s.ci95(),
                });
            }
        }
    }
    (rows, crossovers)
}

/// Canonical JSON for the two row lists (hand-rolled; the workspace
/// carries no serde). Stable key order, one row per line.
pub fn rows_json(spec: &CrossoverSpec, rows: &[QueryRow], crossovers: &[CrossoverRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"spec\": {{\"sizes\": {:?}, \"cmrs\": {:?}, \"replications\": {}, \
         \"base_seed\": {}, \"duration\": {}, \"warmup\": {}, \
         \"metric\": \"pkts/node/s, crossover in lookups/node/s\"}},\n",
        spec.sizes,
        spec.cmrs,
        spec.replications,
        spec.base_seed,
        jf(spec.duration),
        jf(spec.warmup),
    ));
    let rows = rows.iter().map(|r| {
        format!(
            "{{\"mobility\": \"{}\", \"scheme\": \"{}\", \"backend\": \"{}\", \
             \"n\": {}, \"cmr\": {}, \"update_mean\": {}, \"update_ci95\": {}, \
             \"query_mean\": {}, \"query_ci95\": {}}}",
            r.mobility,
            r.scheme,
            r.backend,
            r.n,
            jf(r.cmr),
            jf(r.update_mean),
            jf(r.update_ci95),
            jf(r.query_mean),
            jf(r.query_ci95),
        )
    });
    let crossovers = crossovers.iter().map(|r| {
        format!(
            "{{\"mobility\": \"{}\", \"scheme\": \"{}\", \"backend\": \"{}\", \
             \"n\": {}, \"crossover_mean\": {}, \"crossover_ci95\": {}}}",
            r.mobility,
            r.scheme,
            r.backend,
            r.n,
            jf(r.crossover_mean),
            jf(r.crossover_ci95),
        )
    });
    out.push_str(&json_array("rows", rows));
    out.push_str(",\n");
    out.push_str(&json_array("crossover", crossovers));
    out.push_str("\n}\n");
    out
}

/// Render, per mobility model: the update/query overhead grid (a row per
/// scheme × backend × n × cmr) and the crossover table (mean ± ci95 per
/// scheme × backend × n).
fn render_tables(spec: &CrossoverSpec, rows: &[QueryRow], crossovers: &[CrossoverRow]) -> String {
    let mut out = String::new();
    for &(mob_name, _) in &spec.mobilities {
        let mut t = TextTable::new(vec![
            "scheme".to_string(),
            "backend".to_string(),
            "n".to_string(),
            "cmr".to_string(),
            "update (pkt/node/s)".to_string(),
            "update_ci95".to_string(),
            "query (pkt/node/s)".to_string(),
            "query_ci95".to_string(),
        ]);
        for r in rows.iter().filter(|r| r.mobility == mob_name) {
            t.row(vec![
                r.scheme.to_string(),
                r.backend.to_string(),
                format!("{}", r.n),
                fnum(r.cmr),
                fnum(r.update_mean),
                fnum(r.update_ci95),
                fnum(r.query_mean),
                fnum(r.query_ci95),
            ]);
        }
        out.push_str(&format!("mobility = {mob_name}:\n{}\n", t.render()));
        let mut c = TextTable::new(vec![
            "scheme".to_string(),
            "backend".to_string(),
            "n".to_string(),
            "crossover CMR (lookups/node/s)".to_string(),
            "ci95".to_string(),
        ]);
        for r in crossovers.iter().filter(|r| r.mobility == mob_name) {
            c.row(vec![
                r.scheme.to_string(),
                r.backend.to_string(),
                format!("{}", r.n),
                fnum(r.crossover_mean),
                fnum(r.crossover_ci95),
            ]);
        }
        out.push_str(&format!(
            "mobility = {mob_name} — update-vs-query crossover:\n{}\n",
            c.render()
        ));
    }
    out
}

/// E27: per (mobility, scheme, backend, n), update and query overhead at
/// every CMR point and the crossover CMR, mean ± ci95 over replications.
/// `--smoke` runs the bounded CI spec (n = 256, 1 seed, all mobilities).
pub(crate) fn exp_query_crossover(smoke: bool) {
    let spec = if smoke {
        CrossoverSpec::smoke(threads())
    } else {
        CrossoverSpec {
            sizes: scaling_sizes(256, env_usize("CHLM_MAX_N", 1024, 256)),
            cmrs: vec![0.5, 1.0, 2.0, 4.0, 8.0],
            replications: replications(),
            duration: measured_seconds(4.0),
            warmup: warmup_seconds(2.0),
            ..CrossoverSpec::smoke(threads())
        }
    };
    println!("== E27: update-vs-query crossover (chlm vs gls vs home agent) ==");
    println!(
        "sizes {:?}, cmrs {:?}, {} replications, {}s measured, {} threads{}\n",
        spec.sizes,
        spec.cmrs,
        spec.replications,
        spec.duration,
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let started = Instant::now();
    let (rows, crossovers) = run_crossover(&spec);
    let elapsed = started.elapsed();
    print!("{}", render_tables(&spec, &rows, &crossovers));
    println!("wall clock: {:.3}s", elapsed.as_secs_f64());
    println!("notes:");
    println!("- update = phi+gamma handoff overhead; query = request/reply lookup");
    println!("  overhead, both in packet transmissions per node per second;");
    println!("- every scheme x backend bank prices the byte-identical world trace");
    println!("  and the byte-identical lookup arrivals per seed;");
    println!("- crossover = update / slope(query vs cmr): the lookup rate at which");
    println!("  the query plane costs as much as the update plane;");
    println!("- analytic and lossless-packet columns agree exactly while the trace");
    println!("  stays connected (crates/sim/tests/query_parity.rs); a gap measures");
    println!("  partition time (Euclidean-fallback pricing vs dropped packets).");
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_graph::traversal::connected_components;
    use chlm_sim::cost::HopPricer;
    use chlm_sim::{Observer, TickCtx};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Small but not tiny: n = 110 at degree 12 is the `parity.rs`
    /// connectivity floor — smaller worlds partition under waypoint
    /// motion and open a legitimate analytic-vs-packet gap (Euclidean
    /// fallback pricing) that would fail the backend-parity checks.
    ///
    /// The parity check also needs a walk world that never partitions,
    /// which depends on the seed: 27 000's walk splits for four ticks, so
    /// the spec starts at 27 002, and `never_partitions` checks the
    /// premise before the parity is asserted.
    fn tiny() -> CrossoverSpec {
        let mut spec = CrossoverSpec::golden();
        spec.sizes = vec![110];
        spec.duration = 1.0;
        spec.warmup = 0.2;
        spec.replications = 1;
        spec.base_seed = 27_002;
        spec
    }

    /// Whether the world of `cfg` is one component at every measured tick.
    fn never_partitions(cfg: SimConfig) -> bool {
        struct Split(Rc<Cell<bool>>);
        impl Observer for Split {
            fn on_tick(&mut self, ctx: &TickCtx<'_>, _: &mut dyn HopPricer) {
                if connected_components(ctx.graph).1 > 1 {
                    self.0.set(true);
                }
            }
        }
        let split = Rc::new(Cell::new(false));
        let ticks = cfg.tick_count();
        let mut sim = chlm_sim::Simulation::new(cfg);
        sim.add_observer(Box::new(Split(split.clone())));
        for _ in 0..ticks {
            sim.step();
        }
        !split.get()
    }

    #[test]
    fn golden_spec_is_pinned() {
        let s = CrossoverSpec::golden();
        assert_eq!(s.sizes, vec![256]);
        assert_eq!(s.cmrs, vec![1.0, 4.0]);
        assert_eq!(s.replications, 2);
        assert_eq!(s.base_seed, 27_000);
        assert_eq!(s.mobilities.len(), 2);
    }

    #[test]
    fn crossover_grid_has_full_shape_and_backend_parity() {
        let spec = tiny();
        let (rows, crossovers) = run_crossover(&spec);
        assert_eq!(rows.len(), 2 * 3 * 2 * 2); // mob × scheme × backend × cmr (one n)
        assert_eq!(crossovers.len(), 2 * 3 * 2);
        assert!(rows.iter().all(|r| r.update_mean > 0.0));
        assert!(rows.iter().all(|r| r.query_mean > 0.0));
        // Lossless BFS parity: on a trace that never partitions, the
        // analytic and packet banks of the same cell agree bit for bit
        // (the query_parity.rs contract, seen end-to-end through the
        // sweep). At this seed walk keeps the world connected (checked
        // first); waypoint can transiently partition it, where the
        // analytic oracle's Euclidean fallback legitimately diverges from
        // dropped packets.
        let &(_, walk) = spec
            .mobilities
            .iter()
            .find(|(name, _)| *name == "walk")
            .expect("the golden spec runs walk");
        for seed in seed_range(spec.base_seed, spec.replications) {
            let mut cfg = spec.config_for(110, walk, 1.0);
            cfg.seed = seed;
            assert!(
                never_partitions(cfg),
                "the walk world of seed {seed} partitions"
            );
        }
        let cell = |mob: &str, scheme: &str, backend: &str, cmr: f64| {
            rows.iter()
                .find(|r| {
                    r.mobility == mob && r.scheme == scheme && r.backend == backend && r.cmr == cmr
                })
                .expect("run_crossover covers the full grid")
        };
        for (scheme, _) in schemes() {
            for &cmr in &spec.cmrs {
                let a = cell("walk", scheme, "analytic", cmr);
                let p = cell("walk", scheme, "packet", cmr);
                assert_eq!(a.update_mean, p.update_mean, "{a:?} vs {p:?}");
                assert_eq!(a.query_mean, p.query_mean, "{a:?} vs {p:?}");
            }
            let xs: Vec<&CrossoverRow> = crossovers
                .iter()
                .filter(|r| r.mobility == "walk" && r.scheme == scheme)
                .collect();
            assert_eq!(xs.len(), 2);
            assert_eq!(xs[0].crossover_mean, xs[1].crossover_mean);
        }
    }

    #[test]
    fn query_overhead_scales_linearly_with_cmr() {
        // The extraction's premise: doubling the CMR (4 = 4×1) scales
        // query overhead in proportion, to within arrival-quantization
        // noise, while update overhead is bit-identical across CMRs.
        let spec = tiny();
        let (rows, _) = run_crossover(&spec);
        let cell: Vec<&QueryRow> = rows
            .iter()
            .filter(|r| r.mobility == "walk" && r.scheme == "chlm" && r.backend == "analytic")
            .collect();
        assert_eq!(cell.len(), 2);
        assert_eq!(cell[0].update_mean, cell[1].update_mean);
        let ratio = cell[1].query_mean / cell[0].query_mean.max(1e-12);
        assert!(
            (ratio - 4.0).abs() < 1.0,
            "query overhead not ~linear in CMR: ratio {ratio}"
        );
    }

    #[test]
    fn json_is_stable_shape() {
        let spec = CrossoverSpec::golden();
        let rows = vec![QueryRow {
            mobility: "walk",
            scheme: "chlm",
            backend: "analytic",
            n: 256,
            cmr: 1.0,
            update_mean: 1.5,
            update_ci95: 0.25,
            query_mean: 0.5,
            query_ci95: 0.1,
        }];
        let crossovers = vec![CrossoverRow {
            mobility: "walk",
            scheme: "chlm",
            backend: "analytic",
            n: 256,
            crossover_mean: 3.0,
            crossover_ci95: 0.5,
        }];
        let json = rows_json(&spec, &rows, &crossovers);
        assert!(json.contains("\"update_mean\": 1.5"));
        assert!(json.contains("\"crossover_mean\": 3.0"));
        assert!(json.ends_with("]\n}\n"));
    }
}
