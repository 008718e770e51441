//! E24: the three-scheme LM comparison on identical traces, every world
//! priced twice — by the calibrated Euclidean estimate and along
//! hierarchical routes (the §2.1 stretch).
//!
//! The sweep is public so the golden snapshot test runs the *same* code
//! the record runs: one [`CompareSpec`] → one deterministic [`CompareRow`]
//! list → one canonical JSON rendering. Every (scheme, metric) bank at a
//! given (mobility, n, seed) sees the byte-identical world trace — one
//! world feeds all six banks, and a bank only swaps the accounting
//! observer and its pricer (pinned by `chlm-sim`'s `tests/scheme_trace.rs`
//! and `tests/multiplex_equivalence.rs`).

use crate::{
    env_usize, jf, json_array, measured_seconds, replications, scaling_sizes, summarize, threads,
    warmup_seconds,
};
use chlm_analysis::table::{fnum, TextTable};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_grid, HopMetric, LmScheme, MobilityKind, SimConfig, SimReport, VariantSpec};
use std::time::Instant;

/// The schemes under comparison, in report order.
pub(crate) fn schemes() -> [(&'static str, LmScheme); 3] {
    [
        ("chlm", LmScheme::Chlm),
        ("gls", LmScheme::Gls),
        ("home", LmScheme::HomeAgent),
    ]
}

/// The hop metrics every world is priced under, in report order, each with
/// the key its rows sit under in [`rows_json`].
const METRICS: [(&str, HopMetric); 2] = [
    ("rows", HopMetric::EuclideanCalibrated),
    ("hier_routing_rows", HopMetric::HierRouting),
];

/// The mobility models of the full E24 sweep.
pub(crate) fn mobility_models() -> Vec<(&'static str, MobilityKind)> {
    vec![
        ("walk", MobilityKind::walk()),
        ("waypoint", MobilityKind::Waypoint),
        (
            "rpgm",
            MobilityKind::Rpgm {
                groups: 8,
                group_radius: 2.0,
                jitter_radius: 0.6,
                jitter_speed: 0.4,
            },
        ),
    ]
}

/// Everything that pins one comparison run. Two specs with equal fields
/// produce byte-identical [`CompareRow`]s (thread count excluded — the
/// engine is thread-invariant, so `threads` is a pure speed knob).
#[derive(Debug, Clone)]
pub struct CompareSpec {
    sizes: Vec<usize>,
    replications: usize,
    base_seed: u64,
    threads: usize,
    duration: f64,
    warmup: f64,
    /// Extend warmup to two region crossings (the `standard_config`
    /// mixing rule) — on for the full experiment, off for the bounded
    /// smoke/golden runs.
    crossing_warmup: bool,
    mobilities: Vec<(&'static str, MobilityKind)>,
}

impl CompareSpec {
    /// The fixed golden-snapshot spec: the smoke spec at 2 seeds, walk +
    /// waypoint. Changing any of these regenerates different numbers —
    /// keep in sync with `tests/golden/lm_compare_n256.json`.
    pub fn golden() -> Self {
        let mut mobilities = mobility_models();
        mobilities.retain(|(name, _)| *name != "rpgm");
        CompareSpec {
            replications: 2,
            mobilities,
            ..CompareSpec::smoke(2)
        }
    }

    /// The full E24 grid from the `CHLM_*` knobs: n = 256 doubling to
    /// `CHLM_MAX_N` (default 4096), all three mobilities, warmup extended
    /// to two region crossings.
    fn from_env() -> Self {
        CompareSpec {
            sizes: scaling_sizes(256, env_usize("CHLM_MAX_N", 4096, 256)),
            replications: replications(),
            duration: measured_seconds(8.0),
            warmup: warmup_seconds(6.0),
            crossing_warmup: true,
            ..CompareSpec::smoke(threads())
        }
    }

    /// The CI smoke spec: n = 256, 1 seed, all three mobilities.
    fn smoke(threads: usize) -> Self {
        CompareSpec {
            sizes: vec![256],
            replications: 1,
            base_seed: 24_000,
            threads,
            duration: 2.0,
            warmup: 1.0,
            crossing_warmup: false,
            mobilities: mobility_models(),
        }
    }

    /// The world config at one (mobility, n) grid cell.
    fn config_for(&self, n: usize, mobility: MobilityKind) -> SimConfig {
        let mut cfg = SimConfig::builder(n)
            .duration(self.duration)
            .warmup(self.warmup)
            .mobility(mobility)
            .build();
        if self.crossing_warmup {
            let crossing = cfg.region_radius() / cfg.speed;
            cfg.warmup = cfg.warmup.max(2.0 * crossing);
        }
        cfg
    }
}

/// One (metric, mobility, scheme, n) cell: φ+γ in packets per node per
/// second, mean ± ci95 over the spec's replications.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    metric: HopMetric,
    mobility: &'static str,
    scheme: &'static str,
    n: usize,
    mean: f64,
    ci95: f64,
}

/// Run the full comparison through the shared-world multiplexer: one
/// world per (mobility, n, seed) grid cell, priced against it by six
/// observer banks — the three schemes by the calibrated Euclidean
/// estimate, then along hierarchical routes ([`chlm_sim::run_grid`]: one
/// ticket pool over every world-run). Rows are ordered metric → mobility
/// → scheme → n; the fan-out reproduces each standalone report exactly
/// (`chlm-sim`'s `tests/multiplex_equivalence.rs`).
pub fn run_compare(spec: &CompareSpec) -> Vec<CompareRow> {
    // Cells in mobility → n order; the world reads neither the scheme nor
    // the metric axis.
    let cells: Vec<SimConfig> = spec
        .mobilities
        .iter()
        .flat_map(|&(_, mobility)| {
            spec.sizes
                .iter()
                .map(move |&n| spec.config_for(n, mobility))
        })
        .collect();
    let Some(first) = cells.first() else {
        return Vec::new();
    };
    let variants: Vec<VariantSpec> = METRICS
        .iter()
        .flat_map(|&(_, metric)| {
            schemes().map(|(name, scheme)| VariantSpec::new(name, scheme, metric, first.backend))
        })
        .collect();
    let seeds = seed_range(spec.base_seed, spec.replications);
    let grid = run_grid(&cells, &seeds, &variants, spec.threads);
    let mut rows = Vec::new();
    for (mi, &(_, metric)) in METRICS.iter().enumerate() {
        for (&(mob_name, _), by_size) in spec
            .mobilities
            .iter()
            .zip(grid.chunks_exact(spec.sizes.len()))
        {
            for (si, (scheme_name, _)) in schemes().into_iter().enumerate() {
                let vi = mi * schemes().len() + si;
                for (&n, cell) in spec.sizes.iter().zip(by_size) {
                    let s = summarize(&cell[vi], SimReport::total_overhead);
                    rows.push(CompareRow {
                        metric,
                        mobility: mob_name,
                        scheme: scheme_name,
                        n,
                        mean: s.mean,
                        ci95: s.ci95(),
                    });
                }
            }
        }
    }
    rows
}

/// Canonical JSON for a row list (hand-rolled; the workspace carries no
/// serde). Stable key order, one row per line, one row array per metric:
/// `rows` for the Euclidean banks, `hier_routing_rows` for the others.
pub fn rows_json(spec: &CompareSpec, rows: &[CompareRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"spec\": {{\"sizes\": {:?}, \"replications\": {}, \"base_seed\": {}, \
         \"duration\": {}, \"warmup\": {}, \"metric\": \"phi+gamma pkts/node/s\"}},\n",
        spec.sizes,
        spec.replications,
        spec.base_seed,
        jf(spec.duration),
        jf(spec.warmup),
    ));
    let arrays: Vec<String> = METRICS
        .iter()
        .map(|&(key, metric)| {
            let rows = rows.iter().filter(|r| r.metric == metric).map(|r| {
                format!(
                    "{{\"mobility\": \"{}\", \"scheme\": \"{}\", \"n\": {}, \"mean\": {}, \"ci95\": {}}}",
                    r.mobility,
                    r.scheme,
                    r.n,
                    jf(r.mean),
                    jf(r.ci95),
                )
            });
            json_array(key, rows)
        })
        .collect();
    out.push_str(&arrays.join(",\n"));
    out.push_str("\n}\n");
    out
}

/// Render one φ+γ table per mobility model for the rows priced under
/// `metric`: a row per n, a (mean, ci95) column pair per scheme, plus
/// overhead ratios against CHLM.
fn render_tables(spec: &CompareSpec, rows: &[CompareRow], metric: HopMetric) -> String {
    let mut out = String::new();
    for &(mob_name, _) in &spec.mobilities {
        let mut headers = vec!["n".to_string()];
        for (scheme_name, _) in schemes() {
            headers.push(format!("{scheme_name} (pkt/node/s)"));
            headers.push(format!("{scheme_name}_ci95"));
        }
        headers.push("gls/chlm".to_string());
        headers.push("home/chlm".to_string());
        let mut t = TextTable::new(headers);
        for &n in &spec.sizes {
            let cell = |scheme: &str| -> &CompareRow {
                rows.iter()
                    .find(|r| {
                        r.metric == metric
                            && r.mobility == mob_name
                            && r.scheme == scheme
                            && r.n == n
                    })
                    .expect("run_compare covers the full grid")
            };
            let (chlm, gls, home) = (cell("chlm"), cell("gls"), cell("home"));
            t.row(vec![
                format!("{n}"),
                fnum(chlm.mean),
                fnum(chlm.ci95),
                fnum(gls.mean),
                fnum(gls.ci95),
                fnum(home.mean),
                fnum(home.ci95),
                fnum(gls.mean / chlm.mean.max(1e-12)),
                fnum(home.mean / chlm.mean.max(1e-12)),
            ]);
        }
        out.push_str(&format!("mobility = {mob_name}:\n{}\n", t.render()));
    }
    out
}

/// E24: φ+γ (packets per node per second, mean ± ci95) per (mobility, n,
/// scheme) for CHLM, per-band GLS and the home agent, for n ∈ {256 ..
/// CHLM_MAX_N} × {random walk, random waypoint, RPGM}, priced by the
/// calibrated Euclidean estimate and then along the hierarchical
/// cluster-routing paths the paper's protocol would use
/// (`HopMetric::HierRouting`, the §2.1 stretch). One world per (mobility,
/// n, seed) feeds all six banks, and the three HierRouting banks share one
/// routing table per tick. `--smoke` runs the bounded CI spec (n = 256,
/// 1 seed, all schemes, both metrics, all mobilities).
pub(crate) fn exp_lm_compare(smoke: bool) {
    let spec = if smoke {
        CompareSpec::smoke(threads())
    } else {
        CompareSpec::from_env()
    };
    println!("== E24: LM scheme comparison (chlm vs gls vs home agent) ==");
    println!(
        "sizes {:?}, {} replications, {}s measured, {} threads{} [shared-world multiplexer]\n",
        spec.sizes,
        spec.replications,
        spec.duration,
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let started = Instant::now();
    let rows = run_compare(&spec);
    let elapsed = started.elapsed();
    for (_, metric) in METRICS {
        println!("-- hops priced by HopMetric::{metric:?} --\n");
        print!("{}", render_tables(&spec, &rows, metric));
    }
    println!(
        "wall clock: {:.3}s (multiplexed: one world per (mobility, n, seed), 3 schemes x 2 metrics fanned out)",
        elapsed.as_secs_f64(),
    );
    println!("notes:");
    println!("- phi+gamma in packet transmissions per node per second; every scheme");
    println!("  runs over the byte-identical world trace per seed (scheme_trace.rs);");
    println!("- gls: per-band grid servers (HRW in each sibling square), priced as");
    println!("  server-churn transfers + distance-triggered updates;");
    println!("- home: one static HRW rendezvous node per mobile, one update per");
    println!("  level-1 cluster change — the flat baseline of the paper's argument;");
    println!("- chlm: the §4 handoff ledger (transfer + registration cascade);");
    println!("- HierRouting charges hops along the level-wise cluster-routing paths");
    println!("  instead of the calibrated Euclidean estimate: stretch > 1 raises");
    println!("  every scheme, so read the scheme ordering within one metric.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_spec_is_pinned() {
        let s = CompareSpec::golden();
        assert_eq!(s.sizes, vec![256]);
        assert_eq!(s.replications, 2);
        assert_eq!(s.base_seed, 24_000);
        assert_eq!(s.mobilities.len(), 2);
    }

    #[test]
    fn hier_routing_spec_produces_rows() {
        let mut spec = CompareSpec::golden();
        spec.sizes = vec![64];
        spec.duration = 1.0;
        spec.warmup = 0.2;
        spec.replications = 1;
        let rows = run_compare(&spec);
        let per_metric = spec.mobilities.len() * schemes().len();
        assert_eq!(rows.len(), METRICS.len() * per_metric);
        let hier = rows.iter().filter(|r| r.metric == HopMetric::HierRouting);
        assert_eq!(hier.count(), per_metric);
        assert!(rows.iter().all(|r| r.mean > 0.0));
    }

    #[test]
    fn json_is_stable_shape() {
        let spec = CompareSpec::golden();
        let rows = vec![CompareRow {
            metric: HopMetric::HierRouting,
            mobility: "walk",
            scheme: "chlm",
            n: 256,
            mean: 1.5,
            ci95: 0.25,
        }];
        let json = rows_json(&spec, &rows);
        assert!(json.contains("\"mean\": 1.5"));
        assert!(json.contains("\"ci95\": 0.25"));
        assert!(json.contains("  \"rows\": [\n  ],\n  \"hier_routing_rows\": [\n    {"));
        assert!(json.ends_with("]\n}\n"));
    }
}
