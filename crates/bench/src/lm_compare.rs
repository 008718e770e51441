//! E24 and E25: the three-scheme LM comparison on identical traces, priced
//! by the calibrated Euclidean estimate (E24) and along hierarchical routes
//! (E25).
//!
//! The sweep is public so the golden snapshot test runs the *same* code
//! the two records run: one [`CompareSpec`] → one deterministic
//! [`CompareRow`] list → one canonical JSON rendering. Every scheme at a
//! given (mobility, n, seed) sees the byte-identical world trace — `base_seed` is shared and the scheme only
//! swaps the accounting observer (pinned by `chlm-sim`'s
//! `tests/scheme_trace.rs`).

use crate::{
    env_usize, jf, measured_seconds, replications, scaling_sizes, summarize, threads,
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
    /// How hops are priced. `EuclideanCalibrated` (the `SimConfig`
    /// default) for E24; `HierRouting` for the E25 re-sweep.
    hop_metric: HopMetric,
}

impl CompareSpec {
    /// The fixed golden-snapshot spec: n = 256, 2 seeds, walk + waypoint.
    /// Changing any of these regenerates different numbers — keep in sync
    /// with `tests/golden/lm_compare_n256.json`.
    pub fn golden() -> Self {
        CompareSpec {
            sizes: vec![256],
            replications: 2,
            base_seed: 24_000,
            threads: 2,
            duration: 2.0,
            warmup: 1.0,
            crossing_warmup: false,
            mobilities: mobility_models()
                .into_iter()
                .filter(|(name, _)| *name != "rpgm")
                .collect(),
            hop_metric: HopMetric::EuclideanCalibrated,
        }
    }

    /// The full E24/E25 grid from the `CHLM_*` knobs: n = 256 doubling to
    /// `CHLM_MAX_N` (default 4096), all three mobilities, warmup extended
    /// to two region crossings.
    fn from_env() -> Self {
        CompareSpec {
            sizes: scaling_sizes(256, env_usize("CHLM_MAX_N", 4096, 256)),
            replications: replications(),
            base_seed: 24_000,
            threads: threads(),
            duration: measured_seconds(8.0),
            warmup: warmup_seconds(6.0),
            crossing_warmup: true,
            mobilities: mobility_models(),
            hop_metric: HopMetric::EuclideanCalibrated,
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
            hop_metric: HopMetric::EuclideanCalibrated,
        }
    }

    /// The per-scheme config at one (mobility, n) grid cell.
    fn config_for(&self, n: usize, mobility: MobilityKind, scheme: LmScheme) -> SimConfig {
        let mut cfg = SimConfig::builder(n)
            .duration(self.duration)
            .warmup(self.warmup)
            .mobility(mobility)
            .lm_scheme(scheme)
            .hop_metric(self.hop_metric)
            .build();
        if self.crossing_warmup {
            let crossing = cfg.region_radius() / cfg.speed;
            cfg.warmup = cfg.warmup.max(2.0 * crossing);
        }
        cfg
    }
}

/// One (mobility, scheme, n) cell: φ+γ in packets per node per second,
/// mean ± ci95 over the spec's replications.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    mobility: &'static str,
    scheme: &'static str,
    n: usize,
    mean: f64,
    ci95: f64,
}

/// Run the full comparison through the shared-world multiplexer: one
/// world per (mobility, n, seed) grid cell, all three schemes priced
/// against it as observer banks ([`chlm_sim::run_grid`]: one ticket pool
/// over every world-run). Rows are ordered mobility → scheme → n; the
/// fan-out reproduces each standalone report exactly (`chlm-sim`'s
/// `tests/multiplex_equivalence.rs`).
pub fn run_compare(spec: &CompareSpec) -> Vec<CompareRow> {
    // Cells in mobility → n order; the world never reads the scheme axis.
    let cells: Vec<SimConfig> = spec
        .mobilities
        .iter()
        .flat_map(|&(_, mobility)| {
            spec.sizes
                .iter()
                .map(move |&n| spec.config_for(n, mobility, LmScheme::Chlm))
        })
        .collect();
    let Some(first) = cells.first() else {
        return Vec::new();
    };
    let variants: Vec<VariantSpec> = schemes()
        .iter()
        .map(|&(name, scheme)| VariantSpec::new(name, scheme, spec.hop_metric, first.backend))
        .collect();
    let seeds = seed_range(spec.base_seed, spec.replications);
    let grid = run_grid(&cells, &seeds, &variants, spec.threads);
    let mut rows = Vec::new();
    for (&(mob_name, _), by_size) in spec
        .mobilities
        .iter()
        .zip(grid.chunks_exact(spec.sizes.len()))
    {
        for (vi, (scheme_name, _)) in schemes().into_iter().enumerate() {
            for (&n, cell) in spec.sizes.iter().zip(by_size) {
                let s = summarize(&cell[vi], SimReport::total_overhead);
                rows.push(CompareRow {
                    mobility: mob_name,
                    scheme: scheme_name,
                    n,
                    mean: s.mean,
                    ci95: s.ci95(),
                });
            }
        }
    }
    rows
}

/// Canonical JSON for a row list (hand-rolled; the workspace carries no
/// serde). Stable key order, one row per line.
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
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"mobility\": \"{}\", \"scheme\": \"{}\", \"n\": {}, \"mean\": {}, \"ci95\": {}}}{}\n",
            r.mobility,
            r.scheme,
            r.n,
            jf(r.mean),
            jf(r.ci95),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render one φ+γ table per mobility model: a row per n, a (mean, ci95)
/// column pair per scheme, plus overhead ratios against CHLM.
fn render_tables(spec: &CompareSpec, rows: &[CompareRow]) -> String {
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
                    .find(|r| r.mobility == mob_name && r.scheme == scheme && r.n == n)
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
/// CHLM_MAX_N} × {random walk, random waypoint, RPGM}. `--smoke` runs the
/// bounded CI spec (n = 256, 1 seed, all schemes, all mobilities).
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
    print!("{}", render_tables(&spec, &rows));
    println!(
        "wall clock: {:.3}s (multiplexed: one world per (mobility, n, seed), 3 schemes fanned out)",
        elapsed.as_secs_f64(),
    );
    println!("notes:");
    println!("- phi+gamma in packet transmissions per node per second; every scheme");
    println!("  runs over the byte-identical world trace per seed (scheme_trace.rs);");
    println!("- gls: per-band grid servers (HRW in each sibling square), priced as");
    println!("  server-churn transfers + distance-triggered updates;");
    println!("- home: one static HRW rendezvous node per mobile, one update per");
    println!("  level-1 cluster change — the flat baseline of the paper's argument;");
    println!("- chlm: the §4 handoff ledger (transfer + registration cascade).");
}

/// E25: the E24 three-scheme comparison re-priced under
/// `HopMetric::HierRouting` — hops charged along the hierarchical
/// cluster-routing paths the paper's protocol would actually use, not the
/// calibrated Euclidean estimate.
///
/// This is the headline re-sweep the shared-world multiplexer pays for:
/// the hierarchical routing table is built once per tick per world and
/// shared by all three scheme banks (one `with_pricer` scope per metric
/// group), so the re-sweep costs roughly one world-run where per-scheme
/// runs would cost three plus three table builds.
///
/// Same grid and knobs as E24 (`CHLM_MAX_N`, `CHLM_SEEDS`,
/// `CHLM_DURATION`, `CHLM_WARMUP`, `--smoke`); only the pricing differs.
pub(crate) fn exp_hier_resweep(smoke: bool) {
    let mut spec = if smoke {
        CompareSpec::smoke(threads())
    } else {
        CompareSpec::from_env()
    };
    spec.hop_metric = HopMetric::HierRouting;
    println!("== E25: LM scheme comparison under hierarchical-routing pricing ==");
    println!(
        "sizes {:?}, {} replications, {}s measured, {} threads{}\n",
        spec.sizes,
        spec.replications,
        spec.duration,
        spec.threads,
        if smoke { " [smoke]" } else { "" }
    );
    let started = Instant::now();
    let rows = run_compare(&spec);
    print!("{}", render_tables(&spec, &rows));
    println!(
        "wall clock: {:.3}s (multiplexed; routing table shared per world)",
        started.elapsed().as_secs_f64()
    );
    println!("notes:");
    println!("- identical grid and traces to E24; hops priced along the level-wise");
    println!("  cluster-routing paths (HopMetric::HierRouting) instead of the");
    println!("  calibrated Euclidean estimate — stretch > 1 raises every scheme;");
    println!("- the three schemes share one world and one routing table per tick");
    println!("  (the multiplexer's per-metric pricer group), so this re-sweep adds");
    println!("  ~1 world-run of cost to the E24 study instead of ~3;");
    println!("- scheme ordering (chlm >> gls > home in dense walk/waypoint; rpgm");
    println!("  closing the gap) should be read against E24's Euclidean tables.");
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
        assert_eq!(s.hop_metric, HopMetric::EuclideanCalibrated);
    }

    #[test]
    fn hier_routing_spec_produces_rows() {
        let mut spec = CompareSpec::golden();
        spec.sizes = vec![64];
        spec.duration = 1.0;
        spec.warmup = 0.2;
        spec.replications = 1;
        spec.hop_metric = HopMetric::HierRouting;
        let rows = run_compare(&spec);
        assert_eq!(rows.len(), spec.mobilities.len() * schemes().len());
        assert!(rows.iter().all(|r| r.mean > 0.0));
    }

    #[test]
    fn json_is_stable_shape() {
        let spec = CompareSpec::golden();
        let rows = vec![CompareRow {
            mobility: "walk",
            scheme: "chlm",
            n: 256,
            mean: 1.5,
            ci95: 0.25,
        }];
        let json = rows_json(&spec, &rows);
        assert!(json.contains("\"mean\": 1.5"));
        assert!(json.contains("\"ci95\": 0.25"));
        assert!(json.ends_with("]\n}\n"));
    }
}
