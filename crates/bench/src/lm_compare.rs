//! E24 core: the three-scheme LM comparison on identical traces.
//!
//! Lives in the library (not the `exp_lm_compare` binary) so the golden
//! snapshot test can run the *same* sweep code the experiment runs: one
//! [`CompareSpec`] → one deterministic [`CompareRow`] list → one canonical
//! JSON rendering. Every scheme at a given (mobility, n, seed) sees the
//! byte-identical world trace — `base_seed` is shared and the scheme only
//! swaps the accounting observer (pinned by `chlm-sim`'s
//! `tests/scheme_trace.rs`).

use crate::summarize;
use chlm_analysis::table::{fnum, TextTable};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_grid, HopMetric, LmScheme, MobilityKind, SimConfig, SimReport, VariantSpec};

/// The schemes under comparison, in report order.
pub fn schemes() -> [(&'static str, LmScheme); 3] {
    [
        ("chlm", LmScheme::Chlm),
        ("gls", LmScheme::Gls),
        ("home", LmScheme::HomeAgent),
    ]
}

/// The mobility models of the full E24 sweep.
pub fn mobility_models() -> Vec<(&'static str, MobilityKind)> {
    vec![
        ("walk", MobilityKind::Walk),
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
    pub sizes: Vec<usize>,
    pub replications: usize,
    pub base_seed: u64,
    pub threads: usize,
    pub duration: f64,
    pub warmup: f64,
    /// Extend warmup to two region crossings (the `standard_config`
    /// mixing rule) — on for the full experiment, off for the bounded
    /// smoke/golden runs.
    pub crossing_warmup: bool,
    pub mobilities: Vec<(&'static str, MobilityKind)>,
    /// How hops are priced. `EuclideanCalibrated` (the `SimConfig`
    /// default) for E24; `HierRouting` for the E25 re-sweep.
    pub hop_metric: HopMetric,
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

    /// The CI smoke spec: n = 256, 1 seed, all three mobilities.
    pub fn smoke(threads: usize) -> Self {
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
    pub mobility: &'static str,
    pub scheme: &'static str,
    pub n: usize,
    pub mean: f64,
    pub ci95: f64,
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

/// Shortest-roundtrip float rendering (`{:?}`): deterministic, parses
/// back to the identical bits — what the golden file pins.
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no NaN/inf; a sweep can only produce them from a bug.
        "null".to_string()
    }
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
pub fn render_tables(spec: &CompareSpec, rows: &[CompareRow]) -> String {
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
