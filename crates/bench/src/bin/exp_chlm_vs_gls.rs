//! E13 (§3.1 vs §3.2): CHLM against the GLS baseline it adapts.
//!
//! One world per (n, seed), two LM systems priced against it as observer
//! banks: CHLM's handoff overhead (φ + γ) versus the GLS scheme's
//! maintenance overhead (distance-triggered updates + server-churn
//! transfers), plus CHLM query cost and server-load balance.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{
    banner, env_usize, mean, mean_of, replications, scaling_sizes, standard_config, threads,
    Deployment, MIN_N,
};
use chlm_cluster::HierarchyOptions;
use chlm_geom::{Region, SimRng};
use chlm_lm::gls::{gls_resolve, GlsAssignment, GridHierarchy};
use chlm_lm::query::resolve;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_grid, LmScheme, SimConfig, SimReport, VariantSpec};

fn main() {
    banner("E13 / §3", "CHLM vs GLS LM maintenance overhead");
    let sizes = scaling_sizes(MIN_N, env_usize("CHLM_MAX_N", 1024, MIN_N).min(1024));
    let cells: Vec<SimConfig> = sizes
        .iter()
        .map(|&n| {
            let mut cfg = standard_config(n);
            cfg.query_rate = 1.0;
            cfg
        })
        .collect();
    let variants: Vec<VariantSpec> = [("chlm", LmScheme::Chlm), ("gls", LmScheme::Gls)]
        .into_iter()
        .map(|(name, scheme)| VariantSpec::new(name, scheme, cells[0].hop_metric, cells[0].backend))
        .collect();
    // grid[size][bank] = that bank's replications; bank 0 = chlm, 1 = gls.
    let grid = run_grid(
        &cells,
        &seed_range(13_000, replications()),
        &variants,
        threads(),
    );
    let query_cost = |r: &SimReport| -> f64 {
        r.query
            .as_ref()
            .and_then(|q| q.mean_packets_per_lookup())
            .unwrap_or(0.0)
    };

    let mut t = TextTable::new(vec![
        "n",
        "chlm (pkt/node/s)",
        "gls (pkt/node/s)",
        "gls/chlm",
        "chlm query (pkts)",
    ]);
    for (&n, banks) in sizes.iter().zip(&grid) {
        let chlm = mean_of(&banks[0], SimReport::total_overhead);
        let gls = mean_of(&banks[1], SimReport::total_overhead);
        t.row(vec![
            format!("{n}"),
            fnum(chlm),
            fnum(gls),
            fnum(gls / chlm.max(1e-12)),
            fnum(mean_of(&banks[0], query_cost)),
        ]);
    }
    println!("{}", t.render());

    // Query-cost comparison on identical static snapshots and pairs.
    let mut qt = TextTable::new(vec!["n", "chlm query (pkts)", "gls query (pkts)"]);
    for &n in &sizes {
        let mut rng = SimRng::seed_from(13_500 + n as u64);
        let d = Deployment::draw(n, &mut rng);
        let h = d.hierarchy(HierarchyOptions::default());
        let chlm_asn = LmAssignment::compute(&h, SelectionRule::Hrw);
        let (lo, hi) = d.region.bounding_box();
        let grid = GridHierarchy::covering(chlm_geom::Rect::new(lo, hi), d.rtx * 2.0);
        let gls_asn = GlsAssignment::compute(&grid, &d.pts, &d.ids);
        let hop = |a: u32, b: u32| d.hops(a, b);
        let (mut chlm_pkts, mut gls_pkts) = (Vec::new(), Vec::new());
        for _ in 0..80 {
            let s = rng.index(n) as u32;
            let t = rng.index(n) as u32;
            if let Some(q) = resolve(&h, &chlm_asn, s, t, hop) {
                chlm_pkts.push(q.packets);
            }
            if let Some(c) = gls_resolve(&grid, &gls_asn, &d.pts, s, t, hop) {
                gls_pkts.push(c);
            }
        }
        qt.row(vec![
            format!("{n}"),
            fnum(mean(chlm_pkts)),
            fnum(mean(gls_pkts)),
        ]);
    }
    println!("query cost on identical static snapshots (same pairs, same oracle):");
    println!("{}", qt.render());
    println!("notes:");
    println!("- both systems priced in packet transmissions (entries x hops);");
    println!("- GLS (the `LmScheme::Gls` bank, HRW-selected servers) charges");
    println!("  distance-triggered updates (feature (c)) plus server churn");
    println!("  transfers; CHLM charges handoff (phi + gamma); both banks price");
    println!("  the same world trace per (n, seed);");
    println!("- chlm query: mean packets per resolved lookup at 1 lookup/node/s;");
    println!("- comparable magnitudes at matched mobility support §3.2's argument");
    println!("  that CHLM achieves GLS-like LM economics on a clustered hierarchy.");
}
