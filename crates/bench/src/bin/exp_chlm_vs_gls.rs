//! E13 (§3.1 vs §3.2): CHLM against the GLS baseline it adapts.
//!
//! One world per (n, seed), two LM systems priced against it as observer
//! banks: CHLM's handoff overhead (φ + γ) versus the GLS scheme's
//! maintenance overhead (distance-triggered updates + server-churn
//! transfers), plus CHLM query cost and server-load balance.

use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, replications, standard_config, threads};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, Region, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_lm::gls::{gls_resolve, GlsAssignment, GridHierarchy};
use chlm_lm::query::resolve;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_sweep, LmScheme, SimReport, SweepJob, VariantSpec};

fn main() {
    banner("E13 / §3", "CHLM vs GLS LM maintenance overhead");
    let max = env_usize("CHLM_MAX_N", 1024).min(1024);
    let sizes: Vec<usize> = chlm_core::scenario::scaling_sizes(max);
    let reps = replications();
    let mut jobs = Vec::new();
    for &n in &sizes {
        let mut cfg = standard_config(n);
        cfg.query_rate = 1.0;
        let variants: Vec<VariantSpec> = [("chlm", LmScheme::Chlm), ("gls", LmScheme::Gls)]
            .into_iter()
            .map(|(name, scheme)| VariantSpec::new(name, scheme, cfg.hop_metric, cfg.backend))
            .collect();
        for seed in seed_range(13_000, reps) {
            jobs.push(SweepJob {
                cfg: cfg.clone(),
                seed,
                variants: variants.clone(),
            });
        }
    }
    let grid = run_sweep(&jobs, threads());
    // Mean over the replications of size `si` of `metric` on bank `vi`
    // (job index = size · replications + rep; bank 0 = chlm, 1 = gls).
    let mean = |si: usize, vi: usize, metric: &dyn Fn(&SimReport) -> f64| -> f64 {
        let xs: Vec<f64> = (0..reps)
            .map(|rep| metric(&grid[si * reps + rep][vi]))
            .collect();
        Summary::of(&xs).map_or(f64::NAN, |s| s.mean)
    };
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
    for (si, &n) in sizes.iter().enumerate() {
        let chlm = mean(si, 0, &SimReport::total_overhead);
        let gls = mean(si, 1, &SimReport::total_overhead);
        t.row(vec![
            format!("{n}"),
            fnum(chlm),
            fnum(gls),
            fnum(gls / chlm.max(1e-12)),
            fnum(mean(si, 0, &query_cost)),
        ]);
    }
    println!("{}", t.render());

    // Query-cost comparison on identical static snapshots and pairs.
    let mut qt = TextTable::new(vec!["n", "chlm query (pkts)", "gls query (pkts)"]);
    let density = 1.25;
    let rtx = chlm_geom::rtx_for_degree(9.0, density);
    for &n in &sizes {
        let mut rng = SimRng::seed_from(13_500 + n as u64);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        let ids = rng.permutation(n);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let chlm_asn = LmAssignment::compute(&h, SelectionRule::Hrw);
        let (lo, hi) = region.bounding_box();
        let grid = GridHierarchy::covering(chlm_geom::Rect::new(lo, hi), rtx * 2.0);
        let gls_asn = GlsAssignment::compute(&grid, &pts, &ids);
        let hop = |a: u32, b: u32| (pts[a as usize].dist(pts[b as usize]) / rtx * 1.3).max(1.0);
        let mut chlm_sum = 0.0;
        let mut chlm_n = 0usize;
        let mut gls_sum = 0.0;
        let mut gls_n = 0usize;
        for _ in 0..80 {
            let s = rng.index(n) as u32;
            let d = rng.index(n) as u32;
            if let Some(q) = resolve(&h, &chlm_asn, s, d, hop) {
                chlm_sum += q.packets;
                chlm_n += 1;
            }
            if let Some(c) = gls_resolve(&grid, &gls_asn, &pts, s, d, hop) {
                gls_sum += c;
                gls_n += 1;
            }
        }
        qt.row(vec![
            format!("{n}"),
            fnum(if chlm_n > 0 {
                chlm_sum / chlm_n as f64
            } else {
                f64::NAN
            }),
            fnum(if gls_n > 0 {
                gls_sum / gls_n as f64
            } else {
                f64::NAN
            }),
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
