//! E20 (§6 / companion \[16\]): cluster-maintenance overhead.
//!
//! The conclusion cites \[16\] for "cluster maintenance … incur\[s\] packet
//! transmission counts that are only logarithmic in |V|". We price the
//! standard beaconing scheme on *measured* hierarchies (real `d_k`, `h_k`,
//! `|V_k|` rather than the idealized uniform arity) and fit the per-node
//! total across sizes.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, print_fits, replications, sweep_sizes, Deployment, MetricSeries};
use chlm_cluster::maintenance::price_maintenance;
use chlm_cluster::metrics::level_stats;
use chlm_cluster::HierarchyOptions;
use chlm_geom::SimRng;

fn main() {
    banner("E20 / [16]", "cluster-maintenance beaconing overhead vs n");
    let beacon_rate = 1.0; // level-0 HELLO at 1 Hz
    let reps = replications().max(4);

    let mut series = MetricSeries::new("maintenance");
    let mut table = TextTable::new(vec!["n", "pkts/node/s", "ci95", "L", "lvl0 share %"]);
    for &n in &sweep_sizes() {
        let mut totals = Vec::new();
        let mut depth_sum = 0usize;
        let mut lvl0_share = 0.0;
        for r in 0..reps {
            let mut rng = SimRng::seed_from(20_000 + n as u64 + 7 * r as u64);
            let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
            let stats = level_stats(&h, 6, &mut rng);
            let (costs, total) = price_maintenance(&stats, beacon_rate);
            totals.push(total);
            depth_sum += h.depth() - 1;
            lvl0_share += costs[0].per_node_per_second / total / reps as f64;
        }
        let s = Summary::of(&totals).unwrap();
        table.row(vec![
            format!("{n}"),
            fnum(s.mean),
            fnum(s.ci95()),
            fnum(depth_sum as f64 / reps as f64),
            fnum(lvl0_share * 100.0),
        ]);
        series.push(n, s.mean, s.ci95());
    }
    println!("{}", table.render());
    print_fits(&series, ModelClass::LogN);
    println!("each level prices at Θ(1) per node (beacon rate 1/h_k × d_k·h_k packets");
    println!("amortized over c_k members), so the total tracks the level count L.");
}
