//! E1 (paper Fig. 1): the clustered hierarchy itself.
//!
//! Builds LCA hierarchies over static uniform deployments at increasing
//! sizes and prints, per level: `|V_k|`, `|E_k|`, arity `α_k`, aggregation
//! `c_k`, mean degree `d_k` and measured intra-cluster hop count `h_k` —
//! then checks that the hierarchy depth `L` grows logarithmically in `n`
//! (the `L = Θ(log |V|)` premise used throughout the paper).

use chlm_analysis::regression::ModelClass;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, print_fits, sweep_sizes, Deployment, MetricSeries};
use chlm_cluster::metrics::{format_stats_table, level_stats};
use chlm_cluster::HierarchyOptions;
use chlm_geom::SimRng;

fn main() {
    banner("E1 / Fig. 1", "LCA clustered hierarchy structure");
    let sizes = sweep_sizes();
    let mut depth_series = MetricSeries::new("depth");
    let mut arity_table = TextTable::new(vec!["n", "L", "mean_alpha", "mean_d1", "top_|V_L|"]);

    let seeds = chlm_bench::replications().max(8);
    for &n in &sizes {
        // Representative deployment for the per-level table…
        let mut rng = SimRng::seed_from(1000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
        let stats = level_stats(&h, 6, &mut rng);

        println!("--- n = {n} ---");
        print!("{}", format_stats_table(&stats));
        println!();

        // …and depth averaged over independent deployments (single-sample
        // depth is dominated by the noisy near-unit-arity tail of the LCA).
        let mut depth_sum = 0.0;
        for s in 0..seeds {
            let mut rng = SimRng::seed_from(1000 + n as u64 + 31 * s as u64);
            let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
            depth_sum += (h.depth() - 1) as f64;
        }
        let mean_depth = depth_sum / seeds as f64;

        let arities: Vec<f64> = stats.iter().skip(1).map(|s| s.arity).collect();
        let mean_alpha = arities.iter().sum::<f64>() / arities.len().max(1) as f64;
        arity_table.row(vec![
            format!("{n}"),
            fnum(mean_depth),
            fnum(mean_alpha),
            fnum(stats.get(1).map_or(0.0, |s| s.mean_degree)),
            format!("{}", stats.last().unwrap().nodes),
        ]);
        depth_series.push(n, mean_depth, 0.0);
    }

    println!("{}", arity_table.render());
    print_fits(&depth_series, ModelClass::LogN);
}
