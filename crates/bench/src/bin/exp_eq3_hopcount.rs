//! E4 (eq. 3): `h_k = Θ(√c_k)`.
//!
//! Static deployments at several sizes; per hierarchy level we measure the
//! mean intra-cluster hop count `h_k` and print the ratio `h_k / √c_k`,
//! which eq. (3) predicts to be roughly constant across levels and sizes.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, mean, sweep_sizes, Deployment};
use chlm_cluster::metrics::level_stats;
use chlm_cluster::HierarchyOptions;
use chlm_geom::SimRng;

fn main() {
    banner(
        "E4 / eq. (3)",
        "intra-cluster hop count vs sqrt aggregation",
    );
    let mut t = TextTable::new(vec![
        "n",
        "level",
        "c_k",
        "sqrt(c_k)",
        "h_k",
        "h_k/sqrt(c_k)",
    ]);
    let mut ratios = Vec::new();

    for &n in &sweep_sizes() {
        let mut rng = SimRng::seed_from(4000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
        let stats = level_stats(&h, 10, &mut rng);
        for s in stats.iter().filter(|s| s.level >= 1 && s.nodes >= 3) {
            if let Some(hk) = s.intra_cluster_hops {
                let ratio = hk / s.aggregation.sqrt();
                ratios.push(ratio);
                t.row(vec![
                    format!("{n}"),
                    format!("{}", s.level),
                    fnum(s.aggregation),
                    fnum(s.aggregation.sqrt()),
                    fnum(hk),
                    fnum(ratio),
                ]);
            }
        }
    }
    println!("{}", t.render());
    let mean = mean(ratios.iter().copied());
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "h_k/sqrt(c_k): mean = {mean:.3}, spread = [{min:.3}, {max:.3}] ({} cells)",
        ratios.len()
    );
    println!(
        "eq. (3) claim (ratio ~ constant): {}",
        if max / min < 3.0 {
            "HOLDS (spread < 3x across all levels/sizes)"
        } else {
            "WEAK"
        }
    );
}
