//! E14 (§3.2 ablation): the hashing function matters.
//!
//! §3.2: "The hashing function of (5) can not be used here as it would
//! result in a disproportionately large number of nodes … selecting 45" —
//! i.e. GLS's successor rule piles load onto the minimum-ID member of a
//! cluster. We quantify the skew of eq. (5) against our size-weighted
//! rendezvous hashing on identical hierarchies.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, sweep_sizes, Deployment};
use chlm_cluster::HierarchyOptions;
use chlm_geom::SimRng;
use chlm_lm::server::{LmAssignment, SelectionRule};

fn gini(loads: &[u32]) -> f64 {
    // Gini coefficient of the load distribution (0 = perfectly even).
    let mut xs: Vec<f64> = loads.iter().map(|&c| c as f64).collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

fn main() {
    banner(
        "E14 / §3.2",
        "server-selection hash ablation: HRW vs eq. (5)",
    );
    let mut t = TextTable::new(vec![
        "n",
        "hrw max/mean",
        "hrw gini",
        "mod max/mean",
        "mod gini",
        "mod hottest load",
    ]);
    for &n in &sweep_sizes() {
        let mut rng = SimRng::seed_from(14_000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());

        let hrw = LmAssignment::compute(&h, SelectionRule::Hrw).entries_hosted();
        let modr = LmAssignment::compute(&h, SelectionRule::ModSuccessor { id_space: n as u64 })
            .entries_hosted();
        let mean = chlm_bench::mean(hrw.iter().map(|&c| c as f64));
        let ratio = |loads: &[u32]| *loads.iter().max().unwrap() as f64 / mean.max(1e-12);
        t.row(vec![
            format!("{n}"),
            fnum(ratio(&hrw)),
            fnum(gini(&hrw)),
            fnum(ratio(&modr)),
            fnum(gini(&modr)),
            format!("{}", modr.iter().max().unwrap()),
        ]);
    }
    println!("{}", t.render());
    println!("expected: eq. (5)'s successor rule shows markedly higher max/mean and");
    println!("Gini than size-weighted rendezvous hashing — the inequity §3.2 warns of.");
}
