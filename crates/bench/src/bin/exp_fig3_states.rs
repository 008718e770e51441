//! E3 (paper Fig. 3): the ALCA state machine, measured.
//!
//! Runs the mobile simulation and compares the empirical level-0 elector
//! state distribution against the independent-voter (binomial) birth–death
//! prediction, and reports the adjacent-transition violation rate — a
//! deviation the paper's idealized chain does not model (a newly arrived
//! higher-ID neighbor steals *all* electors at once).

use chlm_analysis::markov::{binomial_occupancy, rank_mixture_occupancy, total_variation};
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, mean_of, mean_some, standard_sweep, MIN_N};

fn main() {
    banner(
        "E3 / Fig. 3",
        "ALCA state occupancy vs birth-death prediction",
    );
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(1024);
    let reports = &standard_sweep(&[n], 3000)[0];

    // Pool level-0 distributions across replications.
    let max_state = reports
        .iter()
        .map(|r| r.state.distributions[0].len())
        .max()
        .unwrap_or(0);
    let mut pooled = vec![0.0; max_state];
    for r in reports {
        for (s, &p) in r.state.distributions[0].iter().enumerate() {
            pooled[s] += p / reports.len() as f64;
        }
    }
    // Binomial fit: match the empirical mean elector count.
    let mean_degree = mean_of(reports, |r| r.mean_degree);
    let mean_state: f64 = pooled.iter().enumerate().map(|(s, &p)| s as f64 * p).sum();
    let d = mean_degree.round().max(1.0) as usize;
    let q = (mean_state / d as f64).clamp(0.0, 1.0);
    let binomial = binomial_occupancy(d, q);
    // Rank-mixture model: election probability depends on ID rank (a
    // binomial with the same mean badly underestimates the state-0 mass).
    let mixture = rank_mixture_occupancy(d, 256);

    let mut t = TextTable::new(vec!["state", "measured", "rank-mixture", "binomial(d,q)"]);
    for s in 0..pooled.len().min(12) {
        t.row(vec![
            format!("{s}"),
            fnum(pooled[s]),
            fnum(mixture.get(s).copied().unwrap_or(0.0)),
            fnum(binomial.get(s).copied().unwrap_or(0.0)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "model fit (total-variation distance): rank-mixture = {:.3}, binomial = {:.3}",
        total_variation(&pooled, &mixture),
        total_variation(&pooled, &binomial)
    );
    println!("(d = {d}, q = {q:.3})");

    // p_j per level (feeds E11) and the adjacent-transition check.
    let mut lt = TextTable::new(vec!["level", "p_state1", "multi_jump_frac"]);
    let depth = reports.iter().map(|r| r.state.p1.len()).max().unwrap();
    for k in 0..depth {
        let p1 = mean_some(reports, |r| r.state.p1.get(k).copied().flatten());
        let mj = mean_some(reports, |r| {
            r.state.multi_jump_fraction.get(k).copied().flatten()
        });
        lt.row(vec![format!("{k}"), fnum(p1), fnum(mj)]);
    }
    println!("{}", lt.render());
    println!("note: multi-state jumps are the 'usurped head' mass transition the");
    println!("paper's Fig. 3 idealizes away; see EXPERIMENTS.md E3 discussion.");
}
