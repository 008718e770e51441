//! E9 (§5, eqs. 10–24): reorganization handoff overhead.
//!
//! Sweeps sizes and measures γ (packets per node per second attributed to
//! cluster reorganization), fitting the scaling classes against the
//! paper's `γ = Θ(log² |V|)` claim, plus the per-level γ_k profile at the
//! largest size.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{
    banner, mean_of, print_fits, print_series, standard_sweep, sweep_sizes, MetricSeries,
};

fn main() {
    banner("E9 / §5", "reorganization handoff overhead gamma");
    let sizes = sweep_sizes();
    let sweep = standard_sweep(&sizes, 9000);

    let gamma = MetricSeries::of("gamma", &sizes, &sweep, |r| r.gamma_total());
    print_series(&[&gamma]);
    print_fits(&gamma, ModelClass::Log2N);

    // Fixed-level slice: γ_k across sizes. §5 prices each level at
    // Θ(g_k·c_k·h_k·log n) = Θ(log n) under eq. (14), so a *fixed* level's
    // cost should grow at most logarithmically in n — isolating the
    // asymptotic claim from the saturated topmost levels.
    let mut slice = TextTable::new(vec!["n", "gamma_2", "gamma_3", "gamma_4", "gamma_5"]);
    for (n, reports) in sizes.iter().zip(&sweep) {
        let mean = |k: usize| mean_of(reports, |r| r.ledger.gamma(k));
        slice.row(vec![
            format!("{n}"),
            fnum(mean(2)),
            fnum(mean(3)),
            fnum(mean(4)),
            fnum(mean(5)),
        ]);
    }
    println!("fixed-level gamma_k across sizes (each column should grow at most ~log n):");
    println!("{}", slice.render());

    let (n, last) = (sizes.last().unwrap(), sweep.last().unwrap());
    let depth = last.iter().map(|r| r.ledger.max_level()).max().unwrap();
    let mut t = TextTable::new(vec!["level", "gamma_k", "reorg_entry_moves/node/s"]);
    for k in 2..=depth {
        t.row(vec![
            format!("{k}"),
            fnum(mean_of(last, |r| r.ledger.gamma(k))),
            fnum(mean_of(last, |r| {
                let c = r.ledger.per_level.get(k).copied().unwrap_or_default();
                c.reorg_events as f64 / r.ledger.node_seconds.max(1e-12)
            })),
        ]);
    }
    println!("per-level profile at n = {n}:");
    println!("{}", t.render());
}
