//! E7 (§4, eqs. 6a–6c): migration handoff overhead.
//!
//! Sweeps network sizes and measures φ (packet transmissions per node per
//! second attributed to node migration), fitting the scaling classes. The
//! paper claims `φ = O(log² |V|)`. Also prints the per-level φ_k profile
//! at the largest size — §4 predicts it is roughly *flat* in k.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{
    banner, mean_of, print_fits, print_series, standard_sweep, sweep_sizes, MetricSeries,
};

fn main() {
    banner("E7 / §4", "migration handoff overhead phi");
    let sizes = sweep_sizes();
    let sweep = standard_sweep(&sizes, 7000);

    let phi = MetricSeries::of("phi", &sizes, &sweep, |r| r.phi_total());
    print_series(&[&phi]);
    print_fits(&phi, ModelClass::Log2N);

    // Fixed-level slice: φ_k across sizes. §4 prices each level at
    // Θ(f_k·h_k·log n) = Θ(log n), so a *fixed* level's cost should grow
    // at most logarithmically in n — this isolates the asymptotic claim
    // from the finite-size saturation of the topmost levels.
    let mut slice = TextTable::new(vec!["n", "phi_2", "phi_3", "phi_4", "phi_5"]);
    for (n, reports) in sizes.iter().zip(&sweep) {
        let mean = |k: usize| mean_of(reports, |r| r.ledger.phi(k));
        slice.row(vec![
            format!("{n}"),
            fnum(mean(2)),
            fnum(mean(3)),
            fnum(mean(4)),
            fnum(mean(5)),
        ]);
    }
    println!("fixed-level phi_k across sizes (each column should grow at most ~log n):");
    println!("{}", slice.render());

    let (n, last) = (sizes.last().unwrap(), sweep.last().unwrap());
    let depth = last.iter().map(|r| r.ledger.max_level()).max().unwrap();
    let mut t = TextTable::new(vec!["level", "phi_k", "migration_events/node/s"]);
    for k in 2..=depth {
        t.row(vec![
            format!("{k}"),
            fnum(mean_of(last, |r| r.ledger.phi(k))),
            fnum(mean_of(last, |r| r.rates.f_k(k))),
        ]);
    }
    println!("per-level profile at n = {n}:");
    println!("{}", t.render());
    println!("(§4 predicts phi_k ≈ flat across levels: the growing handoff path");
    println!(" length cancels the shrinking migration frequency.)");
}
