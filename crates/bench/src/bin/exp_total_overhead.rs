//! E12 (§6): the headline — total LM handoff overhead `φ + γ` per node per
//! second grows only polylogarithmically, so per-link capacity need only
//! grow polylogarithmically for the LM subsystem to scale.

use chlm_analysis::regression::{fit_model, ModelClass};
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, print_fits, print_series, standard_sweep, sweep_sizes, MetricSeries};

fn main() {
    banner("E12 / §6", "total LM handoff overhead phi + gamma");
    let sizes = sweep_sizes();
    let sweep = standard_sweep(&sizes, 12_000);

    let phi = MetricSeries::of("phi", &sizes, &sweep, |r| r.phi_total());
    let gamma = MetricSeries::of("gamma", &sizes, &sweep, |r| r.gamma_total());
    let total = MetricSeries::of("total", &sizes, &sweep, |r| r.total_overhead());
    let entries = MetricSeries::of("entries/node", &sizes, &sweep, |r| r.mean_entries_hosted);
    print_series(&[&phi, &gamma, &total, &entries]);

    let fits = print_fits(&total, ModelClass::Log2N);

    // Capacity projection: extrapolate the best polylog fit and a linear
    // fit to large n — the difference is the paper's point.
    let (xs, ys) = total.xy();
    let log2 = fits
        .iter()
        .find(|f| f.class == ModelClass::Log2N)
        .copied()
        .unwrap();
    let lin = fit_model(ModelClass::Linear, xs, ys);
    let mut t = TextTable::new(vec!["n", "polylog model", "linear model"]);
    for &n in &[1_000.0, 10_000.0, 100_000.0, 1_000_000.0] {
        t.row(vec![
            format!("{}", n as u64),
            fnum(log2.predict(n).max(0.0)),
            fnum(lin.predict(n).max(0.0)),
        ]);
    }
    println!("projected per-node LM handoff load (packets/s) under each model:");
    println!("{}", t.render());
    println!("a polylog-capacity link budget suffices iff the polylog column is the");
    println!("right extrapolation — which the fit ranking above supports.");
}
