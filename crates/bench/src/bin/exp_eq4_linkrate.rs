//! E5 (eq. 4): `f₀ = Θ(1)` — the level-0 link state change frequency per
//! node per second does not grow with network size (fixed density, fixed
//! μ/R_TX), and matches the closed-form `d / E[link lifetime]` prediction.

use chlm_analysis::regression::{relative_spread, ModelClass};
use chlm_analysis::theory::f0_prediction;
use chlm_bench::{
    banner, print_fits, print_series, standard_config, standard_sweep, sweep_sizes, MetricSeries,
};

fn main() {
    banner("E5 / eq. (4)", "level-0 link-change frequency f0 vs n");
    let sizes = sweep_sizes();
    let reports = standard_sweep(&sizes, 5000);

    let f0 = MetricSeries::of("f0", &sizes, &reports, |r| r.f0);
    let degree = MetricSeries::of("degree", &sizes, &reports, |r| r.mean_degree);
    print_series(&[&f0, &degree]);

    // Closed-form prediction at each size.
    let cfg = standard_config(sizes[0]);
    println!("predicted f0 (chord-length model, per size):");
    for (i, &n) in sizes.iter().enumerate() {
        let pred = f0_prediction(cfg.speed, cfg.rtx(), degree.means[i]);
        println!(
            "  n = {:>5}: measured {:.3}, predicted {:.3} (ratio {:.2})",
            n,
            f0.means[i],
            pred,
            f0.means[i] / pred
        );
    }
    println!();
    print_fits(&f0, ModelClass::Constant);
    // R² cannot select the constant class (see regression::relative_spread
    // docs); judge flatness directly: over an 8x size range, a truly
    // Θ(1) quantity moves by a few percent, a √n quantity by ~2.8x.
    let spread = relative_spread(&f0.means);
    let factor = f0.means.last().unwrap() / f0.means.first().unwrap();
    println!(
        "direct flatness test: spread = {:.1}% of mean, end-to-end factor = {:.2}x \
         over a {:.0}x size range",
        spread * 100.0,
        factor,
        f0.sizes.last().unwrap() / f0.sizes.first().unwrap()
    );
    let (rho, p, flat) = chlm_analysis::trend::flatness_test(&f0.sizes, &f0.means, 0.05);
    println!("trend test: Spearman rho = {rho:+.2}, permutation p = {p:.3}");
    println!(
        "eq. (4) claim (f0 = Θ(1)): {}",
        if spread < 0.25 && flat {
            "HOLDS"
        } else if spread < 0.25 {
            "HOLDS (small but statistically detectable drift; see degree column)"
        } else {
            "NOT SUPPORTED"
        }
    );
}
