//! E6 (eqs. 7–9): `f_k = Θ(1/h_k)` — the level-k migration frequency
//! decays with the intra-cluster hop count, so `f_k · h_k` is roughly
//! constant across levels. This is the cancellation that makes every
//! `φ_k` equal (eq. 6) and φ polylogarithmic.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, mean_of, mean_some, standard_sweep, MIN_N};

fn main() {
    banner("E6 / eq. (9)", "level-k migration frequency decay");
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(2048);
    let reports = &standard_sweep(&[n], 6000)[0];

    // Pool per-level migration rates and h_k across replications.
    let depth = reports.iter().map(|r| r.rates.max_level()).max().unwrap();
    let mut t = TextTable::new(vec!["level", "f_k", "h_k", "f_k*h_k", "f_{k-1}/f_k"]);
    let mut prev_fk: Option<f64> = None;
    let mut products = Vec::new();
    for k in 1..=depth {
        let f_k = mean_of(reports, |r| r.rates.f_k(k));
        // h_k from the final-tick level stats (mean across replications).
        let h_k = mean_some(reports, |r| {
            r.final_levels.get(k).and_then(|s| s.intra_cluster_hops)
        });
        let product = f_k * h_k;
        // Only levels still in the asymptotic regime enter the verdict:
        // near the top of the hierarchy a cluster spans most of the
        // deployment area, so RWP legs are no longer long relative to the
        // cluster and the ballistic exit-time argument behind eq. (7) does
        // not apply at finite size (see EXPERIMENTS.md).
        let level_pop: usize = reports
            .iter()
            .filter_map(|r| r.final_levels.get(k).map(|s| s.nodes))
            .max()
            .unwrap_or(0);
        if product.is_finite() && f_k > 0.0 && level_pop >= 16 {
            products.push(product);
        }
        let ratio = prev_fk.map_or(f64::NAN, |p| p / f_k.max(1e-12));
        t.row(vec![
            format!("{k}"),
            fnum(f_k),
            fnum(h_k),
            fnum(product),
            fnum(ratio),
        ]);
        prev_fk = Some(f_k);
    }
    println!("{}", t.render());
    if products.len() >= 2 {
        let max = products.iter().copied().fold(f64::MIN, f64::max);
        let min = products.iter().copied().fold(f64::MAX, f64::min);
        println!(
            "f_k*h_k spread across levels: [{min:.3}, {max:.3}] ({:.1}x)",
            max / min
        );
        println!(
            "eq. (9) claim (f_k ∝ 1/h_k, i.e. product ~ constant): {}",
            if max / min < 4.0 {
                "HOLDS"
            } else {
                "WEAK at the sparse top levels"
            }
        );
    }
}
