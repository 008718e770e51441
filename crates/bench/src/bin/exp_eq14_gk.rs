//! E8 (eq. 14, §5.3.1): `g'_k = Θ(1/h_k)` — the state-change frequency of
//! an individual level-k cluster link decays like `1/h_k`, because a pair
//! of level-k clusterheads must drift `Θ(h_k)` relative hops to make or
//! break a level-k link.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, mean_of, mean_some, standard_sweep, MIN_N};

fn main() {
    banner(
        "E8 / eq. (14)",
        "per-cluster-link state-change frequency g'_k",
    );
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(2048);
    let reports = &standard_sweep(&[n], 8000)[0];

    let depth = reports.iter().map(|r| r.rates.max_level()).max().unwrap();
    let mut t = TextTable::new(vec![
        "level",
        "g_k (per node)",
        "g'_k all",
        "g'_k drift",
        "h_k",
        "drift*h_k",
    ]);
    let mut products = Vec::new();
    for k in 1..=depth {
        let gk = mean_of(reports, |r| r.rates.g_k(k));
        let gpk_all = mean_of(reports, |r| r.rates.g_prime_k(k));
        let gpk = mean_of(reports, |r| r.rates.g_prime_persisting_k(k));
        let h_k = mean_some(reports, |r| {
            r.final_levels.get(k).and_then(|s| s.intra_cluster_hops)
        });
        let prod = gpk * h_k;
        let level_pop: usize = reports
            .iter()
            .filter_map(|r| r.final_levels.get(k).map(|s| s.nodes))
            .max()
            .unwrap_or(0);
        if prod.is_finite() && gpk > 0.0 && level_pop >= 16 {
            products.push(prod);
        }
        t.row(vec![
            format!("{k}"),
            fnum(gk),
            fnum(gpk_all),
            fnum(gpk),
            fnum(h_k),
            fnum(prod),
        ]);
    }
    println!("{}", t.render());
    if products.len() >= 2 {
        let max = products.iter().copied().fold(f64::MIN, f64::max);
        let min = products.iter().copied().fold(f64::MAX, f64::min);
        println!(
            "drift-driven g'_k*h_k spread (in-regime levels): [{min:.3}, {max:.3}] ({:.1}x)",
            max / min
        );
        // Three-way verdict: constant product (the claim), or a flicker-
        // dominated low-level regime with decay emerging above it, or no
        // support at all.
        let drift: Vec<f64> = (1..=depth)
            .map(|k| mean_of(reports, |r| r.rates.g_prime_persisting_k(k)))
            .collect();
        let peak = drift.iter().copied().fold(f64::MIN, f64::max);
        let tail = drift
            .iter()
            .rev()
            .find(|&&x| x > 0.0)
            .copied()
            .unwrap_or(0.0);
        let verdict = if max / min < 4.0 {
            "HOLDS"
        } else if tail < peak / 2.0 {
            "PARTIAL: flat at low levels (adjacency flicker between touching \
clusters dominates), 1/h_k decay emerges once clusterhead separation \
outgrows the flicker scale"
        } else {
            "NOT SUPPORTED at these sizes"
        };
        println!("eq. (14) claim (drift-driven g'_k ∝ 1/h_k): {verdict}");
        println!("\nnote: the 'all causes' column includes election relabeling — a head");
        println!("turnover rewrites its links without geographic drift — which eq. (14)");
        println!("does not model; the drift-only column isolates the paper's quantity.");
    }
}
