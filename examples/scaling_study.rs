//! The paper's headline claim, end to end: LM handoff overhead grows only
//! **polylogarithmically** in node count. Sweeps network sizes at fixed
//! density, measures φ + γ, and fits the scaling classes
//! {log²n, log n, √n, n, const}.
//!
//! Run with:
//! ```text
//! cargo run --release --example scaling_study
//! ```

use chlm::analysis::table::{fnum, TextTable};
use chlm::prelude::*;

fn main() {
    let sizes = [128usize, 256, 512, 1024];
    let replications = 4;
    println!(
        "sweeping sizes {:?} with {} replications each (fixed density)...",
        sizes, replications
    );

    let cells: Vec<SimConfig> = sizes
        .iter()
        .map(|&n| SimConfig::builder(n).duration(8.0).warmup(6.0).build())
        .collect();
    // reports[size] = that size's replications, all sizes in one pool.
    let reports = run_cells(&cells, &seed_range(1000, replications), 4);
    let summarize = |metric: fn(&SimReport) -> f64| -> Vec<Summary> {
        reports
            .iter()
            .map(|rs| Summary::over(rs, metric).expect("four replications per size"))
            .collect()
    };
    let phi = summarize(|r| r.phi_total());
    let gamma = summarize(|r| r.gamma_total());
    let total = summarize(|r| r.total_overhead());
    let f0 = summarize(|r| r.f0);

    let mut table = TextTable::new(vec!["n", "f0", "phi", "gamma", "phi+gamma", "ci95"]);
    for i in 0..sizes.len() {
        table.row(vec![
            format!("{}", sizes[i]),
            fnum(f0[i].mean),
            fnum(phi[i].mean),
            fnum(gamma[i].mean),
            fnum(total[i].mean),
            fnum(total[i].ci95()),
        ]);
    }
    println!("\n{}", table.render());

    // Which shape fits the total overhead best?
    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let ys: Vec<f64> = total.iter().map(|s| s.mean).collect();
    let fits = best_fit(&xs, &ys);
    println!("scaling-class fits for phi+gamma (best first):");
    for f in &fits {
        println!("  {:<10} r2 = {:+.4}", f.class.name(), f.r2);
    }
    let polylog = class_is_competitive(&fits, ModelClass::Log2N, 0.05)
        || class_is_competitive(&fits, ModelClass::LogN, 0.05);
    println!(
        "\npaper's claim (polylogarithmic growth): {}",
        if polylog {
            "SUPPORTED"
        } else {
            "NOT SUPPORTED at these sizes"
        }
    );
    // f0 should be flat (eq. 4). R² cannot select a constant model (flat
    // data has no explainable variance), so judge by relative spread.
    let f0_means: Vec<f64> = f0.iter().map(|s| s.mean).collect();
    let spread = chlm::analysis::regression::relative_spread(&f0_means);
    println!(
        "f0 flat in n (eq. 4): {} (spread {:.0}% of mean over an {:.0}x size range)",
        if spread < 0.25 {
            "SUPPORTED"
        } else {
            "NOT SUPPORTED"
        },
        spread * 100.0,
        xs[xs.len() - 1] / xs[0]
    );
}
