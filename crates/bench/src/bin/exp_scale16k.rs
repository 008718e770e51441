//! E16 (§4–§5 at scale): does the polylog scaling law extrapolate to
//! n = 16384?
//!
//! The φ/γ sweeps (E7, E9) fit `a·ln²n + b` on sizes the multi-seed
//! harness can afford. This experiment is the out-of-sample check the
//! incremental tick pipeline and the intra-tick worker pools buy: fit
//! the paper's `O(log² n)` model on a calibration sweep (n ≤ 4096),
//! then run a *multi-seed* replication set at n = 16384 — four times
//! beyond the largest calibration point — and compare the measured
//! mean ± 95% CI for φ and γ against the fitted curve's prediction.
//! A mean inside (or below) the extrapolation band is evidence the
//! polylog law, not a faster-growing one, governs the overhead; a large
//! overshoot would indicate super-polylog growth the small sizes masked.
//!
//! Knobs: `CHLM_SEEDS` (calibration replications, default 4),
//! `CHLM_SCALE_SEEDS` (replications at the extrapolation size, default
//! 5), `CHLM_DURATION` (measured seconds, default 8; the 16k point
//! always uses this duration too), `CHLM_SCALE_N` (the extrapolation
//! size, default 16384). The `CHLM_THREADS` budget is shared between
//! the replication fan-out and each run's intra-tick pools.

use chlm_analysis::regression::{fit_model, ModelClass};
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{env_usize, replications, standard_config, threads};
use chlm_core::experiment::{summarize_metric, sweep};

fn main() {
    let big_n = env_usize("CHLM_SCALE_N", 16384);
    let scale_seeds = env_usize("CHLM_SCALE_SEEDS", 5).max(1);
    println!("== E16: polylog extrapolation to n = {big_n} ==");

    // Calibration sweep: 512..4096, multi-seed.
    let sizes: Vec<usize> = [512usize, 1024, 2048, 4096]
        .into_iter()
        .filter(|&n| n < big_n)
        .collect();
    println!(
        "calibration sizes {:?}, {} replications, {} threads",
        sizes,
        replications(),
        threads()
    );
    let points = sweep(&sizes, replications(), 16000, threads(), standard_config);
    let phi = summarize_metric(&points, "phi", |r| r.phi_total());
    let gamma = summarize_metric(&points, "gamma", |r| r.gamma_total());

    // Multi-seed extrapolation point: mean ± CI95 over independent seeds,
    // so the verdict is not hostage to one seed's churn realization. The
    // replication fan-out takes the thread budget first; threads beyond
    // the seed count go to each run's intra-tick pools (see
    // chlm_sim::budget_split).
    println!("running {scale_seeds}-seed n = {big_n} replication set...");
    let big = sweep(&[big_n], scale_seeds, 16001, threads(), standard_config);
    let phi_big = summarize_metric(&big, "phi", |r| r.phi_total());
    let gamma_big = summarize_metric(&big, "gamma", |r| r.gamma_total());

    let mut t = TextTable::new(vec![
        "metric",
        "fit a*ln^2(n)+b",
        "r2",
        &format!("predicted @{big_n}"),
        &format!("measured @{big_n}"),
        "ci95",
        "ratio",
    ]);
    let mut worst_ratio = 1.0f64;
    for (series, measured, ci) in [
        (&phi, phi_big.means[0], phi_big.ci95[0]),
        (&gamma, gamma_big.means[0], gamma_big.ci95[0]),
    ] {
        let (xs, ys) = series.xy();
        let fit = fit_model(ModelClass::Log2N, xs, ys);
        let predicted = fit.predict(big_n as f64);
        let ratio = if predicted > 0.0 {
            measured / predicted
        } else {
            f64::INFINITY
        };
        worst_ratio = worst_ratio.max(ratio);
        t.row(vec![
            series.name.clone(),
            format!("{}*ln^2(n) + {}", fnum(fit.a), fnum(fit.b)),
            fnum(fit.r2),
            fnum(predicted),
            fnum(measured),
            format!("±{}", fnum(ci)),
            fnum(ratio),
        ]);
    }
    println!("{}", t.render());
    println!(
        "depth at n = {big_n}: {} levels ({} seeds)",
        big[0].reports[0].depth,
        big[0].reports.len()
    );

    // Verdict: the measured mean "lands on" the fitted curve when it does
    // not exceed the polylog prediction by more than 50% — loose enough
    // for replication noise, tight enough to expose e.g. Θ(√n) growth
    // (which would overshoot a 4× extrapolation by ~2.4×).
    if worst_ratio <= 1.5 {
        println!(
            "OK: n = {big_n} lands on the fitted polylog curve (worst ratio {worst_ratio:.2})."
        );
    } else {
        println!(
            "WARN: n = {big_n} overshoots the polylog fit by {worst_ratio:.2}x — super-polylog growth?"
        );
    }
}
