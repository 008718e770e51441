//! E26 (§4–§5 at scale): does the polylog scaling law extrapolate to
//! n = `CHLM_SCALE_N` (16384 by default, 131072 for the recorded E26 run)?
//!
//! The φ/γ sweeps (E7, E9) fit `a·ln²n + b` on sizes the multi-seed
//! harness can afford. This experiment is the out-of-sample check the
//! incremental tick pipeline and the intra-tick worker pools buy: fit
//! the paper's `O(log² n)` model on a calibration sweep (n ≤ 4096),
//! then run a *multi-seed* replication set at the extrapolation size —
//! 16384 is four times beyond the largest calibration point — and
//! compare the measured
//! mean ± 95% CI for φ and γ against the fitted curve's prediction.
//! A mean inside (or below) the extrapolation band is evidence the
//! polylog law, not a faster-growing one, governs the overhead; a large
//! overshoot would indicate super-polylog growth the small sizes masked.
//!
//! Knobs: `CHLM_SEEDS` (calibration replications, default 4),
//! `CHLM_SCALE_SEEDS` (replications at the extrapolation size, default
//! 5), `CHLM_DURATION` (measured seconds, default 8; the extrapolation
//! point always uses this duration too), `CHLM_SCALE_N` (the
//! extrapolation size, default 16384; above 1024, so the two-parameter
//! fit has two calibration sizes below it). The `CHLM_THREADS` budget is
//! shared between the replication fan-out and each run's intra-tick pools.

use chlm_analysis::regression::{fit_model, ModelClass};
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{
    env_usize, replications, standard_config, standard_sweep, summarize, threads, MetricSeries,
};
use chlm_sim::run_cells;
use chlm_sim::runner::seed_range;

fn main() {
    let big_n = env_usize("CHLM_SCALE_N", 16384, 1025);
    let scale_seeds = env_usize("CHLM_SCALE_SEEDS", 5, 1);
    println!("== E26: polylog extrapolation to n = {big_n} ==");

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
    let calibration = standard_sweep(&sizes, 16000);
    let phi = MetricSeries::of("phi", &sizes, &calibration, |r| r.phi_total());
    let gamma = MetricSeries::of("gamma", &sizes, &calibration, |r| r.gamma_total());

    // Multi-seed extrapolation point: mean ± CI95 over independent seeds,
    // so the verdict is not hostage to one seed's churn realization. The
    // replication fan-out takes the thread budget first; threads beyond
    // the seed count go to each run's intra-tick pools (see
    // chlm_sim::budget_split).
    println!("running {scale_seeds}-seed n = {big_n} replication set...");
    let big = &run_cells(
        &[standard_config(big_n)],
        &seed_range(16001, scale_seeds),
        threads(),
    )[0];
    let phi_big = summarize(big, |r| r.phi_total());
    let gamma_big = summarize(big, |r| r.gamma_total());

    let mut t = TextTable::new(vec![
        "metric",
        "fit a*ln^2(n)+b",
        "r2",
        &format!("predicted @{big_n}"),
        &format!("measured @{big_n}"),
        "ci95",
        "ratio",
    ]);
    let mut worst_ratio = f64::NEG_INFINITY;
    for (series, measured) in [(&phi, phi_big), (&gamma, gamma_big)] {
        let (xs, ys) = series.xy();
        let fit = fit_model(ModelClass::Log2N, xs, ys);
        let predicted = fit.predict(big_n as f64);
        let ratio = if predicted > 0.0 {
            measured.mean / predicted
        } else {
            f64::INFINITY
        };
        worst_ratio = worst_ratio.max(ratio);
        t.row(vec![
            series.name.clone(),
            format!("{}*ln^2(n) + {}", fnum(fit.a), fnum(fit.b)),
            fnum(fit.r2),
            fnum(predicted),
            fnum(measured.mean),
            format!("±{}", fnum(measured.ci95())),
            fnum(ratio),
        ]);
    }
    println!("{}", t.render());
    println!(
        "depth at n = {big_n}: {} levels ({} seeds)",
        big[0].depth,
        big.len()
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
