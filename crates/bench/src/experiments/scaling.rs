//! Scaling experiments: an overhead against network size, with the
//! paper's claimed model class fitted against the alternatives.

use crate::{
    banner, env_usize, mean_of, mean_some, measured_seconds, print_fits, print_series,
    replications, standard_config, standard_region, standard_rtx, standard_sweep, summarize,
    sweep_sizes, threads, MetricSeries,
};
use chlm_analysis::regression::{fit_model, relative_spread, ModelClass};
use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_analysis::theory::{f0_prediction, q1_fraction_lower_bound, q_chain, q_total};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::SimRng;
use chlm_graph::unit_disk::build_unit_disk;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_lm::update::{RegistrationTracker, UpdatePolicy};
use chlm_mobility::{MobilityModel, RandomWaypoint};
use chlm_sim::oracle::{euclidean_hops, DEFAULT_DETOUR};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_cells, SimReport};

/// E5 (eq. 4): `f₀ = Θ(1)` — the level-0 link state change frequency per
/// node per second does not grow with network size (fixed density, fixed
/// μ/R_TX), and matches the closed-form `d / E[link lifetime]` prediction.
pub(crate) fn exp_eq4_linkrate() {
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

/// E7 (§4, eqs. 6a–6c): migration handoff overhead.
///
/// Sweeps network sizes and measures φ (packet transmissions per node per
/// second attributed to node migration), fitting the scaling classes. The
/// paper claims `φ = O(log² |V|)`. Also prints the per-level φ_k profile
/// at the largest size — §4 predicts it is roughly *flat* in k.
pub(crate) fn exp_phi_migration() {
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

/// E9 (§5, eqs. 10–24): reorganization handoff overhead.
///
/// Sweeps sizes and measures γ (packets per node per second attributed to
/// cluster reorganization), fitting the scaling classes against the
/// paper's `γ = Θ(log² |V|)` claim, plus the per-level γ_k profile at the
/// largest size.
pub(crate) fn exp_gamma_reorg() {
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

fn pooled_p(reports: &[SimReport]) -> Vec<f64> {
    let depth = reports.iter().map(|r| r.state.p1.len()).max().unwrap();
    (0..depth)
        .map(|k| {
            let p = mean_some(reports, |r| r.state.p1.get(k).copied().flatten());
            // A level no replication observed pools to 0, not NaN.
            if p.is_nan() {
                0.0
            } else {
                p
            }
        })
        .collect()
}

/// E11 (eq. 22): quantifying `q₁` — **the simulation the paper explicitly
/// left as future work** ("Actual quantification of q₁ via simulation
/// represents a direction for future work", §5.3.2).
///
/// For each network size we measure the per-level critical-state
/// probabilities `p_j = P(ALCA state = 1)`, evaluate the recursion-chain
/// probabilities `q_j` (eq. 15a), and check the two things the analysis
/// needs: (1) `q₁` stays bounded away from 0 as `|V|` grows, and (2) the
/// `q₁/Q ≥ q₁/(p² + q₁)` bound of eq. (21b) holds and is non-vanishing.
pub(crate) fn exp_q1_future_work() {
    banner(
        "E11 / eq. (22)",
        "q1 quantification (the paper's future work)",
    );
    let sizes = sweep_sizes();
    let sweep = standard_sweep(&sizes, 11_000);

    let mut t = TextTable::new(vec![
        "n",
        "L",
        "p_0",
        "p_1",
        "p_2",
        "q_1(topk)",
        "Q(top k)",
        "q1/Q",
        "eq21b bound",
    ]);
    let mut q1_series = Vec::new();
    for (n, reports) in sizes.iter().zip(&sweep) {
        let p = pooled_p(reports);
        let depth = p.len();
        // Evaluate the chain at the highest level whose whole p-ladder was
        // actually observed (sparse top levels may have no occupancy data;
        // a zero there would silently zero the product).
        let mut k = 2;
        for cand in 2..depth {
            if p[1..cand].iter().all(|&x| x > 0.0) {
                k = cand;
            }
        }
        if k < 2 || p.len() < k || p[1..k].iter().any(|&x| x <= 0.0) {
            continue;
        }
        let q = q_chain(&p, k);
        let q1 = q[0];
        let qq = q_total(&q);
        q1_series.push(q1);
        t.row(vec![
            format!("{n}"),
            format!("{}", depth - 1),
            fnum(p[0]),
            fnum(p.get(1).copied().unwrap_or(0.0)),
            fnum(p.get(2).copied().unwrap_or(0.0)),
            fnum(q1),
            fnum(qq),
            fnum(if qq > 0.0 { q1 / qq } else { 0.0 }),
            fnum(q1_fraction_lower_bound(&p, k)),
        ]);
    }
    println!("{}", t.render());

    let min_q1 = q1_series.iter().copied().fold(f64::MAX, f64::min);
    println!("min q1 across sizes: {min_q1:.4}");
    println!(
        "eq. (22) claim (q1 > eps > 0 as |V| grows): {}",
        if min_q1 > 0.02 {
            "SUPPORTED — recursion almost always stops after one level"
        } else {
            "NOT SUPPORTED at these sizes"
        }
    );

    // Context: how often is a node critical at all (p1 per level vs n)?
    let p1_lvl0 = MetricSeries::of("p1_level0", &sizes, &sweep, |r| {
        r.state.p1.first().copied().flatten().unwrap_or(0.0)
    });
    print_series(&[&p1_lvl0]);
}

/// E12 (§6): the headline — total LM handoff overhead `φ + γ` per node per
/// second grows only polylogarithmically, so per-link capacity need only
/// grow polylogarithmically for the LM subsystem to scale.
pub(crate) fn exp_total_overhead() {
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

/// One E19 replication: total and per-level registration overhead.
fn registration_run(n: usize, seed: u64, duration: f64) -> (f64, Vec<f64>) {
    let rtx = standard_rtx();
    let region = standard_region(n);
    let speed = 2.0;
    let dt = rtx / (10.0 * speed);
    let mut rng = SimRng::seed_from(seed);
    let ids = rng.permutation(n);
    let warmup = 2.0 * region.radius / speed;
    let mut mob = RandomWaypoint::deployed(region, n, speed, warmup, &mut rng);

    let opts = HierarchyOptions::default();
    let mut h = Hierarchy::build(&ids, &build_unit_disk(mob.positions(), rtx), opts);
    let mut asn = LmAssignment::compute(&h, SelectionRule::Hrw);
    let max_level = (h.depth().saturating_sub(1)).max(2);
    let policy = UpdatePolicy::new(rtx, 3.0, 0.5);
    let mut tracker = RegistrationTracker::new(policy, mob.positions(), max_level + 2);

    let ticks = (duration / dt).ceil() as usize;
    // Refresh the assignment at a coarse cadence (handoff handles the rest;
    // registration pricing only needs an approximately-current server map).
    let refresh_every = 10usize;
    for tick in 0..ticks {
        mob.step(dt);
        let positions = mob.positions().to_vec();
        if tick % refresh_every == 0 {
            h = Hierarchy::build(&ids, &build_unit_disk(&positions, rtx), opts);
            asn = LmAssignment::compute(&h, SelectionRule::Hrw);
        }
        let pos = &positions;
        tracker.observe(
            pos,
            &asn,
            |a, b| euclidean_hops(pos[a as usize], pos[b as usize], rtx, DEFAULT_DETOUR),
            dt,
        );
    }
    let per_level: Vec<f64> = (0..=tracker.max_level())
        .map(|k| tracker.level_overhead(k))
        .collect();
    (tracker.overhead_per_node_per_second(), per_level)
}

/// E19 (§6 / companion \[17\]): location-registration overhead.
///
/// The conclusion cites \[17\] for "location registration … incur\[s\] packet
/// transmission counts that are only logarithmic in |V|". With the GLS-style
/// distance-triggered refresh rule (update the level-k server after
/// drifting a fraction of the level-k cluster radius), level-k updates
/// happen at rate Θ(1/h_k) and travel Θ(h_k) hops, so each level costs
/// Θ(1) and the total is Θ(L) = Θ(log |V|). This experiment sweeps sizes and
/// fits the registration overhead series.
pub(crate) fn exp_registration() {
    banner("E19 / [17]", "location-registration overhead vs n");
    let sizes = sweep_sizes();
    let duration = measured_seconds(8.0);
    let reps = replications();

    let mut series = MetricSeries::new("registration");
    let mut table = TextTable::new(vec!["n", "pkts/node/s", "lvl2", "lvl3", "lvl4", "lvl5"]);
    for &n in &sizes {
        let mut totals = Vec::new();
        let mut level_acc = [0.0f64; 16];
        for r in 0..reps {
            let (total, per_level) = registration_run(n, 19_000 + r as u64, duration);
            totals.push(total);
            for (k, v) in per_level.iter().enumerate() {
                if k < level_acc.len() {
                    level_acc[k] += v / reps as f64;
                }
            }
        }
        let s = Summary::of(&totals).unwrap();
        table.row(vec![
            format!("{n}"),
            fnum(s.mean),
            fnum(level_acc[2]),
            fnum(level_acc.get(3).copied().unwrap_or(0.0)),
            fnum(level_acc.get(4).copied().unwrap_or(0.0)),
            fnum(level_acc.get(5).copied().unwrap_or(0.0)),
        ]);
        series.push(n, s.mean, s.ci95());
    }
    println!("{}", table.render());
    print_fits(&series, ModelClass::LogN);
    println!("per-level columns should be roughly equal (each level costs Θ(1));");
    println!("the total then grows with the number of levels, i.e. Θ(log n).");
}

/// E26 (§4–§5 at scale): does the polylog scaling law extrapolate to
/// n = `CHLM_SCALE_N` (16384 by default, 131072 for the recorded E26 run)?
///
/// The φ/γ sweeps (E7, E9) fit `a·ln²n + b` on sizes the multi-seed
/// harness can afford. This experiment is the out-of-sample check the
/// incremental tick pipeline and the intra-tick worker pools buy: fit
/// the paper's `O(log² n)` model on a calibration sweep (n ≤ 4096),
/// then run a *multi-seed* replication set at the extrapolation size —
/// 16384 is four times beyond the largest calibration point — and
/// compare the measured
/// mean ± 95% CI for φ and γ against the fitted curve's prediction.
/// A mean inside (or below) the extrapolation band is evidence the
/// polylog law, not a faster-growing one, governs the overhead; a large
/// overshoot would indicate super-polylog growth the small sizes masked.
///
/// Knobs: `CHLM_SEEDS` (calibration replications, default 6),
/// `CHLM_SCALE_SEEDS` (replications at the extrapolation size, default
/// 5), `CHLM_DURATION` (measured seconds, default 8; the extrapolation
/// point always uses this duration too), `CHLM_SCALE_N` (the
/// extrapolation size, default 16384; above 1024, so the two-parameter
/// fit has two calibration sizes below it). The `CHLM_THREADS` budget is
/// shared between the replication fan-out and each run's intra-tick pools.
pub(crate) fn exp_scale16k() {
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
