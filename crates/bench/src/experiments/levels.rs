//! Per-level views of the claims sweep: its final hierarchies across the
//! size ladder (E1, E4, E20), and its rates pooled level by level at the
//! largest rung at or below a record's cap (E3, E6, E8, E10).

use crate::{
    banner, mean, mean_of, mean_some, print_fits, print_series, standard_runs, standard_sweep,
    sweep_sizes, top_rung, MetricSeries,
};
use chlm_analysis::markov::{binomial_occupancy, rank_mixture_occupancy, total_variation};
use chlm_analysis::regression::ModelClass;
use chlm_analysis::table::{fnum, TextTable};
use chlm_cluster::maintenance::price_maintenance;
use chlm_cluster::metrics::LevelStats;
use chlm_sim::SimReport;

/// The levels above level 0 in a run's final hierarchy: E1's and E20's `L`.
fn levels_above_0(r: &SimReport) -> f64 {
    r.final_levels.len().saturating_sub(1) as f64
}

/// Mean of `stat` over the replications whose final hierarchy reaches `k`.
fn level_mean(reports: &[SimReport], k: usize, stat: impl Fn(&LevelStats) -> f64) -> f64 {
    mean_some(reports, |r| r.final_levels.get(k).map(&stat))
}

/// Mean intra-cluster hop count `h_k` over the replications measuring it.
fn mean_h_k(reports: &[SimReport], k: usize) -> f64 {
    mean_some(reports, |r| {
        r.final_levels.get(k).and_then(|s| s.intra_cluster_hops)
    })
}

/// E1 (paper Fig. 1): the clustered hierarchy itself.
///
/// The claims sweep's hierarchies at the end of each run: per size and
/// level, the means of `|V_k|`, `|E_k|`, arity `α_k`, aggregation `c_k`,
/// mean degree `d_k` and intra-cluster hop count `h_k` over the seeds whose
/// hierarchy reaches the level — then a check that the depth `L` grows
/// logarithmically in `n` (the `L = Θ(log |V|)` premise used throughout
/// the paper).
pub(crate) fn exp_fig1_hierarchy() {
    let sizes = sweep_sizes();
    banner(
        "E1 / Fig. 1",
        "LCA clustered hierarchy structure",
        &sizes,
        standard_runs(),
    );
    let sweep = standard_sweep(&sizes);

    for (n, reports) in sizes.iter().zip(&sweep) {
        let mut t = TextTable::new(vec![
            "level", "seeds", "|V_k|", "|E_k|", "alpha_k", "c_k", "d_k", "h_k",
        ]);
        let seeds = |k: usize| reports.iter().filter(|r| r.final_levels.len() > k).count();
        for k in (0..).take_while(|&k| seeds(k) > 0) {
            t.row(vec![
                format!("{k}"),
                format!("{}", seeds(k)),
                fnum(level_mean(reports, k, |s| s.nodes as f64)),
                fnum(level_mean(reports, k, |s| s.edges as f64)),
                fnum(level_mean(reports, k, |s| s.arity)),
                fnum(level_mean(reports, k, |s| s.aggregation)),
                fnum(level_mean(reports, k, |s| s.mean_degree)),
                fnum(mean_h_k(reports, k)),
            ]);
        }
        println!("--- n = {n} ---");
        println!("{}", t.render());
    }

    let depth = MetricSeries::of("L", &sizes, &sweep, levels_above_0);
    let alpha = MetricSeries::of("mean_alpha", &sizes, &sweep, |r| {
        mean_alpha(&r.final_levels)
    });
    let d1 = MetricSeries::of("mean_d1", &sizes, &sweep, |r| {
        r.final_levels.get(1).map_or(0.0, |s| s.mean_degree)
    });
    let top = MetricSeries::of("top_|V_L|", &sizes, &sweep, |r| {
        r.final_levels.last().map_or(0.0, |s| s.nodes as f64)
    });
    print_series(&[&depth, &alpha, &d1, &top]);
    print_fits(&depth, ModelClass::LogN);
}

/// Mean arity `α_k` over the clustered levels `k ≥ 1`, and `0` for a
/// one-level hierarchy — folded from +0.0: `Iterator::sum::<f64>()` starts
/// at -0.0, which is what an empty arity list would then report.
fn mean_alpha(stats: &[LevelStats]) -> f64 {
    let arities = stats.get(1..).unwrap_or_default();
    arities.iter().fold(0.0, |sum, s| sum + s.arity) / arities.len().max(1) as f64
}

/// E3 (paper Fig. 3): the ALCA state machine, measured.
///
/// Runs the mobile simulation and compares the empirical level-0 elector
/// state distribution against the independent-voter (binomial) birth–death
/// prediction, and reports the adjacent-transition violation rate — a
/// deviation the paper's idealized chain does not model (a newly arrived
/// higher-ID neighbor steals *all* electors at once).
pub(crate) fn exp_fig3_states() {
    let n = top_rung(1024);
    banner(
        "E3 / Fig. 3",
        "ALCA state occupancy vs birth-death prediction",
        &[n],
        standard_runs(),
    );
    let reports = &standard_sweep(&[n])[0];

    // Pool level-0 distributions across replications.
    let max_state = reports
        .iter()
        .map(|r| r.state.distributions[0].len())
        .max()
        .unwrap_or(0);
    let mut pooled = vec![0.0; max_state];
    for r in reports {
        for (s, &p) in r.state.distributions[0].iter().enumerate() {
            pooled[s] += p / reports.len() as f64;
        }
    }
    // Binomial fit: match the empirical mean elector count.
    let mean_degree = mean_of(reports, |r| r.mean_degree);
    let mean_state: f64 = pooled.iter().enumerate().map(|(s, &p)| s as f64 * p).sum();
    let d = mean_degree.round().max(1.0) as usize;
    let q = (mean_state / d as f64).clamp(0.0, 1.0);
    let binomial = binomial_occupancy(d, q);
    // Rank-mixture model: election probability depends on ID rank (a
    // binomial with the same mean badly underestimates the state-0 mass).
    let mixture = rank_mixture_occupancy(d, 256);

    let mut t = TextTable::new(vec!["state", "measured", "rank-mixture", "binomial(d,q)"]);
    for s in 0..pooled.len().min(12) {
        t.row(vec![
            format!("{s}"),
            fnum(pooled[s]),
            fnum(mixture.get(s).copied().unwrap_or(0.0)),
            fnum(binomial.get(s).copied().unwrap_or(0.0)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "model fit (total-variation distance): rank-mixture = {:.3}, binomial = {:.3}",
        total_variation(&pooled, &mixture),
        total_variation(&pooled, &binomial)
    );
    println!("(d = {d}, q = {q:.3})");

    // p_j per level (feeds E11) and the adjacent-transition check.
    let mut lt = TextTable::new(vec!["level", "p_state1", "multi_jump_frac"]);
    let depth = reports.iter().map(|r| r.state.p1.len()).max().unwrap();
    for k in 0..depth {
        let p1 = mean_some(reports, |r| r.state.p1.get(k).copied().flatten());
        let mj = mean_some(reports, |r| {
            r.state.multi_jump_fraction.get(k).copied().flatten()
        });
        lt.row(vec![format!("{k}"), fnum(p1), fnum(mj)]);
    }
    println!("{}", lt.render());
    println!("note: multi-state jumps are the 'usurped head' mass transition the");
    println!("paper's Fig. 3 idealizes away; see EXPERIMENTS.md E3 discussion.");
}

/// E4 (eq. 3): `h_k = Θ(√c_k)`.
///
/// Per size of the claims sweep and per level `k ≥ 1` that E6 admits (mean
/// level population over seeds at least [`MIN_LEVEL_POP`]), the mean
/// intra-cluster hop count `h_k` against the mean aggregation `c_k`: eq.
/// (3) predicts the ratio `h_k / √c_k` to be roughly constant across
/// levels and sizes.
pub(crate) fn exp_eq3_hopcount() {
    let sizes = sweep_sizes();
    banner(
        "E4 / eq. (3)",
        "intra-cluster hop count vs sqrt aggregation",
        &sizes,
        standard_runs(),
    );
    let sweep = standard_sweep(&sizes);
    let mut t = TextTable::new(vec![
        "n",
        "level",
        "c_k",
        "sqrt(c_k)",
        "h_k",
        "h_k/sqrt(c_k)",
    ]);
    let mut ratios = Vec::new();
    for (n, reports) in sizes.iter().zip(&sweep) {
        // Mean level populations fall with k, so E6's admitted levels are
        // the first ones.
        for k in (1..).take_while(|&k| in_regime(&level_pops(reports, k))) {
            let c_k = level_mean(reports, k, |s| s.aggregation);
            let h_k = mean_h_k(reports, k);
            let ratio = h_k / c_k.sqrt();
            ratios.push(ratio);
            t.row(vec![
                format!("{n}"),
                format!("{k}"),
                fnum(c_k),
                fnum(c_k.sqrt()),
                fnum(h_k),
                fnum(ratio),
            ]);
        }
    }
    println!("{}", t.render());
    if let Some((min, max)) = spread(&ratios) {
        println!(
            "h_k/sqrt(c_k): mean = {:.3}, spread = [{min:.3}, {max:.3}] ({} cells)",
            mean(ratios.iter().copied()),
            ratios.len()
        );
        println!(
            "eq. (3) claim (ratio ~ constant): {}",
            if max / min < 3.0 {
                "HOLDS (spread < 3x across all levels/sizes)"
            } else {
                "WEAK"
            }
        );
    }
}

/// E6 (eqs. 7–9): `f_k = Θ(1/h_k)` — the level-k migration frequency
/// decays with the intra-cluster hop count, so `f_k · h_k` is roughly
/// constant across levels. This is the cancellation that makes every
/// `φ_k` equal (eq. 6) and φ polylogarithmic.
pub(crate) fn exp_eq9_fk() {
    let n = top_rung(2048);
    banner(
        "E6 / eq. (9)",
        "level-k migration frequency decay",
        &[n],
        standard_runs(),
    );
    let reports = &standard_sweep(&[n])[0];

    // Pool per-level migration rates and h_k across replications.
    let depth = reports.iter().map(|r| r.rates.max_level()).max().unwrap();
    let mut t = TextTable::new(vec!["level", "f_k", "h_k", "f_k*h_k", "f_{k-1}/f_k"]);
    let mut prev_fk: Option<f64> = None;
    // f_k · h_k of every level with a finite product, and of the levels
    // still in the asymptotic regime.
    let (mut all, mut admitted) = (Vec::new(), Vec::new());
    for k in 1..=depth {
        let f_k = mean_of(reports, |r| r.rates.f_k(k));
        // h_k from the final-tick level stats (mean across replications).
        let h_k = mean_h_k(reports, k);
        let product = f_k * h_k;
        if product.is_finite() && f_k > 0.0 {
            all.push(product);
            if in_regime(&level_pops(reports, k)) {
                admitted.push((k, product));
            }
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
    if let Some((min, max)) = spread(&all) {
        println!(
            "f_k*h_k spread across all levels: [{min:.3}, {max:.3}] ({:.1}x)",
            max / min
        );
    }
    let (levels, products): (Vec<usize>, Vec<f64>) = admitted.into_iter().unzip();
    if let Some((min, max)) = spread(&products) {
        println!(
            "eq. (9) claim (f_k ∝ 1/h_k, i.e. product ~ constant) at levels {levels:?} \
             (mean |V_k| >= {MIN_LEVEL_POP}): [{min:.3}, {max:.3}] ({:.1}x) -> {}",
            max / min,
            if max / min < 4.0 {
                "HOLDS"
            } else {
                "WEAK at the sparse top levels"
            }
        );
    }
}

/// `[min, max]` of `xs`, when it holds at least two values.
fn spread(xs: &[f64]) -> Option<(f64, f64)> {
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    (xs.len() >= 2).then_some((min, max))
}

/// Level `k`'s population in each replication (0 where it stops below).
fn level_pops(reports: &[SimReport], k: usize) -> Vec<usize> {
    let pop = |r: &SimReport| r.final_levels.get(k).map_or(0, |s| s.nodes);
    reports.iter().map(pop).collect()
}

/// The smallest mean level population E6's and E8's verdicts admit.
const MIN_LEVEL_POP: f64 = 16.0;

/// Whether a level is still in the asymptotic regime of eq. (7), given its
/// population in each replication (0 where a replication's hierarchy
/// stops below it): near the top of the hierarchy a cluster spans most of
/// the deployment area, so RWP legs are no longer long relative to the
/// cluster and the ballistic exit-time argument does not apply at finite
/// size (see EXPERIMENTS.md). The mean over replications decides, so one
/// seed's deep hierarchy does not admit a level the others barely reach.
fn in_regime(pops: &[usize]) -> bool {
    mean(pops.iter().map(|&p| p as f64)) >= MIN_LEVEL_POP
}

/// E8 (eq. 14, §5.3.1): `g'_k = Θ(1/h_k)` — the state-change frequency of
/// an individual level-k cluster link decays like `1/h_k`, because a pair
/// of level-k clusterheads must drift `Θ(h_k)` relative hops to make or
/// break a level-k link.
pub(crate) fn exp_eq14_gk() {
    let n = top_rung(2048);
    banner(
        "E8 / eq. (14)",
        "per-cluster-link state-change frequency g'_k",
        &[n],
        standard_runs(),
    );
    let reports = &standard_sweep(&[n])[0];

    let depth = reports.iter().map(|r| r.rates.max_level()).max().unwrap();
    let mut t = TextTable::new(vec![
        "level",
        "g_k (per node)",
        "g'_k all",
        "g'_k drift",
        "h_k",
        "drift*h_k",
    ]);
    // The drift-driven g'_k of every level, and g'_k · h_k of the levels
    // with a finite product still in the asymptotic regime.
    let (mut drift, mut products) = (Vec::new(), Vec::new());
    for k in 1..=depth {
        let gk = mean_of(reports, |r| r.rates.g_k(k));
        let gpk_all = mean_of(reports, |r| r.rates.g_prime_k(k));
        let gpk = mean_of(reports, |r| r.rates.g_prime_persisting_k(k));
        let h_k = mean_h_k(reports, k);
        let prod = gpk * h_k;
        if prod.is_finite() && gpk > 0.0 && in_regime(&level_pops(reports, k)) {
            products.push(prod);
        }
        drift.push(gpk);
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
    if let Some((min, max)) = spread(&products) {
        println!(
            "drift-driven g'_k*h_k spread (in-regime levels): [{min:.3}, {max:.3}] ({:.1}x)",
            max / min
        );
        // Three-way verdict: constant product (the claim), or a flicker-
        // dominated low-level regime with decay emerging above it, or no
        // support at all.
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

/// E10 (§5.2): the reorganization-event taxonomy.
///
/// Counts events (i)–(vii) per level per node-second, and the occurrences
/// of the *converse* of (vii) — a neighboring upper cluster dying — which
/// the paper argues incurs no handoff (we verify the case actually arises,
/// so the zero-cost claim is exercised, not vacuous).
pub(crate) fn exp_events_breakdown() {
    let n = top_rung(1024);
    banner(
        "E10 / §5.2",
        "event classes (i)-(vii) frequency breakdown",
        &[n],
        standard_runs(),
    );
    let reports = &standard_sweep(&[n])[0];
    let node_seconds: f64 = reports.iter().map(|r| r.rates.node_seconds).sum();

    // Pool counts across replications.
    let depth = reports.iter().map(|r| r.events.counts.len()).max().unwrap();
    let labels = ["i", "ii", "iii", "iv", "v", "vi", "vii"];
    let mut headers = vec!["level".to_string()];
    headers.extend(labels.iter().map(|l| format!("({l})")));
    headers.push("conv(vii)".into());
    let mut t = TextTable::new(headers);
    let mut class_totals = [0u64; 7];
    let mut conv_total = 0u64;
    for k in 1..depth {
        let mut row = vec![format!("{k}")];
        for c in 0..7 {
            let total: u64 = reports
                .iter()
                .map(|r| r.events.counts.get(k).map_or(0, |r| r[c]))
                .sum();
            class_totals[c] += total;
            row.push(fnum(total as f64 / node_seconds * 1000.0));
        }
        let conv: u64 = reports
            .iter()
            .map(|r| r.events.converse_vii.get(k).copied().unwrap_or(0))
            .sum();
        conv_total += conv;
        row.push(format!("{conv}"));
        t.row(row);
    }
    println!("rates in events per node per 1000 s; conv(vii) as raw count:");
    println!("{}", t.render());

    println!(
        "class totals (raw events across {} node-seconds):",
        node_seconds as u64
    );
    for (c, label) in labels.iter().enumerate() {
        println!("  ({label:>3}): {}", class_totals[c]);
    }
    println!("  converse of (vii) occurrences: {conv_total} (each incurs ZERO handoff");
    println!("  by the paper's argument — the members already hold the LM hierarchy).");
    // Steady-state balance: elections ≈ rejections (paper: f_ELECT = f_REJECT).
    let elect = class_totals[2] + class_totals[4];
    let reject = class_totals[3] + class_totals[5];
    println!(
        "\nelection/rejection balance: {elect} vs {reject} (ratio {:.2}; §5.3.2 predicts ≈ 1)",
        elect as f64 / reject.max(1) as f64
    );
}

/// E20 (§6 / companion \[16\]): cluster-maintenance overhead.
///
/// The conclusion cites \[16\] for "cluster maintenance … incur\[s\] packet
/// transmission counts that are only logarithmic in |V|". We price the
/// standard beaconing scheme on each claims run's *measured* final
/// hierarchy (real `d_k`, `h_k`, `|V_k|` rather than the idealized uniform
/// arity) and fit the per-node total across sizes.
pub(crate) fn exp_maintenance() {
    let sizes = sweep_sizes();
    banner(
        "E20 / [16]",
        "cluster-maintenance beaconing overhead vs n",
        &sizes,
        standard_runs(),
    );
    let sweep = standard_sweep(&sizes);
    // Level-0 HELLO at 1 Hz.
    let priced = |r: &SimReport| price_maintenance(&r.final_levels, 1.0);
    let series = MetricSeries::of("maintenance", &sizes, &sweep, |r| priced(r).1);
    let depth = MetricSeries::of("L", &sizes, &sweep, levels_above_0);
    let lvl0 = MetricSeries::of("lvl0_pct", &sizes, &sweep, |r| {
        let (costs, total) = priced(r);
        100.0 * costs[0].per_node_per_second / total
    });
    print_series(&[&series, &depth, &lvl0]);
    print_fits(&series, ModelClass::LogN);
    println!("each level prices at Θ(1) per node (beacon rate 1/h_k × d_k·h_k packets");
    println!("amortized over c_k members), so the total tracks the level count L.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(level: usize, arity: f64) -> LevelStats {
        LevelStats {
            level,
            nodes: 1,
            edges: 0,
            arity,
            aggregation: 1.0,
            mean_degree: 0.0,
            intra_cluster_hops: None,
        }
    }

    #[test]
    fn mean_alpha_of_a_one_level_hierarchy_is_positive_zero() {
        for stats in [vec![], vec![level(0, 0.0)]] {
            assert_eq!(mean_alpha(&stats).to_bits(), 0.0f64.to_bits());
        }
        let three = [level(0, 0.0), level(1, 4.0), level(2, 3.0)];
        assert_eq!(mean_alpha(&three), 3.5);
    }

    #[test]
    fn one_populous_seed_does_not_admit_a_level() {
        assert!(!in_regime(&[16, 4, 4, 4, 4, 4]));
        assert!(!in_regime(&[16, 0, 0]));
        assert!(in_regime(&[16, 16, 20]));
        assert!(in_regime(&[30, 2]));
    }
}
