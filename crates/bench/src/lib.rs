//! The experiments and their shared plumbing.
//!
//! Every record of the [`experiments`] registry regenerates one row of
//! DESIGN.md's experiment index (`cargo run -p chlm-bench --release --bin
//! chlm-exp -- <id>`). Scale knobs come from the environment so the same
//! records serve quick smoke runs and the full EXPERIMENTS.md
//! regeneration. A value that does not parse or lies outside its range is
//! a usage error (message on stderr, exit status 2):
//!
//! * `CHLM_MAX_N` — largest network size in sweeps (default 1024, 4096
//!   for E24; at least the first rung of the record's size ladder),
//! * `CHLM_SEEDS` — replications per point (default 6, ≥ 1),
//! * `CHLM_DURATION` — measured seconds per replication (default 8, 4
//!   for E27; > 0),
//! * `CHLM_WARMUP` — warmup seconds before measurement (default 6, 2 for
//!   E27; ≥ 0; the sweeps extend it to two region crossings),
//! * `CHLM_MOBILITY_N` — E16's network size (default 512, ≥ 1),
//! * `CHLM_SCALE_N` — E26's extrapolation size (default 16384, > 1024 so
//!   two calibration sizes lie below it),
//! * `CHLM_SCALE_SEEDS` — E26's replications at that size (default 5, ≥ 1),
//! * `CHLM_THREADS` — worker threads (default: available parallelism;
//!   read by `chlm_par::thread_budget`, shared with every intra-tick pool).
//!
//! Every simulated table comes from one [`chlm_sim::run_sweep`] pool over
//! its whole (cell × seed) job list, through [`chlm_sim::run_cells`]
//! (`standard_sweep`) or [`chlm_sim::run_grid`].

pub mod experiments;
pub mod lm_compare;
pub mod query_crossover;

use chlm_analysis::regression::{best_fit, class_is_competitive, FitResult, ModelClass};
use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, Point, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::{Graph, NodeIdx};
use chlm_sim::oracle::{euclidean_hops, DEFAULT_DETOUR};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_cells, SimConfig, SimReport, DENSITY};

/// The value of knob `name`: `default` when unset (`raw` is `None`), the
/// parsed value when set and `valid`, and otherwise a message naming the
/// knob, what it takes (`expected`: type and range) and what it got — a
/// typo must not silently run the defaults, and a value no run can use
/// must not reach the code that would panic on it.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .trim()
            .parse()
            .ok()
            .filter(valid)
            .ok_or_else(|| format!("{name}: expected {expected}, got {v:?}")),
    }
}

/// Read knob `name` from the environment; a malformed or out-of-range
/// value is a usage error (message on stderr, exit status 2).
fn env_knob<T: std::str::FromStr>(
    name: &str,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default, expected, valid).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Read a `usize` env knob whose valid range is `min..`.
fn env_usize(name: &str, default: usize, min: usize) -> usize {
    env_knob(name, default, &format!("an integer >= {min}"), |&v| {
        v >= min
    })
}

/// `CHLM_DURATION`: measured seconds per replication.
fn measured_seconds(default: f64) -> f64 {
    env_knob("CHLM_DURATION", default, "a number > 0", |&v: &f64| {
        v > 0.0 && v.is_finite()
    })
}

/// `CHLM_WARMUP`: warmup seconds before measurement starts.
fn warmup_seconds(default: f64) -> f64 {
    env_knob("CHLM_WARMUP", default, "a number >= 0", |&v: &f64| {
        v >= 0.0 && v.is_finite()
    })
}

/// The first rung of the standard size ladder.
const MIN_N: usize = 128;

/// The size ladder `from, 2·from, …` up to `max` (fixed density, so area
/// grows with `n` per §1.2).
fn scaling_sizes(from: usize, max: usize) -> Vec<usize> {
    std::iter::successors(Some(from), |n| n.checked_mul(2))
        .take_while(|&n| n <= max)
        .collect()
}

/// The sweep sizes for scaling experiments: 128 doubling up to
/// `CHLM_MAX_N`.
fn sweep_sizes() -> Vec<usize> {
    scaling_sizes(MIN_N, env_usize("CHLM_MAX_N", 1024, MIN_N))
}

/// Replications per sweep point.
fn replications() -> usize {
    env_usize("CHLM_SEEDS", 6, 1)
}

/// Worker threads — the workspace-wide `CHLM_THREADS` budget (one knob
/// shared with every intra-tick pool; see `chlm_par::thread_budget`).
fn threads() -> usize {
    chlm_par::thread_budget()
}

/// The standard mobile configuration used by the sweeps.
///
/// Warmup scales with the region-crossing time (`radius / μ`) so the
/// random-waypoint process is equally mixed at every size — otherwise the
/// spatial distribution (and with it mean degree and f₀) drifts with `n`
/// and confounds the scaling fits.
fn standard_config(n: usize) -> SimConfig {
    let mut cfg = SimConfig::builder(n)
        .duration(measured_seconds(8.0))
        .warmup(warmup_seconds(6.0))
        .build();
    let crossing = cfg.region_radius() / cfg.speed;
    cfg.warmup = cfg.warmup.max(2.0 * crossing);
    cfg
}

/// What each size of [`standard_sweep`] runs, as [`banner`] states it.
fn standard_runs() -> Option<(usize, f64)> {
    Some((replications(), measured_seconds(8.0)))
}

/// The standard sweep: [`standard_config`] at each size, [`replications`]
/// seeds from `base_seed`, all sizes in one pool under the `CHLM_THREADS`
/// budget. `reports[size]` is that size's replication set in seed order.
fn standard_sweep(sizes: &[usize], base_seed: u64) -> Vec<Vec<SimReport>> {
    let cells: Vec<SimConfig> = sizes.iter().map(|&n| standard_config(n)).collect();
    run_cells(&cells, &seed_range(base_seed, replications()), threads())
}

/// Mean of `xs` (`Σ / len`, summed in order); NaN when empty.
fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let xs: Vec<f64> = xs.into_iter().collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean of `metric` over a replication set.
fn mean_of(reports: &[SimReport], metric: impl Fn(&SimReport) -> f64) -> f64 {
    mean(reports.iter().map(metric))
}

/// Mean of `metric` over the replications that report it; NaN when none
/// does (a level only some seeds' hierarchies reach).
fn mean_some(reports: &[SimReport], metric: impl Fn(&SimReport) -> Option<f64>) -> f64 {
    mean(reports.iter().filter_map(metric))
}

/// Summary (mean, ci95, …) of `metric` over a replication set.
fn summarize(reports: &[SimReport], metric: impl Fn(&SimReport) -> f64) -> Summary {
    Summary::over(reports, metric)
        .expect("replication set is empty (CHLM_SEEDS >= 1 is checked at the knob)")
}

/// Shortest-roundtrip float rendering (`{:?}`) for the golden JSON files:
/// deterministic, and parses back to the identical bits. JSON has no NaN
/// or infinity; those render as `null` (a degenerate crossover slope; in a
/// scheme comparison only a bug produces one).
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A named series: one (mean, ci95) per network size.
#[derive(Debug, Clone)]
struct MetricSeries {
    name: String,
    sizes: Vec<f64>,
    means: Vec<f64>,
    ci95: Vec<f64>,
}

impl MetricSeries {
    /// An empty series to [`MetricSeries::push`] points onto.
    fn new(name: &str) -> Self {
        MetricSeries {
            name: name.to_string(),
            sizes: Vec::new(),
            means: Vec::new(),
            ci95: Vec::new(),
        }
    }

    /// `metric` summarized per size over the replication sets of a sweep
    /// (`reports[size]`, as [`standard_sweep`] returns them).
    fn of(
        name: &str,
        sizes: &[usize],
        reports: &[Vec<SimReport>],
        metric: impl Fn(&SimReport) -> f64,
    ) -> Self {
        let mut series = MetricSeries::new(name);
        for (&n, replications) in sizes.iter().zip(reports) {
            let s = summarize(replications, &metric);
            series.push(n, s.mean, s.ci95());
        }
        series
    }

    /// Append the point for size `n`.
    fn push(&mut self, n: usize, mean: f64, ci95: f64) {
        self.sizes.push(n as f64);
        self.means.push(mean);
        self.ci95.push(ci95);
    }

    /// `(sizes, means)` view for the regression fitter.
    fn xy(&self) -> (&[f64], &[f64]) {
        (&self.sizes, &self.means)
    }
}

/// The radio range giving the standard mean degree 9 at [`DENSITY`]
/// (comfortably above the connectivity threshold \[2, 3\]).
fn standard_rtx() -> f64 {
    chlm_geom::rtx_for_degree(9.0, DENSITY)
}

/// The disk holding `n` nodes at [`DENSITY`].
fn standard_region(n: usize) -> Disk {
    Disk::centered(chlm_geom::disk_radius_for_density(n, DENSITY))
}

/// The standard static deployment of the structural experiments: `n`
/// nodes uniform in [`standard_region`], their unit-disk graph at
/// [`standard_rtx`], and a random election-id permutation.
struct Deployment {
    rtx: f64,
    pts: Vec<Point>,
    graph: Graph,
    ids: Vec<u64>,
}

impl Deployment {
    /// Draw a deployment from `rng`: the positions first, then the ids, so
    /// a caller that keeps drawing from `rng` afterwards (sampled pairs,
    /// victims, level statistics) continues the same stream.
    fn draw(n: usize, rng: &mut SimRng) -> Self {
        let region = standard_region(n);
        let rtx = standard_rtx();
        let pts = chlm_geom::region::deploy_uniform(&region, n, rng);
        let graph = build_unit_disk(&pts, rtx);
        let ids = rng.permutation(n);
        Deployment {
            rtx,
            pts,
            graph,
            ids,
        }
    }

    /// The LCA hierarchy over this deployment.
    fn hierarchy(&self, opts: HierarchyOptions) -> Hierarchy {
        Hierarchy::build(&self.ids, &self.graph, opts)
    }

    /// Euclidean hop estimate between two nodes at the fixed
    /// [`DEFAULT_DETOUR`] factor, at least one hop.
    fn hops(&self, a: NodeIdx, b: NodeIdx) -> f64 {
        let p = &self.pts;
        euclidean_hops(p[a as usize], p[b as usize], self.rtx, DEFAULT_DETOUR)
    }
}

/// Print one metric series as a table with confidence intervals.
fn print_series(series: &[&MetricSeries]) {
    assert!(!series.is_empty());
    let mut headers = vec!["n".to_string()];
    for s in series {
        headers.push(s.name.clone());
        headers.push(format!("{}_ci95", s.name));
    }
    let mut t = TextTable::new(headers);
    for (i, &n) in series[0].sizes.iter().enumerate() {
        let mut row = vec![format!("{}", n as usize)];
        for s in series {
            row.push(fnum(s.means[i]));
            row.push(fnum(s.ci95[i]));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

/// Fit all scaling classes to a series, print the ranking, and state
/// whether `claimed` is the winner or statistically competitive.
fn print_fits(series: &MetricSeries, claimed: ModelClass) -> Vec<FitResult> {
    let (xs, ys) = series.xy();
    let fits = best_fit(xs, ys);
    println!("scaling fits for `{}` (best first):", series.name);
    for f in &fits {
        println!(
            "  {:<10} r2 = {:+.4}  (a = {:.4}, b = {:.4})",
            f.class.name(),
            f.r2,
            f.a,
            f.b
        );
    }
    let verdict = if fits[0].class == claimed {
        "CLAIM HOLDS (best fit)"
    } else if class_is_competitive(&fits, claimed, 0.05) {
        "CLAIM HOLDS (within noise of best)"
    } else {
        "CLAIM NOT SUPPORTED at these sizes"
    };
    println!("paper claims {} -> {verdict}\n", claimed.name());
    fits
}

/// Standard experiment banner, naming the network sizes the record runs
/// (`n = …` for one, the ladder for several) and, for a record that
/// simulates, what each size's runs are: `timed = Some((seeds,
/// seconds))`, that many replications of that many measured seconds.
/// A record over static snapshots passes `None`.
fn banner(id: &str, what: &str, sizes: &[usize], timed: Option<(usize, f64)>) {
    println!("== {id}: {what} ==");
    println!("{}\n", banner_line(sizes, timed, threads()));
}

/// The line under a banner's title; see [`banner`].
fn banner_line(sizes: &[usize], timed: Option<(usize, f64)>, threads: usize) -> String {
    let sizes = match sizes {
        [n] => format!("n = {n}"),
        _ => format!("sizes {sizes:?}"),
    };
    match timed {
        Some((seeds, seconds)) => {
            let plural = if seeds == 1 { "" } else { "s" };
            // To the millisecond: a record sized in ticks measures a
            // fraction of a second.
            let seconds = (seconds * 1e3).round() / 1e3;
            format!("{sizes}, {seeds} replication{plural}, {seconds}s measured, {threads} threads")
        }
        None => format!("{sizes}, static snapshots, {threads} threads"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("CHLM_DOES_NOT_EXIST", 7, 1), 7);
        assert!(threads() >= 1);
        assert!(!sweep_sizes().is_empty());
    }

    #[test]
    fn unset_knob_takes_the_default() {
        assert_eq!(parse_knob("CHLM_SEEDS", None, 6usize, "x", |_| true), Ok(6));
        assert_eq!(
            parse_knob("CHLM_SEEDS", Some(" 10 "), 6usize, "x", |_| true),
            Ok(10)
        );
        assert_eq!(
            parse_knob("CHLM_DURATION", Some("2.5"), 8.0, "x", |_| true),
            Ok(2.5)
        );
        // The default is not range-checked: it is the program's, not the
        // user's.
        assert_eq!(
            parse_knob("CHLM_SEEDS", None, 0usize, "x", |&v| v >= 1),
            Ok(0)
        );
    }

    #[test]
    fn malformed_knob_is_an_error_not_the_default() {
        // Letter O for zero: used to run 6 seeds and print a valid-looking
        // table.
        assert_eq!(
            parse_knob("CHLM_SEEDS", Some("1O"), 6usize, "an integer >= 1", |_| {
                true
            }),
            Err("CHLM_SEEDS: expected an integer >= 1, got \"1O\"".to_string())
        );
        assert!(parse_knob("CHLM_SEEDS", Some("-3"), 6usize, "x", |_| true).is_err());
        assert!(parse_knob("CHLM_SEEDS", Some(""), 6usize, "x", |_| true).is_err());
        assert!(parse_knob("CHLM_DURATION", Some("8s"), 8.0, "x", |_| true).is_err());
    }

    #[test]
    fn out_of_range_knob_is_an_error_not_a_panic() {
        // Each of these used to reach an assert or an empty fit input.
        let at_least = |min: usize| move |v: &usize| *v >= min;
        assert_eq!(
            parse_knob("CHLM_SEEDS", Some("0"), 6, "an integer >= 1", at_least(1)),
            Err("CHLM_SEEDS: expected an integer >= 1, got \"0\"".to_string())
        );
        assert!(parse_knob("CHLM_MAX_N", Some("64"), 1024, "x", at_least(MIN_N)).is_err());
        assert_eq!(
            parse_knob("CHLM_MAX_N", Some("128"), 1024, "x", at_least(MIN_N)),
            Ok(128)
        );
        assert!(parse_knob("CHLM_SCALE_N", Some("512"), 16384, "x", at_least(1025)).is_err());
        assert!(parse_knob("CHLM_SCALE_N", Some("1024"), 16384, "x", at_least(1025)).is_err());
        let positive = |v: &f64| *v > 0.0 && v.is_finite();
        for bad in ["0", "-1", "nan", "inf"] {
            assert!(parse_knob("CHLM_DURATION", Some(bad), 8.0, "x", positive).is_err());
        }
    }

    #[test]
    fn banner_states_what_the_record_ran() {
        assert_eq!(
            banner_line(&[128, 256], Some((6, 8.0)), 2),
            "sizes [128, 256], 6 replications, 8s measured, 2 threads"
        );
        assert_eq!(
            banner_line(&[512], Some((1, 12.0 * 0.0757)), 2),
            "n = 512, 1 replication, 0.908s measured, 2 threads"
        );
        assert_eq!(
            banner_line(&[256, 1024], None, 2),
            "sizes [256, 1024], static snapshots, 2 threads"
        );
    }

    #[test]
    fn sizes_double_up_to_max() {
        assert_eq!(scaling_sizes(128, 1024), vec![128, 256, 512, 1024]);
        assert_eq!(scaling_sizes(256, 1000), vec![256, 512]);
        assert_eq!(scaling_sizes(128, 100), Vec::<usize>::new());
    }

    #[test]
    fn standard_config_sane() {
        let cfg = standard_config(128);
        assert_eq!(cfg.n, 128);
        assert!(cfg.duration > 0.0);
    }

    #[test]
    fn means_keep_the_hand_written_arithmetic() {
        let xs = [0.1, 0.2, 0.7, 1e-9];
        assert_eq!(mean(xs), xs.iter().sum::<f64>() / xs.len() as f64);
        assert_eq!(mean(xs), Summary::of(&xs).unwrap().mean);
        assert!(mean([]).is_nan());
    }

    #[test]
    fn series_summarizes_a_sweep_per_size() {
        let cells: Vec<SimConfig> = [40, 80]
            .into_iter()
            .map(|n| SimConfig::builder(n).duration(1.0).warmup(0.2).build())
            .collect();
        let reports = run_cells(&cells, &seed_range(100, 2), 2);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].len(), 2);
        let series = MetricSeries::of("f0", &[40, 80], &reports, |r| r.f0);
        assert_eq!(series.sizes, vec![40.0, 80.0]);
        assert_eq!(series.means[1], mean_of(&reports[1], |r| r.f0));
        assert!(series.means.iter().all(|&m| m > 0.0));
        let (xs, ys) = series.xy();
        assert_eq!(xs.len(), ys.len());
        assert!(mean_some(&reports[0], |_| None).is_nan());
    }

    #[test]
    fn deployment_draws_points_then_ids() {
        let mut rng = SimRng::seed_from(4128);
        let d = Deployment::draw(128, &mut rng);
        let mut again = SimRng::seed_from(4128);
        let pts = chlm_geom::region::deploy_uniform(&standard_region(128), 128, &mut again);
        assert_eq!(d.pts, pts);
        assert_eq!(d.ids, again.permutation(128));
        assert_eq!(rng.index(1000), again.index(1000));
        assert_eq!(d.graph, build_unit_disk(&pts, standard_rtx()));
        assert!(d.hierarchy(HierarchyOptions::default()).depth() >= 2);
        assert!(d.hops(0, 0) == 1.0);
    }
}
