//! Shared plumbing for the experiment binaries.
//!
//! Every binary regenerates one row of DESIGN.md's experiment index
//! (`cargo run -p chlm-bench --release --bin exp_…`). Scale knobs come from
//! the environment so the same binaries serve quick smoke runs and the
//! full EXPERIMENTS.md regeneration:
//!
//! * `CHLM_MAX_N`  — largest network size in sweeps (default 1024),
//! * `CHLM_SEEDS`  — replications per point (default 6),
//! * `CHLM_DURATION` — measured seconds per replication (default 8),
//! * `CHLM_THREADS` — worker threads (default: available parallelism).

pub mod lm_compare;
pub mod query_crossover;

use chlm_analysis::regression::{best_fit, class_is_competitive, FitResult, ModelClass};
use chlm_analysis::table::{fnum, TextTable};
use chlm_core::experiment::MetricSeries;
use chlm_sim::SimConfig;

/// The value of knob `name`: `default` when unset (`raw` is `None`), the
/// parsed value when set, and otherwise a message naming the knob, what it
/// takes and what it got — a typo must not silently run the defaults.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    default: T,
    expected: &str,
) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("{name}: expected {expected}, got {v:?}")),
    }
}

/// Read knob `name` from the environment; a malformed value is a usage
/// error (message on stderr, exit status 2).
fn env_knob<T: std::str::FromStr>(name: &str, default: T, expected: &str) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default, expected).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Read a `usize` env knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    env_knob(name, default, "an unsigned integer")
}

/// Read an `f64` env knob.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_knob(name, default, "a number")
}

/// The sweep sizes for scaling experiments: 128 doubling up to
/// `CHLM_MAX_N`.
pub fn sweep_sizes() -> Vec<usize> {
    chlm_core::scenario::scaling_sizes(env_usize("CHLM_MAX_N", 1024))
}

/// Replications per sweep point.
pub fn replications() -> usize {
    env_usize("CHLM_SEEDS", 6)
}

/// Worker threads — the workspace-wide `CHLM_THREADS` budget (one knob
/// shared with every intra-tick pool; see `chlm_par::thread_budget`).
pub fn threads() -> usize {
    chlm_par::thread_budget()
}

/// The standard mobile configuration used by the sweeps.
///
/// Warmup scales with the region-crossing time (`radius / μ`) so the
/// random-waypoint process is equally mixed at every size — otherwise the
/// spatial distribution (and with it mean degree and f₀) drifts with `n`
/// and confounds the scaling fits.
pub fn standard_config(n: usize) -> SimConfig {
    let mut cfg = SimConfig::builder(n)
        .duration(env_f64("CHLM_DURATION", 8.0))
        .warmup(env_f64("CHLM_WARMUP", 6.0))
        .build();
    let crossing = cfg.region_radius() / cfg.speed;
    cfg.warmup = cfg.warmup.max(2.0 * crossing);
    cfg
}

/// Print one metric series as a table with confidence intervals.
pub fn print_series(series: &[&MetricSeries]) {
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
pub fn print_fits(series: &MetricSeries, claimed: ModelClass) -> Vec<FitResult> {
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

/// Standard experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("== {id}: {what} ==");
    println!(
        "sizes {:?}, {} replications, {}s measured, {} threads\n",
        sweep_sizes(),
        replications(),
        env_f64("CHLM_DURATION", 8.0),
        threads()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("CHLM_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("CHLM_DOES_NOT_EXIST", 1.5), 1.5);
        assert!(threads() >= 1);
        assert!(!sweep_sizes().is_empty());
    }

    #[test]
    fn unset_knob_takes_the_default() {
        assert_eq!(parse_knob("CHLM_SEEDS", None, 6usize, "x"), Ok(6));
        assert_eq!(parse_knob("CHLM_SEEDS", Some(" 10 "), 6usize, "x"), Ok(10));
        assert_eq!(parse_knob("CHLM_DURATION", Some("2.5"), 8.0, "x"), Ok(2.5));
    }

    #[test]
    fn malformed_knob_is_an_error_not_the_default() {
        // Letter O for zero: used to run 6 seeds and print a valid-looking
        // table.
        assert_eq!(
            parse_knob("CHLM_SEEDS", Some("1O"), 6usize, "an unsigned integer"),
            Err("CHLM_SEEDS: expected an unsigned integer, got \"1O\"".to_string())
        );
        assert!(parse_knob("CHLM_SEEDS", Some("-3"), 6usize, "x").is_err());
        assert!(parse_knob("CHLM_SEEDS", Some(""), 6usize, "x").is_err());
        assert!(parse_knob("CHLM_DURATION", Some("8s"), 8.0, "a number").is_err());
    }

    #[test]
    fn standard_config_sane() {
        let cfg = standard_config(128);
        assert_eq!(cfg.n, 128);
        assert!(cfg.duration > 0.0);
    }
}
