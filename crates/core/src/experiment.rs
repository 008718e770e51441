//! Sweep-and-summarize helpers shared by examples and experiment binaries.

use chlm_analysis::stats::Summary;
use chlm_sim::{run_replications, runner::seed_range, SimConfig, SimReport};

/// All replications at one network size.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub n: usize,
    pub reports: Vec<SimReport>,
}

impl SweepPoint {
    /// Summary of `metric` across this point's replications.
    pub fn summary<F: Fn(&SimReport) -> f64>(&self, metric: F) -> Summary {
        let xs: Vec<f64> = self.reports.iter().map(metric).collect();
        // audit: infallible because run_replications always yields >= 1 report
        Summary::of(&xs).expect("sweep point with no replications")
    }
}

/// A named series extracted from a sweep: one (mean, ci95) per size.
#[derive(Debug, Clone)]
pub struct MetricSeries {
    pub name: String,
    pub sizes: Vec<f64>,
    pub means: Vec<f64>,
    pub ci95: Vec<f64>,
}

impl MetricSeries {
    /// `(sizes, means)` view for the regression fitter.
    pub fn xy(&self) -> (&[f64], &[f64]) {
        (&self.sizes, &self.means)
    }
}

/// Run a scaling sweep: for each size, build a config with `make_config`
/// and run `replications` seeded replications (`base_seed + i`) across
/// `threads` threads.
pub fn sweep<F: Fn(usize) -> SimConfig>(
    sizes: &[usize],
    replications: usize,
    base_seed: u64,
    threads: usize,
    make_config: F,
) -> Vec<SweepPoint> {
    assert!(replications >= 1);
    sizes
        .iter()
        .map(|&n| {
            let cfg = make_config(n);
            assert_eq!(cfg.n, n, "make_config must honor the requested size");
            let seeds = seed_range(base_seed, replications);
            let reports = run_replications(&cfg, &seeds, threads);
            SweepPoint { n, reports }
        })
        .collect()
}

/// Extract a named metric series from sweep points.
pub fn summarize_metric<F: Fn(&SimReport) -> f64>(
    points: &[SweepPoint],
    name: &str,
    metric: F,
) -> MetricSeries {
    let mut sizes = Vec::with_capacity(points.len());
    let mut means = Vec::with_capacity(points.len());
    let mut ci95 = Vec::with_capacity(points.len());
    for p in points {
        let s = p.summary(&metric);
        sizes.push(p.n as f64);
        means.push(s.mean);
        ci95.push(s.ci95());
    }
    MetricSeries {
        name: name.to_string(),
        sizes,
        means,
        ci95,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_sim::SimConfig;

    #[test]
    fn sweep_runs_and_summarizes() {
        let points = sweep(&[40, 80], 2, 100, 2, |n| {
            SimConfig::builder(n).duration(1.0).warmup(0.2).build()
        });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].reports.len(), 2);
        let series = summarize_metric(&points, "f0", |r| r.f0);
        assert_eq!(series.sizes, vec![40.0, 80.0]);
        assert!(series.means.iter().all(|&m| m > 0.0));
        let (xs, ys) = series.xy();
        assert_eq!(xs.len(), ys.len());
    }

    #[test]
    #[should_panic]
    fn make_config_must_honor_size() {
        sweep(&[10], 1, 0, 1, |_| {
            SimConfig::builder(5).duration(1.0).build()
        });
    }
}
