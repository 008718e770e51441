//! Parallel multi-seed replication and the sweep orchestrator.
//!
//! Experiments report means and confidence intervals over independent
//! replications (different seeds, same configuration). Replications — and
//! whole multiplexed world-runs ([`run_sweep`]) — are embarrassingly
//! parallel; both fan out through
//! [`chlm_par::WorkerPool::run_indexed`], whose lock-free ticket counter
//! plus index-addressed scatter makes the results byte-identical at any
//! thread count and under `CHLM_SHUFFLE_MERGE` schedule fuzzing.
//!
//! Thread budgeting: independent jobs share nothing and scale with the
//! thread count, while a second intra-tick thread buys about 1.2x (the
//! benchmark's `world-65k` / `world-65k-t2` pair, n = 65536, 2-core box:
//! `tick_ms_p50` ≈ 170–182 vs ≈ 148 ms). [`budget_split`] therefore
//! fills the job-level fan-out first and hands each job's intra-tick pool
//! only the threads the fan-out cannot use — all of them for a one-job
//! run, none for a sweep with at least as many jobs as threads. Reports
//! are bit-identical for every split; only wall-clock changes.

use crate::config::SimConfig;
use crate::multiplex::{run_multiplexed, VariantSpec};
use crate::report::SimReport;
use chlm_par::WorkerPool;

/// Split a total thread budget between the job-level fan-out (`outer`)
/// and each job's intra-tick pool (`inner`), for `jobs` parallel jobs:
/// `outer = min(threads, jobs)`, `inner = max(threads / outer, 1)`. Every
/// thread goes to the job level, where scaling is near-linear (see the
/// module docs), until there are more threads than jobs; the surplus is
/// divided among the jobs' inner pools, never oversubscribing.
///
/// Reports are bit-identical for every split (the thread-invariance
/// contract); only wall-clock differs.
pub fn budget_split(threads: usize, jobs: usize) -> (usize, usize) {
    assert!(threads >= 1);
    let outer = threads.min(jobs.max(1));
    (outer, (threads / outer).max(1))
}

/// Run `seeds.len()` replications of `cfg` (seed overridden per
/// replication) and return their reports in seed order: a [`run_sweep`]
/// of one-variant jobs, so thread budgeting, work distribution and the
/// thread-invariance guarantee are that function's. Respects
/// `cfg.backend` — replications run on whichever backend the config
/// selects.
pub fn run_replications(cfg: &SimConfig, seeds: &[u64], threads: usize) -> Vec<SimReport> {
    let jobs: Vec<SweepJob> = seeds
        .iter()
        .map(|&seed| SweepJob {
            cfg: cfg.clone(),
            seed,
            variants: vec![VariantSpec::from_config("", cfg)],
        })
        .collect();
    run_sweep(&jobs, threads)
        .into_iter()
        .map(|mut reports| reports.swap_remove(0))
        .collect()
}

/// One node of the sweep job graph: a world (config + seed) and the
/// variants to fan out against it. The job is the unit workers claim —
/// one claimed ticket is one full multiplexed world-run.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Base configuration; its scheme/metric/backend axes are ignored in
    /// favor of `variants`.
    pub cfg: SimConfig,
    /// Seed overriding `cfg.seed` for this world.
    pub seed: u64,
    /// The variants priced against this world, in report order.
    pub variants: Vec<VariantSpec>,
}

/// The work-stealing sweep orchestrator: run every job's world once and
/// fan its tick stream out to the job's variants
/// ([`crate::multiplex::run_multiplexed`]), with whole world-runs claimed
/// off the [`WorkerPool`] ticket counter. Returns one `Vec<SimReport>`
/// per job (job order), each in the job's variant order — byte-identical
/// at any thread count and under `CHLM_SHUFFLE_MERGE`.
///
/// Work distribution is [`WorkerPool::run_indexed`]: workers claim job
/// indices off a lock-free ticket counter and results are scattered into
/// index-addressed slots. The thread budget follows [`budget_split`].
pub fn run_sweep(jobs: &[SweepJob], threads: usize) -> Vec<Vec<SimReport>> {
    let (outer, inner) = budget_split(threads, jobs.len());
    WorkerPool::new(outer).run_indexed(jobs.len(), |idx| {
        let job = &jobs[idx];
        let mut base = job.cfg.clone();
        base.seed = job.seed;
        base.threads = inner;
        run_multiplexed(&base, &job.variants)
    })
}

/// Default seed list `base..base + count`.
pub fn seed_range(base: u64, count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| base + i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, LmScheme};

    #[test]
    fn parallel_matches_sequential() {
        let cfg = SimConfig::builder(60).duration(1.5).warmup(0.2).build();
        let seeds = seed_range(10, 4);
        let par = run_replications(&cfg, &seeds, 4);
        let seq = run_replications(&cfg, &seeds, 1);
        assert_eq!(par.len(), 4);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.seed, s.seed);
            assert_eq!(p.f0, s.f0);
            assert_eq!(p.ledger, s.ledger);
        }
    }

    #[test]
    fn more_threads_than_seeds_is_fine() {
        let cfg = SimConfig::builder(40).duration(1.0).warmup(0.2).build();
        let reports = run_replications(&cfg, &seed_range(3, 2), 8);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].seed, 3);
        assert_eq!(reports[1].seed, 4);
    }

    #[test]
    fn replications_respect_backend() {
        let cfg = SimConfig::builder(60)
            .duration(1.0)
            .warmup(0.2)
            .target_degree(12.0)
            .hop_metric(crate::config::HopMetric::Bfs)
            .backend(Backend::packet())
            .build();
        let seeds = seed_range(21, 2);
        let packet = run_replications(&cfg, &seeds, 2);
        let mut analytic_cfg = cfg;
        analytic_cfg.backend = Backend::Analytic;
        let analytic = run_replications(&analytic_cfg, &seeds, 2);
        // Dense + lossless: the packet backend reproduces the analytic
        // ledger (the parity integration test pins the strong form).
        for (p, a) in packet.iter().zip(&analytic) {
            assert_eq!(p.seed, a.seed);
            assert_eq!(p.events, a.events);
        }
    }

    #[test]
    fn budget_split_fills_the_job_level_first() {
        // At least as many jobs as threads: the whole budget drives the
        // outer fan-out and inner pools stay serial.
        assert_eq!(budget_split(8, 16), (8, 1));
        assert_eq!(budget_split(8, 8), (8, 1));
        assert_eq!(budget_split(1, 5), (1, 1));
    }

    #[test]
    fn budget_split_hands_surplus_threads_to_the_inner_pools() {
        // A one-job run uses the whole budget inside the tick.
        assert_eq!(budget_split(3, 1), (1, 3));
        assert_eq!(budget_split(4, 0), (1, 4));
        // More threads than jobs: the surplus is divided, rounding down,
        // so outer * inner never exceeds the budget.
        assert_eq!(budget_split(8, 4), (4, 2));
        assert_eq!(budget_split(8, 3), (3, 2));
        assert_eq!(budget_split(5, 4), (4, 1));
    }

    #[test]
    fn sweep_matches_independent_runs() {
        let cfg = SimConfig::builder(50).duration(1.0).warmup(0.2).build();
        let variants = vec![
            VariantSpec::from_config("chlm", &cfg),
            VariantSpec::new("home", LmScheme::HomeAgent, cfg.hop_metric, cfg.backend),
        ];
        let jobs: Vec<SweepJob> = seed_range(31, 3)
            .into_iter()
            .map(|seed| SweepJob {
                cfg: cfg.clone(),
                seed,
                variants: variants.clone(),
            })
            .collect();
        for threads in [1, 4] {
            let grid = run_sweep(&jobs, threads);
            assert_eq!(grid.len(), jobs.len());
            for (job, reports) in jobs.iter().zip(&grid) {
                assert_eq!(reports.len(), variants.len());
                for (variant, report) in variants.iter().zip(reports) {
                    let mut c = variant.apply(&cfg);
                    c.seed = job.seed;
                    c.threads = 1;
                    assert_eq!(report, &crate::run_simulation(&c), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn seed_range_contents() {
        assert_eq!(seed_range(5, 3), vec![5, 6, 7]);
        assert!(seed_range(1, 0).is_empty());
    }
}
