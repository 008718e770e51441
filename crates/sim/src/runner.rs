//! The sweep orchestrator: parallel multi-seed, multi-variant runs.
//!
//! Experiments report means and confidence intervals over independent
//! replications (different seeds, same configuration). Whole world-runs
//! are embarrassingly parallel; [`run_sweep`] (every fan-out but E19's in
//! `chlm-bench`, whose tracker is no report field) claims them through
//! [`chlm_par::WorkerPool::run_indexed`], whose lock-free ticket counter
//! plus index-addressed scatter makes the results byte-identical at any
//! thread count and under `CHLM_SHUFFLE_MERGE` schedule fuzzing.
//! [`run_grid`] and [`run_cells`] lay a (config × seed) grid out as jobs
//! and hand the replications back per cell.
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

/// The jobs of a (cell × seed) grid — cell-major, seed order within a
/// cell — each cell fanned out to the variants `variants_of` names for it.
/// [`run_grid`] and [`run_cells`] keep this layout to themselves.
fn grid_jobs(
    cells: &[SimConfig],
    seeds: &[u64],
    variants_of: impl Fn(&SimConfig) -> Vec<VariantSpec>,
) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(cells.len() * seeds.len());
    for cfg in cells {
        let variants = variants_of(cfg);
        jobs.extend(seeds.iter().map(|&seed| SweepJob {
            cfg: cfg.clone(),
            seed,
            variants: variants.clone(),
        }));
    }
    jobs
}

/// The (cell × seed × variant) grid behind every experiment table: run
/// each config in `cells` once per seed, fan every world out to
/// `variants`, and return `grid[cell][variant]` = that pair's
/// replications in seed order. One [`run_sweep`] over the whole job list,
/// so all cells share one ticket pool.
pub fn run_grid(
    cells: &[SimConfig],
    seeds: &[u64],
    variants: &[VariantSpec],
    threads: usize,
) -> Vec<Vec<Vec<SimReport>>> {
    let jobs = grid_jobs(cells, seeds, |_| variants.to_vec());
    let mut runs = run_sweep(&jobs, threads).into_iter();
    cells
        .iter()
        .map(|_| {
            let mut cell = vec![Vec::with_capacity(seeds.len()); variants.len()];
            for reports in runs.by_ref().take(seeds.len()) {
                for (replications, report) in cell.iter_mut().zip(reports) {
                    replications.push(report);
                }
            }
            cell
        })
        .collect()
}

/// [`run_grid`] without a variant axis: every cell is priced under the
/// scheme, hop metric and backend its own config names, and
/// `reports[cell]` is that cell's replications in seed order.
pub fn run_cells(cells: &[SimConfig], seeds: &[u64], threads: usize) -> Vec<Vec<SimReport>> {
    let jobs = grid_jobs(cells, seeds, |cfg| vec![VariantSpec::from_config("", cfg)]);
    let mut runs = run_sweep(&jobs, threads)
        .into_iter()
        .map(|mut reports| reports.swap_remove(0));
    cells
        .iter()
        .map(|_| runs.by_ref().take(seeds.len()).collect())
        .collect()
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
        let cells = [SimConfig::builder(60).duration(1.5).warmup(0.2).build()];
        let seeds = seed_range(10, 4);
        let par = run_cells(&cells, &seeds, 4);
        let seq = run_cells(&cells, &seeds, 1);
        assert_eq!(par[0].len(), 4);
        assert_eq!(par, seq);
        for (report, &seed) in par[0].iter().zip(&seeds) {
            assert_eq!(report.seed, seed);
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let cells = [SimConfig::builder(40).duration(1.0).warmup(0.2).build()];
        let reports = run_cells(&cells, &seed_range(3, 2), 8);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0][0].seed, 3);
        assert_eq!(reports[0][1].seed, 4);
    }

    #[test]
    fn cells_run_under_their_own_backend() {
        let packet = SimConfig::builder(60)
            .duration(1.0)
            .warmup(0.2)
            .target_degree(12.0)
            .hop_metric(crate::config::HopMetric::Bfs)
            .backend(Backend::packet())
            .build();
        let mut analytic = packet.clone();
        analytic.backend = Backend::Analytic;
        let seeds = seed_range(21, 2);
        let reports = run_cells(&[packet.clone(), analytic], &seeds, 2);
        for (report, &seed) in reports[0].iter().zip(&seeds) {
            let mut standalone = packet.clone();
            standalone.seed = seed;
            standalone.threads = 1;
            assert_eq!(report, &crate::run_simulation(&standalone));
        }
        // Dense + lossless: the packet backend reproduces the analytic
        // ledger (the parity integration test pins the strong form).
        for (p, a) in reports[0].iter().zip(&reports[1]) {
            assert_eq!(p.seed, a.seed);
            assert_eq!(p.events, a.events);
        }
    }

    #[test]
    fn grid_groups_replications_by_cell_and_variant() {
        let cells: Vec<SimConfig> = [40, 50]
            .into_iter()
            .map(|n| SimConfig::builder(n).duration(1.0).warmup(0.2).build())
            .collect();
        let variants = [
            VariantSpec::from_config("chlm", &cells[0]),
            VariantSpec::new(
                "home",
                LmScheme::HomeAgent,
                cells[0].hop_metric,
                cells[0].backend,
            ),
        ];
        let seeds = seed_range(7, 3);
        let grid = run_grid(&cells, &seeds, &variants, 2);
        assert_eq!(grid.len(), cells.len());
        for (cfg, cell) in cells.iter().zip(&grid) {
            assert_eq!(cell.len(), variants.len());
            for (variant, replications) in variants.iter().zip(cell) {
                assert_eq!(replications.len(), seeds.len());
                for (report, &seed) in replications.iter().zip(&seeds) {
                    let mut c = variant.apply(cfg);
                    c.seed = seed;
                    c.threads = 1;
                    assert_eq!(report, &crate::run_simulation(&c));
                }
            }
        }
        // No seeds, no cells: empty replication lists, not a panic.
        assert_eq!(run_grid(&cells, &[], &variants, 2)[1][1], Vec::new());
        assert!(run_cells(&[], &seeds, 2).is_empty());
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
