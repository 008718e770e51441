//! Bank independence of the multiplexed fan-out.
//!
//! For every scheme × backend × loss config, the report a
//! [`chlm_sim::MultiplexSim`] bank produces must be byte-equal to a
//! one-variant `run_simulation` of the same config on the same seed. Both
//! sides run the same tick loop (`Simulation` is the one-bank
//! `MultiplexSim`), so what this pins is that N banks sharing a world, its
//! accumulators and a pricer scope do not see one another: fan-out of N
//! == N one-variant runs. Loss draws come from per-(seed, tick, shard)
//! streams, so even the lossy ARQ noise must survive fan-out unchanged.
//!
//! The whole file reruns under `CHLM_SHUFFLE_MERGE` via ci.sh, which
//! additionally fuzzes the sweep orchestrator's claim order.

use chlm_sim::{
    run_multiplexed, run_simulation, run_sweep, Backend, HopMetric, LmScheme, LossSpec, SimConfig,
    SweepJob, VariantSpec,
};

fn base_cfg(n: usize, seed: u64) -> SimConfig {
    // Nonzero query_rate: the multiplexer must also fan the shared
    // world's lookup arrivals to every bank, byte-equal to standalone.
    SimConfig::builder(n)
        .duration(1.2)
        .warmup(0.3)
        .seed(seed)
        .query_rate(2.0)
        .build()
}

fn lossy() -> Backend {
    Backend::Packet {
        hop_delay: Backend::DEFAULT_HOP_DELAY,
        loss: Some(LossSpec {
            prob: 0.25,
            max_retries: 6,
            seed: 99,
        }),
    }
}

/// The full scheme × backend grid as variants of one world.
fn grid_variants(metric: HopMetric) -> Vec<VariantSpec> {
    let mut variants = Vec::new();
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for (bname, backend) in [
            ("analytic", Backend::Analytic),
            ("packet", Backend::packet()),
            ("lossy", lossy()),
        ] {
            variants.push(VariantSpec::new(
                format!("{scheme:?}/{bname}"),
                scheme,
                metric,
                backend,
            ));
        }
    }
    variants
}

#[test]
fn nine_variant_fan_out_matches_standalone_bfs() {
    // 3 schemes × {analytic, packet lossless, packet lossy} against ONE
    // world, BFS pricing (exercises the `Graph::hops` store every bank
    // shares and the per-`carry` warm-up that fills it).
    let mut cfg = base_cfg(100, 42);
    cfg.hop_metric = HopMetric::Bfs;
    let variants = grid_variants(HopMetric::Bfs);
    let multi = run_multiplexed(&cfg, &variants);
    assert_eq!(multi.len(), variants.len());
    for (report, variant) in multi.iter().zip(&variants) {
        assert!(
            report.total_overhead() > 0.0,
            "{}: no overhead, equality would be vacuous",
            variant.label
        );
        assert!(
            report.query.as_ref().is_some_and(|q| q.arrivals > 0),
            "{}: bank saw no lookup arrivals",
            variant.label
        );
        let solo = run_simulation(&variant.apply(&cfg));
        assert_eq!(
            report, &solo,
            "variant {} diverged from standalone",
            variant.label
        );
    }
}

#[test]
fn fan_out_matches_standalone_euclidean_and_hier() {
    // Same grid under the calibrated-Euclidean metric plus a HierRouting
    // variant (E24's second pricing): mixed metric groups in one fan-out.
    let cfg = base_cfg(100, 7);
    let mut variants = grid_variants(HopMetric::EuclideanCalibrated);
    variants.push(VariantSpec::new(
        "Chlm/hier",
        LmScheme::Chlm,
        HopMetric::HierRouting,
        Backend::Analytic,
    ));
    variants.push(VariantSpec::new(
        "Gls/hier",
        LmScheme::Gls,
        HopMetric::HierRouting,
        Backend::Analytic,
    ));
    let multi = run_multiplexed(&cfg, &variants);
    for (report, variant) in multi.iter().zip(&variants) {
        let solo = run_simulation(&variant.apply(&cfg));
        assert_eq!(
            report, &solo,
            "variant {} diverged from standalone",
            variant.label
        );
    }
}

#[test]
fn one_scheme_many_banks_match_standalone() {
    // Five banks of one scheme share one plane -- one GLS server table,
    // one set of messages and lookup routes -- across both hop metrics and
    // both backends (one of them lossy), plus a repeat of one config under
    // a second label. Each must still be its own standalone run, at one
    // and two threads.
    for threads in [1, 2] {
        let mut cfg = base_cfg(100, 5);
        cfg.threads = threads;
        let variants = [
            ("bfs-analytic", HopMetric::Bfs, Backend::Analytic),
            ("bfs-lossy", HopMetric::Bfs, lossy()),
            ("hier-analytic", HopMetric::HierRouting, Backend::Analytic),
            ("hier-packet", HopMetric::HierRouting, Backend::packet()),
            ("bfs-analytic-again", HopMetric::Bfs, Backend::Analytic),
        ]
        .map(|(label, metric, backend)| VariantSpec::new(label, LmScheme::Gls, metric, backend));
        let multi = run_multiplexed(&cfg, &variants);
        assert_eq!(multi[0], multi[4], "a repeated config diverged");
        for (report, variant) in multi.iter().zip(&variants) {
            assert!(
                report.query.as_ref().is_some_and(|q| q.resolved > 0),
                "{}: no lookup resolved, equality would be vacuous",
                variant.label
            );
            assert_eq!(
                report,
                &run_simulation(&variant.apply(&cfg)),
                "threads {threads}: variant {} diverged from standalone",
                variant.label
            );
        }
    }
}

#[test]
fn lossy_stream_actually_fires_and_differs() {
    // Guard against a silently disabled loss path making the lossy
    // equality vacuous: lossless and lossy banks of the same scheme must
    // produce different ledgers on a seed with real churn.
    let mut cfg = base_cfg(100, 42);
    cfg.hop_metric = HopMetric::Bfs;
    let variants = vec![
        VariantSpec::new("packet", LmScheme::Chlm, HopMetric::Bfs, Backend::packet()),
        VariantSpec::new("lossy", LmScheme::Chlm, HopMetric::Bfs, lossy()),
    ];
    let multi = run_multiplexed(&cfg, &variants);
    assert_ne!(
        multi[0].ledger, multi[1].ledger,
        "loss stream never fired; raise prob or churn"
    );
}

#[test]
fn sweep_grid_thread_invariant_and_matches_standalone() {
    // The orchestrator contract: whole world-runs claimed off the ticket
    // counter, output byte-identical at any thread count — and each cell
    // equal to its standalone run.
    let cfg = base_cfg(90, 11);
    let variants = vec![
        VariantSpec::new(
            "chlm",
            LmScheme::Chlm,
            HopMetric::EuclideanCalibrated,
            Backend::Analytic,
        ),
        VariantSpec::new(
            "gls-lossy",
            LmScheme::Gls,
            HopMetric::EuclideanCalibrated,
            lossy(),
        ),
        VariantSpec::new(
            "home-pkt",
            LmScheme::HomeAgent,
            HopMetric::EuclideanCalibrated,
            Backend::packet(),
        ),
    ];
    let jobs: Vec<SweepJob> = [11u64, 12, 13]
        .into_iter()
        .map(|seed| SweepJob {
            cfg: cfg.clone(),
            seed,
            variants: variants.clone(),
        })
        .collect();
    let baseline = run_sweep(&jobs, 1);
    for threads in [2, 8] {
        assert_eq!(
            baseline,
            run_sweep(&jobs, threads),
            "sweep grid diverged at {threads} threads"
        );
    }
    for (job, reports) in jobs.iter().zip(&baseline) {
        for (variant, report) in variants.iter().zip(reports) {
            let mut c = variant.apply(&cfg);
            c.seed = job.seed;
            assert_eq!(
                report,
                &run_simulation(&c),
                "cell {}/{}",
                job.seed,
                variant.label
            );
        }
    }
}

#[test]
fn audit_runs_per_bank() {
    // Each bank audits its own invariants over the shared trace; a clean
    // run reports zero violations for every variant.
    let mut cfg = base_cfg(80, 3);
    cfg.audit = true;
    let variants = vec![
        VariantSpec::from_config("chlm", &cfg),
        VariantSpec::new("home", LmScheme::HomeAgent, cfg.hop_metric, cfg.backend),
    ];
    let mut mx = chlm_sim::MultiplexSim::new(&cfg, &variants);
    for _ in 0..mx.config().tick_count() {
        mx.step();
    }
    for v in 0..mx.variant_count() {
        assert!(
            mx.audit_violations(v).is_empty(),
            "variant {v} reported violations"
        );
    }
}
