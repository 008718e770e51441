//! Thread-count invariance: the whole `SimReport` — every counter, every
//! float — must be bitwise identical no matter how many worker threads the
//! intra-tick pools use, on both backends, loss included. This is the
//! contract that makes `SimConfig::threads` a pure performance knob: any
//! parallel path that leaks scheduling order into results breaks these
//! tests at the first diverging tick.

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::Point;
use chlm_graph::traversal::bfs_distances;
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::Graph;
use chlm_par::WorkerPool;
use chlm_sim::cost::{CostInputs, HopPricer, Pricing};
use chlm_sim::oracle::DEFAULT_DETOUR;
use chlm_sim::{
    Backend, HopMetric, LmScheme, LossSpec, MobilityKind, SimConfig, Simulation, VariantSpec,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn base_cfg(n: usize, seed: u64) -> SimConfig {
    SimConfig::builder(n)
        .duration(1.5)
        .warmup(0.4)
        .seed(seed)
        .build()
}

fn reports_for(make: impl Fn(usize) -> SimConfig) -> Vec<chlm_sim::SimReport> {
    THREAD_COUNTS
        .iter()
        .map(|&t| chlm_sim::run_simulation(&make(t)))
        .collect()
}

fn assert_all_equal(reports: &[chlm_sim::SimReport], what: &str) {
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            &reports[0], r,
            "{what}: threads {} vs {} diverged",
            THREAD_COUNTS[0], THREAD_COUNTS[i]
        );
    }
}

#[test]
fn analytic_backend_thread_invariant() {
    // BFS metric exercises the pooled row warm-up of every `carry`
    // (`Graph::fill_hop_rows`); the population is large enough for real
    // churn but the topology pool threshold keeps the maintainer serial —
    // covered separately by the graph crate tests.
    let reports = reports_for(|t| {
        let mut cfg = base_cfg(110, 42);
        cfg.hop_metric = HopMetric::Bfs;
        cfg.threads = t;
        cfg
    });
    assert!(
        reports[0].total_overhead() > 0.0,
        "need churn for the test to mean anything"
    );
    assert_all_equal(&reports, "analytic/Bfs");
}

#[test]
fn analytic_backend_thread_invariant_euclidean() {
    let reports = reports_for(|t| {
        let mut cfg = base_cfg(100, 7);
        cfg.threads = t;
        cfg
    });
    assert_all_equal(&reports, "analytic/EuclideanCalibrated");
}

#[test]
fn packet_backend_thread_invariant_lossless() {
    let reports = reports_for(|t| {
        let mut cfg = base_cfg(110, 42);
        cfg.hop_metric = HopMetric::Bfs;
        cfg.backend = Backend::packet();
        cfg.threads = t;
        cfg
    });
    assert_all_equal(&reports, "packet/lossless");
}

#[test]
fn packet_backend_thread_invariant_lossy() {
    // Loss draws come from per-(seed, tick, shard) streams with a fixed
    // shard count, so even the ARQ retry noise must not move between
    // thread counts.
    let make = |t: usize| {
        let mut cfg = base_cfg(110, 42);
        cfg.hop_metric = HopMetric::Bfs;
        cfg.backend = Backend::Packet {
            hop_delay: Backend::DEFAULT_HOP_DELAY,
            loss: Some(LossSpec {
                prob: 0.25,
                max_retries: 6,
                seed: 99,
            }),
        };
        cfg.threads = t;
        cfg
    };
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mut sim = Simulation::new(make(t));
            for _ in 0..make(t).tick_count() {
                sim.step();
            }
            let totals = sim
                .observers()
                .handoff
                .packet_totals()
                .expect("packet backend");
            (sim.finish(), totals)
        })
        .collect();
    assert!(
        runs[0].1.net.retransmissions > 0,
        "loss stream never fired; raise prob or churn"
    );
    for (i, (report, totals)) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0].0, report, "lossy report: threads diverged");
        assert_eq!(
            &runs[0].1, totals,
            "lossy packet totals: threads {} vs {} diverged",
            THREAD_COUNTS[0], THREAD_COUNTS[i]
        );
    }
}

#[test]
fn alternate_schemes_thread_invariant() {
    // ISSUE 5: the PR 4 determinism guarantees must cover every LM scheme,
    // not just CHLM — the GLS workload runs through the shared BFS pricer
    // and the home agent through the calibrated-Euclidean one, on both
    // backends, at every pool width.
    for scheme in [LmScheme::Gls, LmScheme::HomeAgent] {
        for packet in [false, true] {
            let reports = reports_for(|t| {
                let mut cfg = base_cfg(110, 42);
                cfg.hop_metric = if scheme == LmScheme::Gls {
                    HopMetric::Bfs
                } else {
                    HopMetric::EuclideanCalibrated
                };
                cfg.lm_scheme = scheme;
                if packet {
                    cfg.backend = Backend::packet();
                }
                cfg.threads = t;
                cfg
            });
            assert!(
                reports[0].total_overhead() > 0.0,
                "{scheme:?} packet={packet}: no overhead, test is vacuous"
            );
            assert_all_equal(&reports, &format!("{scheme:?}/packet={packet}"));
        }
    }
}

#[test]
fn alternate_schemes_thread_invariant_lossy_packet() {
    // The scheme packet observer shares the fixed-shard loss design; the
    // ARQ noise must stay put across pool widths for schemes too.
    for scheme in [LmScheme::Gls, LmScheme::HomeAgent] {
        let reports = reports_for(|t| {
            let mut cfg = base_cfg(110, 42);
            cfg.lm_scheme = scheme;
            cfg.backend = Backend::Packet {
                hop_delay: Backend::DEFAULT_HOP_DELAY,
                loss: Some(LossSpec {
                    prob: 0.25,
                    max_retries: 6,
                    seed: 99,
                }),
            };
            cfg.threads = t;
            cfg
        });
        assert_all_equal(&reports, &format!("{scheme:?}/lossy"));
    }
}

#[test]
fn multiplexed_fan_out_thread_invariant() {
    // PR 7: the shared-world multiplexer inherits the invariance
    // contract — one fan-out (mixed schemes, backends, and a lossy
    // stream) must produce identical report lists at every pool width.
    let variants = vec![
        VariantSpec::new("chlm", LmScheme::Chlm, HopMetric::Bfs, Backend::Analytic),
        VariantSpec::new("gls-pkt", LmScheme::Gls, HopMetric::Bfs, Backend::packet()),
        VariantSpec::new(
            "home-lossy",
            LmScheme::HomeAgent,
            HopMetric::Bfs,
            Backend::Packet {
                hop_delay: Backend::DEFAULT_HOP_DELAY,
                loss: Some(LossSpec {
                    prob: 0.25,
                    max_retries: 6,
                    seed: 99,
                }),
            },
        ),
    ];
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mut cfg = base_cfg(110, 42);
            cfg.hop_metric = HopMetric::Bfs;
            cfg.threads = t;
            chlm_sim::run_multiplexed(&cfg, &variants)
        })
        .collect();
    assert!(runs[0].iter().all(|r| r.total_overhead() > 0.0));
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            &runs[0], run,
            "multiplexed fan-out: threads {} vs {} diverged",
            THREAD_COUNTS[0], THREAD_COUNTS[i]
        );
    }
}

#[test]
fn query_plane_thread_invariant() {
    // The query plane shares the invariance contract: arrival draws come
    // from a per-(seed, tick) stream and packet-leg loss from fixed
    // per-(seed, tick, shard) streams, so the whole report — query block
    // included — must be byte-identical at every pool width, for every
    // scheme, on both backends.
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for packet in [false, true] {
            let reports = reports_for(|t| {
                let mut cfg = base_cfg(110, 42);
                cfg.hop_metric = HopMetric::Bfs;
                cfg.query_rate = 2.0;
                cfg.lm_scheme = scheme;
                if packet {
                    cfg.backend = Backend::packet();
                }
                cfg.threads = t;
                cfg
            });
            let q = reports[0]
                .query
                .as_ref()
                .expect("nonzero query_rate reports query stats");
            assert!(
                q.arrivals > 0 && q.total_packets() > 0.0,
                "{scheme:?} packet={packet}: no lookups, test is vacuous"
            );
            assert_all_equal(&reports, &format!("query/{scheme:?}/packet={packet}"));
        }
    }
}

#[test]
fn rpgm_mobility_thread_invariant() {
    // A second mobility process (grouped motion → clustered churn bursts)
    // to make sure invariance is not an artifact of waypoint smoothness.
    let reports = reports_for(|t| {
        let mut cfg = SimConfig::builder(96)
            .duration(1.2)
            .warmup(0.3)
            .seed(5)
            .mobility(MobilityKind::Rpgm {
                groups: 8,
                group_radius: 2.0,
                jitter_radius: 0.6,
                jitter_speed: 0.4,
            })
            .build();
        cfg.hop_metric = HopMetric::Bfs;
        cfg.threads = t;
        cfg
    });
    assert_all_equal(&reports, "analytic/Rpgm");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rows warmed in bulk by a pool (`Graph::fill_hop_rows`, what every
    /// transport's `carry` calls) must price exactly like rows the BFS
    /// pricer computes lazily, and like the serial `bfs_distances` rows,
    /// for arbitrary graphs, source subsets (duplicates and all), and
    /// pool widths; pricing the warmed sources computes no further row.
    #[test]
    fn prop_prefill_matches_serial_bfs(
        seed in 0u64..500,
        n in 2usize..120,
        rtx in 0.6f64..1.8,
        threads in 1usize..6,
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        let disk = chlm_geom::region::Disk::centered(5.0);
        let mut rng = chlm_geom::SimRng::seed_from(seed);
        let pts = chlm_geom::region::deploy_uniform(&disk, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        let h = Hierarchy::build(&rng.permutation(n), &g, HierarchyOptions::default());
        let sources: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
        g.fill_hop_rows(&sources, &WorkerPool::new(threads));
        let mut distinct = sources.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(g.hop_rows_cached(), distinct.len());
        // Rows live on the graph, so the lazy side prices a cold clone:
        // otherwise it would read the rows the fill just published.
        let cold = g.clone();
        let mut warm_pricing = Pricing::new(HopMetric::Bfs, DEFAULT_DETOUR);
        let mut warm = warm_pricing.pricer(&inputs(&g, &pts, rtx, &h));
        let mut lazy_pricing = Pricing::new(HopMetric::Bfs, DEFAULT_DETOUR);
        let mut lazy = lazy_pricing.pricer(&inputs(&cold, &pts, rtx, &h));
        for &s in &sources {
            let row = bfs_distances(&g, s);
            for t in 0..n as u32 {
                let got = warm.hops(s, t);
                prop_assert_eq!(got, lazy.hops(s, t), "source {} target {}", s, t);
                if s != t && row[t as usize] != chlm_graph::traversal::UNREACHABLE {
                    prop_assert_eq!(got, f64::from(row[t as usize]));
                }
            }
        }
        prop_assert_eq!(g.hop_rows_cached(), distinct.len(), "priced from the warmed rows");
    }
}

fn inputs<'a>(g: &'a Graph, pts: &'a [Point], rtx: f64, h: &'a Hierarchy) -> CostInputs<'a> {
    CostInputs {
        graph: g,
        positions: pts,
        hierarchy: h,
        rtx,
        sources: &[],
    }
}
