//! Schedule fuzzing: `CHLM_SHUFFLE_MERGE` makes every multi-threaded
//! `WorkerPool` call claim jobs (and spawn chunks) in a seeded adversarial
//! order. The pool's merge discipline promises that worker completion
//! order never reaches results, so the full `SimReport` must stay
//! byte-identical under any shuffle seed. This is the falsification test
//! for that promise: a parallel path that leaks claim order diverges here
//! before any real scheduler would expose it.
//!
//! One `#[test]` only: the shuffle switch is a process-global environment
//! variable, and parallel test threads mutating it would race.

use chlm_sim::{Backend, HopMetric, SimConfig};

const SHUFFLE_SEEDS: [u64; 4] = [1, 7, 99, 0xDEAD_BEEF];

fn cfg(backend_packet: bool) -> SimConfig {
    // Nonzero query_rate puts the query plane (arrival draws, lookup
    // routing, sharded request/reply packets) under the shuffle too.
    let mut cfg = SimConfig::builder(110)
        .duration(1.5)
        .warmup(0.4)
        .seed(42)
        .query_rate(2.0)
        .build();
    // BFS metric drives the multiplexer's distance warm-up
    // (`Graph::fill_hops`, batches over for_each_mut);
    // 8 threads guarantees the multi-threaded (shuffle-sensitive) path.
    cfg.hop_metric = HopMetric::Bfs;
    cfg.threads = 8;
    if backend_packet {
        cfg.backend = Backend::packet();
    }
    cfg
}

#[test]
fn report_identical_under_schedule_shuffle() {
    // Baseline: no shuffle. Remove the var defensively in case the
    // harness environment leaks one in.
    std::env::remove_var(chlm_par::SHUFFLE_ENV);
    let base_analytic = chlm_sim::run_simulation(&cfg(false));
    let base_packet = chlm_sim::run_simulation(&cfg(true));
    assert!(
        base_analytic.total_overhead() > 0.0,
        "no churn; shuffle test is vacuous"
    );
    assert!(
        base_analytic.query.as_ref().is_some_and(|q| q.arrivals > 0),
        "no lookups; the query plane is not under the shuffle"
    );

    for seed in SHUFFLE_SEEDS {
        std::env::set_var(chlm_par::SHUFFLE_ENV, seed.to_string());
        let shuffled_analytic = chlm_sim::run_simulation(&cfg(false));
        assert_eq!(
            base_analytic, shuffled_analytic,
            "analytic backend diverged under shuffle seed {seed}"
        );
        let shuffled_packet = chlm_sim::run_simulation(&cfg(true));
        assert_eq!(
            base_packet, shuffled_packet,
            "packet backend diverged under shuffle seed {seed}"
        );
    }
    std::env::remove_var(chlm_par::SHUFFLE_ENV);
}
