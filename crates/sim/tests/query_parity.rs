//! Analytic-vs-packet parity for the query plane, mirroring `parity.rs`.
//!
//! The analytic query observer *prices* each lookup's request/reply legs
//! with the BFS hop oracle; the packet observer *executes* the same legs
//! through `chlm_proto`'s discrete-event network. On a lossless,
//! connected network every leg follows a shortest path, so the executed
//! transmission counts must equal the analytic prices lookup for lookup —
//! the whole [`chlm_sim::QueryStats`] block (per-level histogram,
//! per-tick series, every float) must be *equal*, for all three schemes.

use chlm_sim::{Backend, HopMetric, LmScheme, LossSpec, SimConfig, Simulation};

/// Dense enough that the unit-disk graph stays connected for the whole
/// run (parity needs zero dropped packets), with a CMR high enough that
/// every tick carries lookups.
fn cfg(scheme: LmScheme, backend: Backend) -> SimConfig {
    SimConfig::builder(110)
        .target_degree(12.0)
        .duration(1.5)
        .warmup(0.5)
        .seed(42)
        .query_rate(2.5)
        .lm_scheme(scheme)
        .hop_metric(HopMetric::Bfs)
        .backend(backend)
        .build()
}

fn run_packet(
    scheme: LmScheme,
    backend: Backend,
) -> (chlm_sim::SimReport, chlm_proto::network::NetworkStats) {
    let mut sim = Simulation::new(cfg(scheme, backend));
    for _ in 0..sim.config().tick_count() {
        sim.step();
    }
    let net = sim
        .observers()
        .query
        .as_ref()
        .and_then(|q| q.query_net())
        .expect("query plane on");
    (sim.finish(), net)
}

#[test]
fn lossless_query_packets_match_analytic_bfs_exactly() {
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        let analytic = Simulation::new(cfg(scheme, Backend::Analytic)).run();
        let (packet, net) = run_packet(scheme, Backend::packet());
        assert_eq!(
            net.dropped, 0,
            "{scheme:?}: parity requires a connected network; pick a denser config"
        );
        assert_eq!(net.lost, 0, "{scheme:?}");
        let qa = analytic.query.as_ref().expect("query plane on");
        let qp = packet.query.as_ref().expect("query plane on");
        assert!(qa.arrivals > 0, "{scheme:?}: need lookups to validate");
        assert!(
            qa.total_packets() > 0.0,
            "{scheme:?}: need priced lookups to validate"
        );
        // The strong form: the whole query block is identical — same
        // arrivals (shared trace), same routes (shared seam), and every
        // leg's transmissions equal to its BFS price.
        assert_eq!(qa, qp, "{scheme:?}: query parity broken");
        if scheme == LmScheme::Chlm {
            // One QUERY and one REPLY per lookup that has a server to
            // ask (common level ≥ 2); the rest are free.
            let asked: u64 = qp.level_lookups.iter().skip(2).sum();
            assert_eq!(net.sent, 2 * asked);
        }
        // And the planes compose: the full reports agree too, since the
        // update plane already has its own parity wall.
        assert_eq!(packet, analytic, "{scheme:?}: reports diverged");
    }
}

#[test]
fn lossy_links_inflate_but_never_deflate_query_cost() {
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        let (lossless, clean_net) = run_packet(scheme, Backend::packet());
        let (lossy, lossy_net) = run_packet(
            scheme,
            Backend::Packet {
                hop_delay: Backend::DEFAULT_HOP_DELAY,
                loss: Some(LossSpec {
                    prob: 0.2,
                    max_retries: 8,
                    seed: 7,
                }),
            },
        );
        let (ql, qc) = (
            lossy.query.as_ref().expect("query plane on"),
            lossless.query.as_ref().expect("query plane on"),
        );
        // Same lookup workload either way (arrivals and routes don't see
        // the loss process)...
        assert_eq!(ql.arrivals, qc.arrivals, "{scheme:?}");
        assert_eq!(ql.resolved, qc.resolved, "{scheme:?}");
        assert_eq!(ql.level_lookups, qc.level_lookups, "{scheme:?}");
        // ...but ARQ retries make the executed lookups strictly dearer.
        assert!(
            lossy_net.retransmissions > clean_net.retransmissions,
            "{scheme:?}"
        );
        assert!(ql.total_packets() >= qc.total_packets(), "{scheme:?}");
    }
}
