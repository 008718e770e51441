//! Analytic-vs-packet engine parity.
//!
//! The analytic engine *prices* the handoff workload with the BFS hop
//! oracle; the packet engine *executes* it through `chlm_proto`'s
//! discrete-event network. On a lossless, connected network every
//! TRANSFER/REGISTER follows a shortest path, so the executed per-packet
//! transmission counts must equal the oracle's prices entry for entry —
//! and since both backends share the same stages and observers, the
//! *entire reports* must be equal, not merely close.

use chlm_sim::{Backend, HopMetric, LossSpec, SimConfig, Simulation};

/// Dense enough that the unit-disk graph stays connected for the whole
/// run (parity needs zero dropped packets; the analytic oracle prices
/// cross-partition pairs with a Euclidean fallback the packet network
/// cannot execute).
fn cfg(backend: Backend) -> SimConfig {
    SimConfig::builder(110)
        .target_degree(12.0)
        .duration(1.5)
        .warmup(0.5)
        .seed(42)
        .query_rate(2.0)
        .hop_metric(HopMetric::Bfs)
        .backend(backend)
        .build()
}

fn run_packet(backend: Backend) -> (chlm_sim::SimReport, chlm_sim::PacketTotals) {
    let mut sim = Simulation::new(cfg(backend));
    for _ in 0..sim.config().tick_count() {
        sim.step();
    }
    let totals = sim
        .observers()
        .handoff
        .packet_totals()
        .expect("packet backend");
    (sim.finish(), totals)
}

#[test]
fn lossless_packet_execution_matches_analytic_bfs_exactly() {
    let analytic = Simulation::new(cfg(Backend::Analytic)).run();
    let (packet, totals) = run_packet(Backend::packet());
    assert_eq!(
        totals.net.dropped, 0,
        "parity requires a connected network; pick a denser config"
    );
    assert_eq!(totals.net.lost, 0);
    assert!(totals.net.sent > 0, "need actual churn to validate");
    assert_eq!(
        totals.transfers + totals.registrations,
        totals.net.sent,
        "every sent packet is a TRANSFER or a REGISTER"
    );
    // The strong form: ledger hop counts equal packet transmissions, so
    // the whole report (every counter, every float) is identical.
    assert_eq!(packet.ledger, analytic.ledger, "ledger parity broken");
    assert_eq!(packet, analytic, "packet and analytic reports diverged");
}

#[test]
fn lossy_links_inflate_but_never_deflate_handoff_cost() {
    let (lossless, clean_totals) = run_packet(Backend::packet());
    let (lossy, lossy_totals) = run_packet(Backend::Packet {
        hop_delay: Backend::DEFAULT_HOP_DELAY,
        loss: Some(LossSpec {
            prob: 0.2,
            max_retries: 8,
            seed: 7,
        }),
    });
    // Same workload either way (the stages don't see the backend)...
    assert_eq!(lossy_totals.transfers, clean_totals.transfers);
    assert_eq!(lossy_totals.registrations, clean_totals.registrations);
    assert_eq!(lossy.events, lossless.events);
    // ...but ARQ retries make the executed cost strictly dearer.
    assert!(lossy_totals.net.retransmissions > 0);
    assert!(lossy_totals.net.transmissions > clean_totals.net.transmissions);
    let cost = |r: &chlm_sim::SimReport| r.ledger.phi_total() + r.ledger.gamma_total();
    assert!(cost(&lossy) >= cost(&lossless));
}
