//! Packet-backend experiments: the handoff workload executed through the
//! discrete-event network, lossless (against the analytic ledger) and lossy.

use crate::{banner, env_usize, MIN_N};
use chlm_analysis::table::{fnum, TextTable};
use chlm_sim::oracle::DEFAULT_DETOUR;
use chlm_sim::{Backend, HopMetric, LossSpec, SimConfig, Simulation};

/// E18 (methodology validation): analytical accounting vs executed packets.
///
/// The φ/γ numbers everywhere else come from the analytical ledger
/// (entries × hop-oracle). Here the *same* staged engine pipeline runs
/// three times over one config and seed — analytic with the BFS oracle,
/// analytic with the Euclidean proxy, and the packet backend, which
/// executes every TRANSFER/REGISTER through the discrete-event network —
/// and the resulting ledgers are compared per level. On a connected
/// topology (zero drops) the packet backend must reproduce the BFS ledger
/// *exactly*; the Euclidean proxy should sit within a few percent. Also
/// reports handoff delivery latency, which the analytical pipeline cannot
/// see.
pub(crate) fn exp_proto_validation() {
    banner("E18", "packet-level validation of the handoff accounting");
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(512);
    let cfg = |metric: HopMetric, backend: Backend| -> SimConfig {
        let b = SimConfig::builder(n)
            .warmup(5.0)
            .seed(18_000)
            .hop_metric(metric)
            .backend(backend);
        // ~12 measured ticks, independent of the derived tick length.
        let tick = b.clone().duration(1.0).build().tick();
        b.duration(12.0 * tick).build()
    };

    let bfs = Simulation::new(cfg(HopMetric::Bfs, Backend::Analytic)).run();
    // The proxy the largest sweeps run with, at the fixed default detour.
    let euclid =
        Simulation::new(cfg(HopMetric::Euclidean(DEFAULT_DETOUR), Backend::Analytic)).run();
    let mut sim = Simulation::new(cfg(HopMetric::Bfs, Backend::packet()));
    for _ in 0..sim.config().tick_count() {
        sim.step();
    }
    let totals = sim.observers().handoff.packet_totals().unwrap_or_default();
    let packet = sim.finish();

    let depth = bfs
        .ledger
        .max_level()
        .max(packet.ledger.max_level())
        .max(euclid.ledger.max_level());
    let mut t = TextTable::new(vec![
        "level k",
        "phi_k bfs",
        "phi_k packet",
        "phi_k euclid",
        "gamma_k bfs",
        "gamma_k packet",
        "gamma_k euclid",
    ]);
    for k in 1..=depth {
        t.row(vec![
            format!("{k}"),
            fnum(bfs.ledger.phi(k)),
            fnum(packet.ledger.phi(k)),
            fnum(euclid.ledger.phi(k)),
            fnum(bfs.ledger.gamma(k)),
            fnum(packet.ledger.gamma(k)),
            fnum(euclid.ledger.gamma(k)),
        ]);
    }
    println!("{}", t.render());

    let total = |r: &chlm_sim::SimReport| r.ledger.phi_total() + r.ledger.gamma_total();
    let bfs_packets = total(&bfs) * bfs.ledger.node_seconds;
    let euclid_packets = total(&euclid) * euclid.ledger.node_seconds;
    println!(
        "workload: {} transfers + {} registrations over {:.0} ticks",
        totals.transfers,
        totals.registrations,
        packet.ledger.node_seconds / packet.dt / packet.n as f64
    );
    println!(
        "executed {} transmissions; bfs ledger {}; euclid ledger {} ({:+.1}% vs bfs)",
        totals.net.transmissions,
        fnum(bfs_packets),
        fnum(euclid_packets),
        (euclid_packets - bfs_packets) / bfs_packets.max(1.0) * 100.0
    );
    println!(
        "mean handoff delivery latency: {:.2} ms (analytic pipeline cannot see this)",
        totals.net.mean_latency() * 1000.0
    );

    if totals.net.dropped == 0 {
        // Connected all run: the packet backend must have reproduced the
        // analytic BFS ledger packet for packet.
        assert_eq!(
            packet.ledger, bfs.ledger,
            "executed transmissions must equal the BFS-oracle ledger"
        );
        println!(
            "VALIDATED: executed transmissions == BFS-oracle analytical count ({} packets)",
            totals.net.transmissions
        );
    } else {
        // Partitioned topology: the oracle prices cross-partition pairs
        // with its Euclidean fallback, the network drops them after zero
        // transmissions — exact equality is out of reach by design.
        println!(
            "note: {} packets dropped on partitioned topologies; exact \
             ledger equality requires a connected run (executed {} <= bfs {})",
            totals.net.dropped,
            totals.net.transmissions,
            fnum(bfs_packets)
        );
        assert!(
            totals.net.transmissions as f64 <= bfs_packets + 1e-9,
            "execution can only undercut the fallback-priced ledger"
        );
    }
}

/// E23 (robustness extension): LM handoff under a lossy radio layer.
///
/// The paper's unit is error-free packet transmissions. Real MANET links
/// lose packets; per-hop ARQ inflates the transmission count by
/// `1/(1-p)` in expectation. This experiment runs the *full* packet-backend
/// simulation (every tick's handoff workload executed through the
/// discrete-event network) at several loss rates and reports the measured
/// inflation, delivery rate and latency — the factor by which the paper's
/// polylog budgets must be scaled on a real radio.
pub(crate) fn exp_lossy_links() {
    banner(
        "E23 / extension",
        "handoff transmissions under per-hop loss",
    );
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(512);
    let cfg = |loss: Option<LossSpec>| -> SimConfig {
        let b = SimConfig::builder(n)
            .warmup(5.0)
            .seed(23_000)
            .backend(Backend::Packet {
                hop_delay: 0.001,
                loss,
            });
        // ~10 measured ticks, independent of the derived tick length.
        let tick = b.clone().duration(1.0).build().tick();
        b.duration(10.0 * tick).build()
    };

    let mut t = TextTable::new(vec![
        "loss %",
        "retries",
        "delivered %",
        "lost",
        "transmissions",
        "inflation",
        "expected 1/(1-p)",
        "mean latency (ms)",
        "phi+gamma / node-s",
    ]);
    let mut baseline = 0u64;
    let mut workload = (0u64, 0u64);
    for &(p, retries) in &[
        (0.0, 0u32),
        (0.05, 8),
        (0.1, 8),
        (0.2, 8),
        (0.3, 8),
        (0.3, 0),
    ] {
        let loss = (p > 0.0).then_some(LossSpec {
            prob: p,
            max_retries: retries,
            seed: 99,
        });
        let mut sim = Simulation::new(cfg(loss));
        for _ in 0..sim.config().tick_count() {
            sim.step();
        }
        let totals = sim.observers().handoff.packet_totals().unwrap_or_default();
        let report = sim.finish();
        if p == 0.0 {
            baseline = totals.net.transmissions;
            workload = (totals.transfers, totals.registrations);
        } else {
            // The backend must not change which handoffs happen — only
            // what executing them costs.
            assert_eq!((totals.transfers, totals.registrations), workload);
        }
        t.row(vec![
            fnum(p * 100.0),
            format!("{retries}"),
            fnum(totals.net.delivered as f64 / totals.net.sent.max(1) as f64 * 100.0),
            format!("{}", totals.net.lost),
            format!("{}", totals.net.transmissions),
            fnum(totals.net.transmissions as f64 / baseline.max(1) as f64),
            fnum(if p < 1.0 { 1.0 / (1.0 - p) } else { f64::NAN }),
            fnum(totals.net.mean_latency() * 1000.0),
            fnum(report.ledger.phi_total() + report.ledger.gamma_total()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "workload per run: {} transfers + {} registrations",
        workload.0, workload.1
    );
    println!("with per-hop ARQ the polylog handoff budget scales by 1/(1-p) — a");
    println!("constant factor, so the paper's asymptotic conclusion is loss-robust;");
    println!("without retries, multi-hop transfers fail and the LM database decays.");
}
