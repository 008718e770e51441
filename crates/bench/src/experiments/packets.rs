//! Packet-backend experiments: the handoff workload executed through the
//! discrete-event network, lossless (against the analytic ledger) and lossy.

use crate::{banner, env_usize, MIN_N};
use chlm_analysis::table::{fnum, TextTable};
use chlm_lm::LevelCost;
use chlm_sim::oracle::DEFAULT_DETOUR;
use chlm_sim::{
    Backend, HopMetric, LmScheme, LossSpec, MultiplexSim, PacketTotals, SimConfig, SimReport,
    VariantSpec,
};

/// Run `variants` as the banks of one world over `cfg`, handing the
/// multiplexer to `on_tick` after every tick, and return each bank's report
/// with its packet totals (default for an analytic bank).
fn run_banks(
    cfg: &SimConfig,
    variants: &[VariantSpec],
    mut on_tick: impl FnMut(&MultiplexSim),
) -> Vec<(SimReport, PacketTotals)> {
    let mut mx = MultiplexSim::new(cfg, variants);
    for _ in 0..cfg.tick_count() {
        mx.step();
        on_tick(&mx);
    }
    let totals: Vec<PacketTotals> = (0..variants.len())
        .map(|v| mx.observers(v).handoff.packet_totals().unwrap_or_default())
        .collect();
    mx.finish().into_iter().zip(totals).collect()
}

/// E18 (methodology validation): analytical accounting vs executed packets.
///
/// The φ/γ numbers everywhere else come from the analytical ledger
/// (entries × hop-oracle). Here one world is priced by three banks —
/// analytic with the BFS oracle, analytic with the Euclidean proxy, and the
/// packet backend, which executes every TRANSFER/REGISTER — and their
/// ledgers are compared per level. On every tick that drops no packet, the
/// transmissions executed that tick must equal the packets the BFS ledger
/// booked that tick *exactly* (both are sums of integer hop counts); a tick
/// with drops (a partitioned topology, where the oracle prices a pair by its
/// Euclidean fallback) is reported as a gap instead. Also reports handoff
/// delivery latency, which the analytical pipeline cannot see.
pub(crate) fn exp_proto_validation() {
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(512);
    let mut cfg = SimConfig::builder(n).warmup(5.0).seed(18_000).build();
    // ~12 measured ticks, independent of the derived tick length.
    cfg.duration = 12.0 * cfg.tick();
    banner(
        "E18",
        "packet-level validation of the handoff accounting",
        &[n],
        Some((1, cfg.duration)),
    );
    let variant = |label: &str, metric: HopMetric, backend: Backend| {
        VariantSpec::new(label, LmScheme::Chlm, metric, backend)
    };
    // (BFS ledger packets, executed transmissions, drops) after the last
    // tick: all start at 0, since warm-up moves nodes only.
    let mut prev = (0.0, 0, 0);
    let (mut ticks, mut validated) = (0usize, 0usize);
    let (mut drop_executed, mut drop_ledger) = (0, 0.0);
    let mut runs = run_banks(
        &cfg,
        &[
            variant("bfs", HopMetric::Bfs, Backend::Analytic),
            // The proxy the largest sweeps run with, at the fixed default
            // detour.
            variant(
                "euclid",
                HopMetric::Euclidean(DEFAULT_DETOUR),
                Backend::Analytic,
            ),
            variant("packet", HopMetric::Bfs, Backend::packet()),
        ],
        |mx| {
            let levels = &mx.observers(0).handoff.ledger().per_level;
            let net = mx
                .observers(2)
                .handoff
                .packet_totals()
                .expect("packet bank")
                .net;
            let ledger: f64 = levels.iter().map(LevelCost::total_packets).sum();
            let now = (ledger, net.transmissions, net.dropped);
            let (booked, executed) = (now.0 - prev.0, now.1 - prev.1);
            ticks += 1;
            if now.2 == prev.2 {
                assert_eq!(
                    executed as f64, booked,
                    "tick {ticks}: executed transmissions must equal the BFS ledger's packets"
                );
                validated += 1;
            } else {
                drop_executed += executed;
                drop_ledger += booked;
            }
            prev = now;
        },
    )
    .into_iter();
    let (bfs, _) = runs.next().expect("bfs bank");
    let (euclid, _) = runs.next().expect("euclid bank");
    let (packet, totals) = runs.next().expect("packet bank");

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
        "workload: {} transfers + {} registrations over {ticks} ticks",
        totals.transfers, totals.registrations,
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
    println!(
        "validated on {validated} of {ticks} ticks: executed transmissions == BFS-oracle \
         ledger packets, exactly, on every tick without a drop"
    );
    if validated == ticks {
        // No tick dropped a packet: the packet backend reproduced the
        // analytic BFS ledger level for level, class for class.
        assert_eq!(
            packet.ledger, bfs.ledger,
            "executed transmissions must equal the BFS-oracle ledger"
        );
        println!(
            "VALIDATED: executed transmissions == BFS-oracle analytical count ({} packets)",
            totals.net.transmissions
        );
    } else {
        // Execution can only undercut the fallback-priced ledger.
        assert!(drop_executed as f64 <= drop_ledger + 1e-9);
        println!(
            "the {} ticks with drops ({} packets dropped on partitioned topologies): \
             executed {drop_executed} vs bfs ledger {} ({:+.1}%)",
            ticks - validated,
            totals.net.dropped,
            fnum(drop_ledger),
            (drop_executed as f64 - drop_ledger) / drop_ledger.max(1.0) * 100.0
        );
    }
}

/// E23 (robustness extension): LM handoff under a lossy radio layer.
///
/// The paper's unit is error-free packet transmissions. Real MANET links
/// lose packets; per-hop ARQ inflates the transmission count by
/// `1/(1-p)` in expectation. This experiment runs the *full* packet-backend
/// simulation (every tick's handoff workload executed through the
/// discrete-event network) at several loss rates — one world, one
/// `MultiplexSim` bank per loss setting — and reports the measured
/// inflation, delivery rate and latency — the factor by which the paper's
/// polylog budgets must be scaled on a real radio.
pub(crate) fn exp_lossy_links() {
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(512);
    let mut cfg = SimConfig::builder(n).warmup(5.0).seed(23_000).build();
    // ~10 measured ticks, independent of the derived tick length.
    cfg.duration = 10.0 * cfg.tick();
    banner(
        "E23 / extension",
        "handoff transmissions under per-hop loss",
        &[n],
        Some((1, cfg.duration)),
    );
    let settings = [
        (0.0, 0u32),
        (0.05, 8),
        (0.1, 8),
        (0.2, 8),
        (0.3, 8),
        (0.3, 0),
    ];
    let variants: Vec<VariantSpec> = settings
        .iter()
        .map(|&(p, retries)| {
            let loss = (p > 0.0).then_some(LossSpec {
                prob: p,
                max_retries: retries,
                seed: 99,
            });
            let backend = Backend::Packet {
                hop_delay: 0.001,
                loss,
            };
            VariantSpec::new(
                format!("loss {p} x{retries}"),
                LmScheme::Chlm,
                cfg.hop_metric,
                backend,
            )
        })
        .collect();

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
    let runs = run_banks(&cfg, &variants, |_| {});
    let baseline = runs[0].1.net.transmissions;
    let workload = (runs[0].1.transfers, runs[0].1.registrations);
    for (&(p, retries), (report, totals)) in settings.iter().zip(&runs) {
        // The backend must not change which handoffs happen — only what
        // executing them costs.
        assert_eq!((totals.transfers, totals.registrations), workload);
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
