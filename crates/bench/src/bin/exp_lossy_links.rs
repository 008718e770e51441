//! E23 (robustness extension): LM handoff under a lossy radio layer.
//!
//! The paper's unit is error-free packet transmissions. Real MANET links
//! lose packets; per-hop ARQ inflates the transmission count by
//! `1/(1-p)` in expectation. This binary runs the *full* packet-backend
//! simulation (every tick's handoff workload executed through the
//! discrete-event network) at several loss rates and reports the measured
//! inflation, delivery rate and latency — the factor by which the paper's
//! polylog budgets must be scaled on a real radio.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, MIN_N};
use chlm_sim::{Backend, LossSpec, SimConfig, Simulation};

fn main() {
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
