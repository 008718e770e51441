//! Quickstart: simulate a 256-node MANET under random waypoint mobility,
//! with an LCA clustered hierarchy and CHLM location management, and print
//! the paper's headline quantities.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use chlm::prelude::*;

fn main() {
    // 256 nodes, fixed density, mean degree ≈ 9, μ = 2 m/s, random
    // waypoint with zero pause — exactly the paper's model (§1.2).
    let cfg = SimConfig::builder(256)
        .speed(2.0)
        .duration(10.0)
        .warmup(5.0)
        .seed(42)
        .query_rate(1.0)
        .build();

    println!(
        "simulating |V| = {} for {} s (dt = {:.3} s)...",
        cfg.n,
        cfg.duration,
        cfg.tick()
    );
    let report = run_simulation(&cfg);

    println!("\n== network ==");
    println!("mean degree      : {:.2}", report.mean_degree);
    println!(
        "hierarchy depth  : {} levels (L = {})",
        report.depth,
        report.depth - 1
    );
    println!("f0 (eq. 4)       : {:.3} link events / node / s", report.f0);
    println!(
        "LM entries/node  : {:.2} (Θ(log |V|) claim)",
        report.mean_entries_hosted
    );

    println!("\n== LM handoff overhead (packet transmissions / node / s) ==");
    println!("{:<6} {:>10} {:>10}", "level", "phi_k", "gamma_k");
    for k in 2..=report.ledger.max_level() {
        println!(
            "{:<6} {:>10.4} {:>10.4}",
            k,
            report.ledger.phi(k),
            report.ledger.gamma(k)
        );
    }
    println!(
        "{:<6} {:>10.4} {:>10.4}",
        "total",
        report.phi_total(),
        report.gamma_total()
    );

    println!("\n== reorganization events (i)-(vii), all levels ==");
    let labels = ["i", "ii", "iii", "iv", "v", "vi", "vii"];
    for (c, label) in labels.iter().enumerate() {
        let total: u64 = report.events.counts.iter().map(|row| row[c]).sum();
        println!("event ({label:>3}): {total}");
    }

    if let Some(q) = report
        .query
        .as_ref()
        .and_then(|q| q.mean_packets_per_lookup())
    {
        println!("\nmean location-query cost: {q:.2} packets");
    }
    println!(
        "\ntotal LM handoff overhead: {:.3} packets/node/s",
        report.total_overhead()
    );
}
