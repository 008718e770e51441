//! Domain scenario: a battlefield packet-radio network (the SURAN lineage
//! the paper cites [9, 10]) where units move as *groups* — squads with
//! coherent motion — rather than as independent walkers.
//!
//! Group mobility is exactly what hierarchical clustering exploits: whole
//! clusters migrate together, so the hierarchy above them stays stable and
//! reorganization handoff (γ) drops relative to independent random
//! waypoint at the same nominal speed.
//!
//! Run with:
//! ```text
//! cargo run --release --example battlefield_relay
//! ```

use chlm::prelude::*;

fn run(label: &str, mobility: MobilityKind) -> SimReport {
    let cfg = SimConfig::builder(384)
        .speed(2.0)
        .duration(10.0)
        .warmup(6.0)
        .seed(7)
        .mobility(mobility)
        .query_rate(1.0)
        .build();
    let r = run_simulation(&cfg);
    println!(
        "{label:<22} f0 = {:>6.3}  phi = {:>7.3}  gamma = {:>7.3}  total = {:>7.3}",
        r.f0,
        r.phi_total(),
        r.gamma_total(),
        r.total_overhead()
    );
    r
}

fn main() {
    println!("384 nodes, mu = 2 m/s, identical density; squads of ~16 under RPGM\n");
    let squads = run(
        "RPGM (12 squads)",
        MobilityKind::Rpgm {
            groups: 12,
            group_radius: 4.0,
            jitter_radius: 0.8,
            jitter_speed: 0.5,
        },
    );
    let independent = run("random waypoint", MobilityKind::Waypoint);
    let walkers = run("random walk", MobilityKind::walk());

    println!("\n== interpretation ==");
    let ratio = independent.total_overhead() / squads.total_overhead().max(1e-9);
    println!("group mobility cuts total LM handoff overhead by {ratio:.1}x vs independent RWP");
    println!(
        "(reorganization events: RPGM {} vs RWP {} vs walk {})",
        squads.events.grand_total(),
        independent.events.grand_total(),
        walkers.events.grand_total()
    );
    let query_cost = |r: &SimReport| r.query.as_ref()?.mean_packets_per_lookup();
    if let (Some(a), Some(b)) = (query_cost(&squads), query_cost(&independent)) {
        println!("mean query cost: RPGM {a:.2} vs RWP {b:.2} packets");
    }
}
