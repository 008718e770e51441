//! E16 (§1.2 ablation): mobility-model sensitivity.
//!
//! The paper's bounds rest only on fixed density and speed μ, not on the
//! specifics of random waypoint. We run the same network under four
//! mobility processes at identical nominal speed and compare f₀, φ, γ.
//! Group mobility (RPGM, the HSR motivation \[11\]) should show markedly
//! lower reorganization overhead; the per-tick random walk, maximal
//! direction churn, sits at the other extreme of link volatility.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, mean_of, replications, standard_config, threads};
use chlm_sim::runner::seed_range;
use chlm_sim::{run_cells, MobilityKind, SimConfig};

fn main() {
    banner("E16 / §1.2", "mobility ablation at n = 512");
    let n = env_usize("CHLM_MOBILITY_N", 512, 1);
    let kinds: Vec<(&str, MobilityKind)> = vec![
        ("waypoint", MobilityKind::Waypoint),
        ("direction", MobilityKind::Direction { mean_epoch: 20.0 }),
        ("walk", MobilityKind::Walk),
        (
            "rpgm",
            MobilityKind::Rpgm {
                groups: (n / 32).max(1),
                group_radius: 4.0,
                jitter_radius: 0.8,
                jitter_speed: 0.5,
            },
        ),
    ];

    let mut t = TextTable::new(vec![
        "mobility",
        "f0",
        "phi",
        "gamma",
        "total",
        "events/node/s",
    ]);
    // One cell per mobility process, every cell on the same seeds.
    let cells: Vec<SimConfig> = kinds
        .iter()
        .map(|&(_, kind)| {
            let mut cfg = standard_config(n);
            cfg.mobility = kind;
            cfg
        })
        .collect();
    let reports = run_cells(&cells, &seed_range(16_000, replications()), threads());
    for ((name, _), rs) in kinds.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            fnum(mean_of(rs, |r| r.f0)),
            fnum(mean_of(rs, |r| r.phi_total())),
            fnum(mean_of(rs, |r| r.gamma_total())),
            fnum(mean_of(rs, |r| r.total_overhead())),
            fnum(mean_of(rs, |r| {
                r.events.grand_total() as f64 / r.rates.node_seconds.max(1e-12)
            })),
        ]);
    }
    println!("{}", t.render());
    println!("expected ordering: rpgm << waypoint ≈ direction < walk in overhead;");
    println!("the Θ-claims are about scaling, but constants track link volatility.");
}
