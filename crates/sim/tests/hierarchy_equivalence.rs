//! Incremental hierarchy maintenance equivalence suite (ISSUE 8).
//!
//! [`chlm_cluster::HierarchyMaintainer`] repairs the hierarchy around
//! each tick's link diffs; the reference stage set in `common/mod.rs`
//! runs the from-scratch LCA fixpoint ([`chlm_cluster::Hierarchy::build`])
//! as the oracle. The two must agree *per tick*, not merely on the final
//! report: every level, every address, and the reorganization-event
//! taxonomy (i)–(vii) derived from consecutive snapshots — across every
//! mobility kind and a spread of seeds.

use chlm_cluster::{classify_events, hierarchy_digest};
use chlm_sim::{MobilityKind, SimConfig, Simulation};

mod common;

fn mobility_kinds() -> Vec<(&'static str, MobilityKind)> {
    vec![
        ("waypoint", MobilityKind::Waypoint),
        ("direction", MobilityKind::Direction { mean_epoch: 2.0 }),
        ("walk", MobilityKind::Walk),
        (
            "rpgm",
            MobilityKind::Rpgm {
                groups: 6,
                group_radius: 2.0,
                jitter_radius: 0.5,
                jitter_speed: 0.5,
            },
        ),
        ("static", MobilityKind::Static),
    ]
}

fn sim(n: usize, seed: u64, mobility: MobilityKind, reference: bool) -> Simulation {
    let cfg = SimConfig::builder(n)
        .mobility(mobility)
        .duration(2.0)
        .warmup(0.5)
        .seed(seed)
        .build();
    common::simulation(cfg, reference)
}

/// Lockstep the incremental engine against the reference-stage oracle and
/// compare the hierarchy itself each tick: structural equality, the
/// content digest, per-node addresses, and the event taxonomy counted
/// off consecutive snapshots. 5 mobility kinds × 4 seeds.
#[test]
fn incremental_hierarchy_matches_oracle_per_tick() {
    for (name, kind) in mobility_kinds() {
        for seed in [11u64, 29, 47, 83] {
            let mut fast = sim(90, seed, kind, false);
            let mut oracle = sim(90, seed, kind, true);
            let ticks = fast.config().tick_count();
            let mut prev_fast = fast.hierarchy().clone();
            let mut prev_oracle = oracle.hierarchy().clone();
            for tick in 0..ticks {
                fast.step();
                oracle.step();
                let hf = fast.hierarchy();
                let ho = oracle.hierarchy();
                assert_eq!(
                    hf, ho,
                    "hierarchy diverged (mobility={name}, seed={seed}, tick={tick})"
                );
                assert_eq!(
                    hierarchy_digest(hf),
                    hierarchy_digest(ho),
                    "digest diverged (mobility={name}, seed={seed}, tick={tick})"
                );
                for v in 0..hf.node_count() as u32 {
                    assert!(
                        hf.address(v).eq(ho.address(v)),
                        "address diverged (mobility={name}, seed={seed}, tick={tick}, v={v})"
                    );
                }
                let (events_f, counts_f) = classify_events(&prev_fast, hf);
                let (events_o, counts_o) = classify_events(&prev_oracle, ho);
                assert_eq!(
                    counts_f, counts_o,
                    "event taxonomy diverged (mobility={name}, seed={seed}, tick={tick})"
                );
                assert_eq!(
                    events_f, events_o,
                    "event streams diverged (mobility={name}, seed={seed}, tick={tick})"
                );
                prev_fast = hf.clone();
                prev_oracle = ho.clone();
            }
        }
    }
}
