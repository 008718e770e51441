//! Incremental hierarchy maintenance equivalence suite (ISSUE 8).
//!
//! [`chlm_cluster::HierarchyMaintainer`] repairs the hierarchy around
//! each tick's link diffs; the reference stage set in `common/mod.rs`
//! runs the from-scratch LCA fixpoint ([`chlm_cluster::Hierarchy::build`])
//! as the oracle. The two must agree *per tick*, not merely on the final
//! report: every level, every address, and the reorganization-event
//! taxonomy (i)–(vii) derived from consecutive snapshots — across every
//! mobility kind and a spread of seeds. A final corruption-injection
//! case checks the arena auditor actually has teeth.

use chlm_cluster::{classify_events, hierarchy_digest, HierarchyMaintainer, HierarchyOptions};
use chlm_geom::Point;
use chlm_graph::unit_disk::build_unit_disk;
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

/// The maintainer's own arena audit must pass throughout a live run —
/// every tick, not just at the end. (The engine only audits when
/// `SimConfig::audit` is set; this pins the arena side specifically.)
#[test]
fn maintainer_audit_stays_clean_across_run() {
    let positions: Vec<Point> = (0..72)
        .map(|i| Point {
            x: (i % 9) as f64 * 0.7,
            y: (i / 9) as f64 * 0.7,
        })
        .collect();
    let ids: Vec<u64> = (0..72u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) + 1)
        .collect();
    let graph = build_unit_disk(&positions, 1.0);
    let mut m = HierarchyMaintainer::new(
        &ids,
        &graph,
        HierarchyOptions {
            max_levels: usize::MAX,
            min_reduction: 1.25,
        },
    );
    m.audit().expect("fresh maintainer must audit clean");
    // Drift the nodes deterministically and advance without diffs (full
    // resync path) — the arena must stay in sync with every snapshot.
    let mut pts = positions;
    for step in 1..=6 {
        for (i, p) in pts.iter_mut().enumerate() {
            p.x += ((i + step) % 5) as f64 * 0.05 - 0.1;
            p.y += ((i * 3 + step) % 7) as f64 * 0.03 - 0.09;
        }
        let g = build_unit_disk(&pts, 1.0);
        m.advance(&g, None);
        m.audit()
            .unwrap_or_else(|e| panic!("arena desynced at step {step}: {e}"));
    }
}

/// Corruption injection: cross-wire two live arena records and check the
/// auditor reports the desync instead of waving it through.
#[test]
fn auditor_catches_injected_arena_desync() {
    let positions: Vec<Point> = (0..60)
        .map(|i| Point {
            x: (i % 8) as f64 * 0.8,
            y: (i / 8) as f64 * 0.8,
        })
        .collect();
    let ids: Vec<u64> = (0..60u64)
        .map(|i| i.wrapping_mul(0x517C_C1B7) + 1)
        .collect();
    let graph = build_unit_disk(&positions, 1.0);
    let mut m = HierarchyMaintainer::new(
        &ids,
        &graph,
        HierarchyOptions {
            max_levels: usize::MAX,
            min_reduction: 1.25,
        },
    );
    m.audit().expect("fresh maintainer must audit clean");
    m.debug_desync_arena();
    assert!(
        m.audit().is_err(),
        "auditor accepted an arena with cross-wired cluster records"
    );
}
