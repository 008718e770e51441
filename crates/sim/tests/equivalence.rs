//! Incremental-engine equivalence suite.
//!
//! The tick pipeline's fast paths — Verlet-list topology maintenance
//! ([`chlm_graph::UnitDiskMaintainer::advance`]) and the HRW walk's
//! clean-subtree reuse ([`chlm_lm::server::LmCache`]) — are *optimizations*, not model
//! changes. `SimConfig::full_rebuild` switches both off, rebuilding the
//! unit-disk graph and the LM assignment from scratch every tick. A run
//! with the fast paths on must produce a [`SimReport`] equal in every
//! field (floats compared exactly — the arithmetic must be the *same*,
//! not merely close) to the from-scratch reference, for every mobility
//! model and a spread of seeds.

use chlm_sim::{LmScheme, MobilityKind, SimConfig, Simulation};

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

fn run(n: usize, seed: u64, mobility: MobilityKind, full_rebuild: bool) -> chlm_sim::SimReport {
    let cfg = SimConfig::builder(n)
        .mobility(mobility)
        .duration(2.0)
        .warmup(0.5)
        .seed(seed)
        .query_samples(16)
        .full_rebuild(full_rebuild)
        .build();
    Simulation::new(cfg).run()
}

/// Every mobility kind × 4 seeds: incremental == from-scratch, on the
/// whole report.
#[test]
fn incremental_matches_full_rebuild_everywhere() {
    for (name, kind) in mobility_kinds() {
        for seed in [11u64, 29, 47, 83] {
            let fast = run(90, seed, kind, false);
            let reference = run(90, seed, kind, true);
            assert_eq!(
                fast, reference,
                "incremental engine diverged (mobility={name}, seed={seed})"
            );
        }
    }
}

/// The incremental fast paths sit *upstream* of the LM accounting slot,
/// so they must be equally invisible under the alternate schemes: per
/// scheme, incremental == from-scratch on the whole report (ISSUE 5 —
/// the PR 4 equivalence guarantee covers every scheme, not just CHLM).
#[test]
fn incremental_matches_full_rebuild_per_scheme() {
    let scheme_run = |scheme: LmScheme, seed: u64, full_rebuild: bool| {
        let cfg = SimConfig::builder(90)
            .mobility(MobilityKind::Waypoint)
            .duration(2.0)
            .warmup(0.5)
            .seed(seed)
            .query_samples(16)
            .full_rebuild(full_rebuild)
            .lm_scheme(scheme)
            .build();
        Simulation::new(cfg).run()
    };
    for scheme in [LmScheme::Gls, LmScheme::HomeAgent] {
        for seed in [11u64, 29] {
            let fast = scheme_run(scheme, seed, false);
            let reference = scheme_run(scheme, seed, true);
            assert_eq!(
                fast, reference,
                "incremental engine diverged (scheme={scheme:?}, seed={seed})"
            );
            assert_eq!(fast.digest(), reference.digest());
        }
    }
}

/// A denser network exercises deeper hierarchies and more LM cache
/// churn; one spot-check at a bigger n keeps the suite honest without
/// making it slow.
#[test]
fn incremental_matches_full_rebuild_denser() {
    let fast = run(220, 5, MobilityKind::Waypoint, false);
    let reference = run(220, 5, MobilityKind::Waypoint, true);
    assert_eq!(fast, reference);
}

/// Report digests captured on the pre-pipeline monolithic engine (before
/// the stage/observer/cost-model refactor). The staged engine must
/// reproduce every one bit-for-bit: any change here means the refactor
/// (or a later edit) altered simulation arithmetic, not just structure.
/// Regenerate only for an *intentional* model change, never to make a
/// refactor pass.
#[test]
fn report_digests_match_pre_pipeline_engine() {
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("waypoint", 11, 0xa2b6edf3767bf06a),
        ("waypoint", 29, 0x3fb7a96b959f2026),
        ("waypoint", 47, 0xd64c339c999cfc16),
        ("waypoint", 83, 0x7e9173f2eb0d6926),
        ("direction", 11, 0xea8fedfd1eb9c3e4),
        ("direction", 29, 0x6e0b77ad7a9201c9),
        ("direction", 47, 0xe66846ea0e9744d1),
        ("direction", 83, 0xab909c419b7f9cdb),
        ("walk", 11, 0xcb6c2a2ddc8df382),
        ("walk", 29, 0xbb126c6275f8ab68),
        ("walk", 47, 0xf8c25f79a9b8b51a),
        ("walk", 83, 0x85251f15a51fd834),
        ("rpgm", 11, 0xfe7a6a4dc60bbd23),
        ("rpgm", 29, 0x1845f7cafc16d8fa),
        ("rpgm", 47, 0x550ec788098929bd),
        ("rpgm", 83, 0xdad2abae7f3a946a),
        ("static", 11, 0xf481a096a048b19a),
        ("static", 29, 0x6c5d4f5d5ed94746),
        ("static", 47, 0x543204e1c89f4483),
        ("static", 83, 0xe8c54c9395116663),
    ];
    let kinds = mobility_kinds();
    for &(name, seed, want) in GOLDEN {
        let kind = kinds
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, m)| m)
            .unwrap();
        let got = run(90, seed, kind, false).digest();
        assert_eq!(
            got, want,
            "digest drift vs pre-pipeline engine (mobility={name}, seed={seed}): \
             got {got:#018x}, want {want:#018x}"
        );
    }
}
