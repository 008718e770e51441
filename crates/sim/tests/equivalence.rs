//! Incremental-engine equivalence suite.
//!
//! The tick pipeline's fast paths — Verlet-list topology maintenance
//! ([`chlm_graph::UnitDiskMaintainer::advance`]), the hierarchy rebuilt
//! into a retired snapshot ([`chlm_cluster::Hierarchy::rebuild`]) and the
//! recycled buffers of the HRW walk ([`chlm_lm::server::WalkScratch`]) —
//! are *optimizations*, not model changes. The reference stage set in
//! `common/mod.rs` has none of them: it rebuilds the unit-disk graph, the
//! hierarchy and the LM assignment from scratch every tick, through the
//! same tick loop
//! ([`Simulation::with_stages`]). A run on the production stages must
//! produce a [`SimReport`] equal in every field (floats compared exactly —
//! the arithmetic must be the *same*, not merely close) to the
//! from-scratch reference, for every mobility model and a spread of seeds.

mod common;

use chlm_cluster::HierarchyOptions;
use chlm_geom::{Disk, SimRng};
use chlm_mobility::{MobilityModel, RandomWaypoint};
use chlm_par::WorkerPool;
use chlm_sim::stage::{TopologyStage, UnitDiskTopology};
use chlm_sim::{LmScheme, MobilityKind, SimConfig, SimConfigBuilder, Simulation};
use common::{reference_stages_with, simulation};

fn mobility_kinds() -> Vec<(&'static str, MobilityKind)> {
    vec![
        ("waypoint", MobilityKind::Waypoint),
        ("direction", MobilityKind::Direction { mean_epoch: 2.0 }),
        ("walk", MobilityKind::walk()),
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

/// Lookups at rate 2, so lookup resolution sits inside the compared report.
fn config(n: usize, seed: u64, mobility: MobilityKind) -> SimConfigBuilder {
    SimConfig::builder(n)
        .mobility(mobility)
        .duration(2.0)
        .warmup(0.5)
        .seed(seed)
        .query_rate(2.0)
}

fn run(n: usize, seed: u64, mobility: MobilityKind, reference: bool) -> chlm_sim::SimReport {
    simulation(config(n, seed, mobility).build(), reference).run()
}

/// `config` at three radio ranges of displacement per tick (thirty default
/// ticks' worth, far past the Verlet slack) for twelve ticks: every tick is
/// a grid rebuild of the topology, and consecutive hierarchies (hence the
/// carcasses the hierarchy stage rebuilds into) share almost nothing.
fn coarse_config(seed: u64, mobility: MobilityKind) -> SimConfig {
    // `mobility(Static)` zeroes the speed; the tick is sized by the
    // default one either way.
    let base = SimConfig::builder(90).build();
    let dt = 3.0 * base.rtx() / base.speed;
    config(90, seed, mobility)
        .dt(dt)
        .duration(12.0 * dt)
        .build()
}

/// Every mobility kind × 4 seeds at the default tick, × 2 seeds at the
/// diff-less coarse tick: incremental == from-scratch, on the whole report.
#[test]
fn incremental_matches_reference_everywhere() {
    // The coarse rows' premise, checked once on the production topology
    // stage stepped the same way.
    let cfg = coarse_config(11, MobilityKind::Waypoint);
    let region = Disk::centered(cfg.region_radius());
    let mut model =
        RandomWaypoint::deployed(region, cfg.n, cfg.speed, 0.0, &mut SimRng::seed_from(11));
    let mut topology = UnitDiskTopology::new(model.positions(), cfg.rtx(), WorkerPool::new(1));
    for _ in 0..3 {
        model.step(cfg.tick());
        topology.update(model.positions());
        assert!(topology.last_diff().is_none(), "coarse tick was patched");
    }

    for (name, kind) in mobility_kinds() {
        for seed in [11u64, 29, 47, 83] {
            let fast = run(90, seed, kind, false);
            let reference = run(90, seed, kind, true);
            assert_eq!(
                fast, reference,
                "incremental engine diverged (mobility={name}, seed={seed})"
            );
        }
        for seed in [11u64, 29] {
            let fast = simulation(coarse_config(seed, kind), false).run();
            let reference = simulation(coarse_config(seed, kind), true).run();
            assert_eq!(
                fast, reference,
                "incremental engine diverged (mobility={name}, seed={seed}, coarse tick)"
            );
        }
    }
}

/// The incremental fast paths sit *upstream* of the LM accounting slot,
/// so they must be equally invisible under the alternate schemes: per
/// scheme, incremental == from-scratch on the whole report (ISSUE 5 —
/// the PR 4 equivalence guarantee covers every scheme, not just CHLM).
#[test]
fn incremental_matches_reference_per_scheme() {
    let scheme_run = |scheme: LmScheme, seed: u64, reference: bool| {
        let cfg = config(90, seed, MobilityKind::Waypoint).lm_scheme(scheme);
        simulation(cfg.build(), reference).run()
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

/// A denser network exercises deeper hierarchies and more host
/// churn; one spot-check at a bigger n keeps the suite honest without
/// making it slow.
#[test]
fn incremental_matches_reference_denser() {
    let fast = run(220, 5, MobilityKind::Waypoint, false);
    let reference = run(220, 5, MobilityKind::Waypoint, true);
    assert_eq!(fast, reference);
}

/// The seam itself: `with_stages` must run the stages it is handed. A
/// reference set built with a different `min_reduction` than the config's
/// yields a different hierarchy, hence a different report, than
/// `Simulation::new` — if `with_stages` ignored its argument the
/// `incremental_matches_reference_*` tests above would pass vacuously,
/// and this one would fail.
#[test]
fn with_stages_runs_the_supplied_stages() {
    let cfg = SimConfig::builder(220)
        .duration(2.0)
        .warmup(0.5)
        .seed(5)
        .build();
    let default = Simulation::new(cfg.clone()).run();
    let other = Simulation::with_stages(cfg.clone(), |cfg, mobility| {
        let opts = HierarchyOptions {
            max_levels: cfg.max_levels,
            min_reduction: 4.0,
        };
        reference_stages_with(cfg, mobility, opts)
    })
    .run();
    assert_ne!(cfg.min_reduction, 4.0);
    assert_ne!(
        default, other,
        "with_stages ignored the stage set it was given"
    );
    assert_ne!(default.depth, other.depth);
}

/// The 20 `report.<mobility>.<seed>` pins of the golden wall's manifest,
/// with the query plane off: any drift means an edit altered simulation
/// arithmetic, not just structure. The values live only in the manifest
/// (`crates/bench/tests/golden/pins.txt`), which the wall regenerates;
/// this test reads them and lists every drift at once.
#[test]
fn report_digests_match_pre_pipeline_engine() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../bench/tests/golden/pins.txt"
    );
    let pins = std::fs::read_to_string(path).expect("golden wall manifest");
    let mut drift = Vec::new();
    for (name, kind) in mobility_kinds() {
        for seed in [11u64, 29, 47, 83] {
            let key = format!("report.{name}.{seed}");
            let want = pins
                .lines()
                .find_map(|l| l.strip_prefix(key.as_str())?.strip_prefix(" = "));
            let cfg = config(90, seed, kind).query_rate(0.0).build();
            let got = format!("{:#018x}", simulation(cfg, false).run().digest());
            if want != Some(got.as_str()) {
                drift.push(format!("{key}: {want:?} → {got}"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "digest drift vs pre-pipeline engine:\n  {}",
        drift.join("\n  ")
    );
}
