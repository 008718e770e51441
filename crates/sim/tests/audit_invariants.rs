//! Invariant-auditor integration tests: a clean engine never trips the
//! auditor, and every injected corruption trips exactly the violation
//! class that models it. The fixture audits like the engine does: the
//! world half once a tick, then each bank records those findings and
//! checks its own ledger, so a world fault shows in the bank's list and a
//! ledger fault in the list of the bank it was injected into.

use chlm_cluster::address::AddressBook;
use chlm_cluster::audit::ClusterViolation;
use chlm_cluster::events::{classify_events, EventCounts};
use chlm_cluster::{Hierarchy, HierarchyOptions, StateTracker};
use chlm_geom::region::deploy_uniform;
use chlm_geom::{Disk, Point, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::{Graph, NodeIdx};
use chlm_lm::audit::LmViolation;
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_sim::audit::{AccumSnapshot, AuditViolation, Auditor, WorldAuditor};
use chlm_sim::observe::WorldObservers;
use chlm_sim::{LevelRates, MobilityKind, SimConfig, Simulation, TickCtx};

fn unit_hop(a: NodeIdx, b: NodeIdx) -> f64 {
    if a == b {
        0.0
    } else {
        1.0
    }
}

const DT: f64 = 1.0;

/// One manually executed engine tick over two topology snapshots, with all
/// accumulators updated exactly as `Simulation::step` would: the world
/// account in `obs`, one CHLM bank's ledger in `ledger`.
struct TickFixture {
    ids: Vec<u64>,
    rtx: f64,
    pts: Vec<Point>,
    graph: Graph,
    old_h: Hierarchy,
    new_h: Hierarchy,
    old_book: AddressBook,
    book: AddressBook,
    old_assignment: LmAssignment,
    assignment: LmAssignment,
    host_changes: Vec<chlm_lm::server::HostChange>,
    addr_changes: Vec<chlm_cluster::address::AddrChange>,
    ledger: HandoffLedger,
    obs: WorldObservers,
    world: WorldAuditor,
    bank: Auditor,
}

impl TickFixture {
    /// Build from a deployment and a slightly perturbed copy of it.
    fn new(n: usize, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let mut pts = deploy_uniform(&region, n, &mut rng);
        let ids = rng.permutation(n);
        let opts = HierarchyOptions {
            max_levels: usize::MAX,
            min_reduction: 1.25,
        };
        let old_h = Hierarchy::build(&ids, &build_unit_disk(&pts, rtx), opts);
        // Nudge a handful of nodes: enough churn to produce address and
        // host changes, small enough to keep the hierarchy depth stable.
        for i in 0..6 {
            let idx = rng.index(n);
            pts[idx].x += (0.4 + 0.1 * i as f64) * rtx * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let graph = build_unit_disk(&pts, rtx);
        let new_h = Hierarchy::build(&ids, &graph, opts);
        let rule = SelectionRule::Hrw;

        let old_book = AddressBook::capture(&old_h);
        let book = AddressBook::capture(&new_h);
        let old_assignment = LmAssignment::compute(&old_h, rule);
        let assignment = LmAssignment::compute(&new_h, rule);
        let host_changes = old_assignment.diff(&assignment);
        let addr_changes = old_book.diff(&book);

        let mut ledger = HandoffLedger::new();
        let mut obs = WorldObservers::new(&old_h);
        let world = WorldAuditor::new(&obs);
        let bank = Auditor::new(&ledger);

        // Apply the tick, mirroring Simulation::step's accounting.
        ledger.record(&host_changes, &addr_changes, unit_hop, n, DT);
        let rates = &mut obs.addr;
        let depth = old_h.depth().max(new_h.depth());
        rates.migration_events = vec![0; depth];
        rates.reorg_events = vec![0; depth];
        for c in &addr_changes {
            match c.kind {
                chlm_cluster::AddrChangeKind::Migration => {
                    rates.migration_events[c.level as usize] += 1
                }
                chlm_cluster::AddrChangeKind::Reorganization => {
                    rates.reorg_events[c.level as usize] += 1
                }
            }
        }
        obs.churn.node_seconds = n as f64 * DT;
        let (_, counts) = classify_events(&old_h, &new_h);
        obs.taxonomy.counts.merge(&counts);
        obs.alca.observe(&new_h);

        TickFixture {
            ids,
            rtx,
            pts,
            graph,
            old_h,
            new_h,
            old_book,
            book,
            old_assignment,
            assignment,
            host_changes,
            addr_changes,
            ledger,
            obs,
            world,
            bank,
        }
    }

    /// Audit the tick: the world half, then the CHLM bank holding
    /// `self.ledger`. Returns the bank's violation list.
    fn check(&mut self) -> Vec<AuditViolation> {
        let ctx = TickCtx {
            tick: 0,
            dt: DT,
            n: self.ids.len(),
            rtx: self.rtx,
            ids: &self.ids,
            positions: &self.pts,
            graph: &self.graph,
            old_hierarchy: &self.old_h,
            new_hierarchy: &self.new_h,
            old_book: &self.old_book,
            new_book: &self.book,
            old_assignment: &self.old_assignment,
            new_assignment: &self.assignment,
            host_changes: &self.host_changes,
            addr_changes: &self.addr_changes,
            query_arrivals: &[],
        };
        self.world.check_tick(&ctx, &self.obs);
        self.bank.check_tick(
            self.world.last_tick(),
            &self.ledger,
            self.obs.churn.node_seconds,
            Some((&self.host_changes, &self.addr_changes)),
        );
        self.bank.violations().to_vec()
    }
}

#[test]
fn clean_tick_audits_clean() {
    let mut f = TickFixture::new(150, 9);
    assert!(
        !f.host_changes.is_empty() && !f.addr_changes.is_empty(),
        "fixture must exercise real churn"
    );
    let vs = f.check();
    assert!(vs.is_empty(), "clean tick reported: {vs:?}");
}

#[test]
fn orphaned_node_triggers_missing_clusterhead() {
    let mut f = TickFixture::new(150, 9);
    // Orphan every elector of some head: clear the head's flag.
    let level = &mut f.new_h.levels[0];
    let head = (0..level.len())
        .find(|&i| level.is_head[i] && level.elector_count[i] > 0)
        .expect("some head has electors");
    level.is_head[head] = false;
    let vs = f.check();
    assert!(
        vs.iter().any(|v| matches!(
            v,
            AuditViolation::Cluster(ClusterViolation::MissingClusterhead { .. })
        )),
        "violations: {vs:?}"
    );
}

#[test]
fn desynced_address_book_triggers_component_mismatch() {
    let mut f = TickFixture::new(150, 9);
    // Hand the auditor the *old* snapshot's book against the new hierarchy.
    f.book = AddressBook::capture(&f.old_h);
    let vs = f.check();
    assert!(
        vs.iter().any(|v| matches!(
            v,
            AuditViolation::Cluster(ClusterViolation::AddressComponentMismatch { .. })
                | AuditViolation::Cluster(ClusterViolation::DepthMismatch { .. })
        )),
        "violations: {vs:?}"
    );
}

#[test]
fn double_counted_handoff_triggers_ledger_mismatch() {
    let mut f = TickFixture::new(150, 9);
    assert!(!f.host_changes.is_empty());
    // Record the same host-change batch twice — classic double-count bug.
    let hc = f.host_changes.clone();
    let ac = f.addr_changes.clone();
    let clean = f.ledger.clone();
    f.ledger.record(&hc, &ac, unit_hop, 0, 0.0);
    let vs = f.check();
    assert!(
        vs.iter()
            .any(|v| matches!(v, AuditViolation::LedgerEventMismatch { .. })),
        "violations: {vs:?}"
    );
    // A second bank over the same world, with the uncorrupted ledger,
    // records the same (clean) world findings and none of its own.
    let mut sibling = Auditor::new(&HandoffLedger::new());
    sibling.check_tick(
        f.world.last_tick(),
        &clean,
        f.obs.churn.node_seconds,
        Some((&f.host_changes, &f.addr_changes)),
    );
    assert!(
        sibling.violations().is_empty(),
        "{:?}",
        sibling.violations()
    );
}

#[test]
fn stale_assignment_triggers_lm_violation() {
    let mut f = TickFixture::new(150, 9);
    let stale = LmAssignment::compute(&f.old_h, SelectionRule::Hrw);
    assert_eq!(
        stale.depth(),
        f.new_h.depth(),
        "fixture snapshots must have equal depth for this corruption"
    );
    f.assignment = stale;
    let vs = f.check();
    assert!(
        vs.iter().any(|v| matches!(
            v,
            AuditViolation::Lm(LmViolation::HostMismatch { .. })
                | AuditViolation::Lm(LmViolation::HostOutsideCluster { .. })
        )),
        "violations: {vs:?}"
    );
}

#[test]
fn dropped_address_change_triggers_rates_mismatch() {
    let mut f = TickFixture::new(150, 9);
    // Simulate a counter that missed one migration event.
    let k = f
        .addr_changes
        .iter()
        .find(|c| c.kind == chlm_cluster::AddrChangeKind::Migration)
        .map(|c| c.level as usize)
        .expect("fixture produces a migration");
    f.obs.addr.migration_events[k] -= 1;
    let vs = f.check();
    assert!(
        vs.iter()
            .any(|v| matches!(v, AuditViolation::RatesMismatch { .. })),
        "violations: {vs:?}"
    );
}

#[test]
fn tampered_jump_counters_trigger_state_mismatch() {
    let mut f = TickFixture::new(150, 9);
    // Observe the new hierarchy twice: the extra observation inflates the
    // zero-jump bin beyond what one transition can explain.
    f.obs.alca.observe(&f.new_h);
    let vs = f.check();
    assert!(
        vs.iter()
            .any(|v| matches!(v, AuditViolation::StateJumpMismatch { .. })),
        "violations: {vs:?}"
    );
}

#[test]
fn forged_event_counts_trigger_taxonomy_mismatch() {
    let mut f = TickFixture::new(150, 9);
    // Forge one extra recursive election (class v) at level 1.
    f.obs.taxonomy.counts.counts[1][4] += 1;
    let vs = f.check();
    assert!(
        vs.iter()
            .any(|v| matches!(v, AuditViolation::EventBirthMismatch { level: 1, .. })),
        "violations: {vs:?}"
    );
}

#[test]
fn audited_run_of_500_ticks_is_clean() {
    // Acceptance criterion: a full audited simulation over ≥ 500 ticks
    // reports zero invariant violations.
    let tick = SimConfig::builder(2).build().tick();
    let cfg = SimConfig::builder(100)
        .duration(tick * 501.0)
        .warmup(1.0)
        .seed(17)
        .audit(true)
        .build();
    assert!(cfg.tick_count() >= 500);
    let (report, violations) = Simulation::new(cfg).run_audited();
    assert!(report.depth >= 2);
    assert!(
        violations.is_empty(),
        "audited run reported {} violations; first: {:?}",
        violations.len(),
        violations.first()
    );
}

#[test]
fn audit_flag_off_collects_nothing() {
    let cfg = SimConfig::builder(60)
        .duration(1.0)
        .warmup(0.2)
        .seed(5)
        .build();
    let mut sim = Simulation::new(cfg);
    sim.step();
    assert!(sim.audit_violations().is_empty());
}

#[test]
fn snapshot_baseline_advances() {
    // Two consecutive clean ticks must both audit clean (the baseline
    // snapshot advances; deltas are per-tick, not cumulative).
    let cfg = SimConfig::builder(80)
        .mobility(MobilityKind::walk())
        .duration(2.0)
        .warmup(0.5)
        .seed(23)
        .audit(true)
        .build();
    let mut sim = Simulation::new(cfg);
    for _ in 0..20 {
        sim.step();
    }
    assert!(
        sim.audit_violations().is_empty(),
        "{:?}",
        sim.audit_violations()
    );
}

mod property {
    use super::*;
    use proptest::prelude::*;

    fn mobility_from(pick: usize) -> MobilityKind {
        match pick {
            0 => MobilityKind::Waypoint,
            1 => MobilityKind::walk(),
            _ => MobilityKind::Rpgm {
                groups: 6,
                group_radius: 2.0,
                jitter_radius: 0.5,
                jitter_speed: 0.5,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The auditor's contract: on an *uncorrupted* engine, every
        /// invariant holds on every tick for any (n, seed, mobility).
        #[test]
        fn clean_runs_never_report_violations(
            n in 30usize..90,
            seed in 0u64..1000,
            pick in 0usize..3,
        ) {
            let mobility = mobility_from(pick);
            let cfg = SimConfig::builder(n)
                .mobility(mobility)
                .duration(1.0)
                .warmup(0.3)
                .seed(seed)
                .audit(true)
                .build();
            let (_, violations) = Simulation::new(cfg).run_audited();
            prop_assert!(violations.is_empty(), "violations: {violations:?}");
        }
    }
}

#[test]
fn accum_snapshot_capture_is_stable() {
    let ledger = HandoffLedger::new();
    let rates = LevelRates::default();
    let events = EventCounts::with_levels(3);
    let tracker = StateTracker::new();
    // Capturing twice from the same state must be interchangeable as a
    // baseline: a no-op tick audits clean against either.
    let a = AccumSnapshot::capture(&rates, &events, &tracker);
    let mut out = Vec::new();
    chlm_sim::audit::check_ledger_delta(&[], &ledger, &[], &[], &mut out);
    chlm_sim::audit::check_rates_delta(&a, &rates, &[], &mut out);
    assert!(out.is_empty());
}
