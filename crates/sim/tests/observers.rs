//! Observer unit tests over a recorded two-tick fixture.
//!
//! Each observer from `chlm_sim::observe` is driven through the same
//! hand-built three-snapshot (= two-tick) scenario: eight nodes on a line,
//! one link rewired per tick. The standalone observers run in isolation;
//! link rate, level churn and the taxonomy are filled together from one
//! level diff, so they are driven through `WorldObservers`. Snapshots are built from
//! explicit edge lists, so the level-0 quantities (link events, mean
//! degree) are hand-countable,
//! while the cluster-level quantities are pinned against recorded values
//! and against the diff streams computed directly from the snapshots —
//! exactly the contract each observer has with the engine.

use chlm_cluster::address::{AddrChange, AddrChangeKind, AddressBook};
use chlm_cluster::events::classify_events;
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::Point;
use chlm_graph::{Graph, NodeIdx};
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_sim::observe::{AddressChurnObserver, AlcaStateObserver, DegreeObserver, WorldObservers};
use chlm_sim::{make_accounting, HopPricer, SimConfig, TickCtx};

const N: usize = 8;
const DT: f64 = 0.5;
const RTX: f64 = 1.0;

/// Election IDs: node 7 carries the largest ID so rewiring its links
/// reshapes cluster headship, not just membership.
const IDS: [u64; N] = [13, 7, 21, 3, 29, 11, 5, 97];

struct Snap {
    positions: Vec<Point>,
    graph: Graph,
    hierarchy: Hierarchy,
    book: AddressBook,
    assignment: LmAssignment,
}

fn snap(positions: Vec<Point>, edges: &[(NodeIdx, NodeIdx)]) -> Snap {
    let graph = Graph::from_edges(N, edges);
    let hierarchy = Hierarchy::build(&IDS, &graph, HierarchyOptions::default());
    let book = AddressBook::capture(&hierarchy);
    let assignment = LmAssignment::compute(&hierarchy, SelectionRule::Hrw);
    Snap {
        positions,
        graph,
        hierarchy,
        book,
        assignment,
    }
}

fn line(spacing: f64) -> Vec<Point> {
    (0..N)
        .map(|i| Point::new(i as f64 * spacing, 0.0))
        .collect()
}

/// Three snapshots = two ticks.
///
/// * S0: path 0–1–…–7 plus chord 0–2 (8 edges).
/// * tick 0 → S1: link 6–7 breaks, link 5–7 forms (node 7 drifts toward
///   node 5) — 2 level-0 link events.
/// * tick 1 → S2: chord 0–2 breaks, link 6–7 re-forms — 2 more events.
///
/// Every snapshot keeps exactly 8 edges, so the mean degree stays 2.0.
fn fixture() -> [Snap; 3] {
    let path: Vec<(NodeIdx, NodeIdx)> = (0..N as NodeIdx - 1).map(|i| (i, i + 1)).collect();
    let mut e0 = path.clone();
    e0.push((0, 2));

    let mut e1: Vec<(NodeIdx, NodeIdx)> = e0.iter().copied().filter(|&e| e != (6, 7)).collect();
    e1.push((5, 7));
    let mut p1 = line(0.9);
    p1[7] = Point::new(4.4, 0.6);

    let mut e2: Vec<(NodeIdx, NodeIdx)> = e1.iter().copied().filter(|&e| e != (0, 2)).collect();
    e2.push((6, 7));
    let mut p2 = line(0.9);
    p2[7] = Point::new(5.2, 0.5);

    [snap(line(0.9), &e0), snap(p1, &e1), snap(p2, &e2)]
}

/// Build the tick-`t` context exactly as the engine would, with the diff
/// streams borrowed from `diffs`.
fn ctx_at<'a>(
    snaps: &'a [Snap; 3],
    t: usize,
    host_changes: &'a [chlm_lm::server::HostChange],
    addr_changes: &'a [AddrChange],
) -> TickCtx<'a> {
    let (old, new) = (&snaps[t], &snaps[t + 1]);
    TickCtx {
        tick: t,
        dt: DT,
        n: N,
        rtx: RTX,
        ids: &IDS,
        positions: &new.positions,
        graph: &new.graph,
        old_hierarchy: &old.hierarchy,
        new_hierarchy: &new.hierarchy,
        old_book: &old.book,
        new_book: &new.book,
        old_assignment: &old.assignment,
        new_assignment: &new.assignment,
        host_changes,
        addr_changes,
        query_arrivals: &[],
    }
}

/// Drive `on_tick` through both fixture ticks with the real diff streams.
fn run_two_ticks(snaps: &[Snap; 3], mut on_tick: impl FnMut(&TickCtx<'_>)) {
    for t in 0..2 {
        let addr_changes = snaps[t].book.diff(&snaps[t + 1].book);
        let host_changes = snaps[t].assignment.diff(&snaps[t + 1].assignment);
        on_tick(&ctx_at(snaps, t, &host_changes, &addr_changes));
    }
}

/// Drive a `WorldObservers` seeded from S0 through both fixture ticks with
/// the real diff streams; `link_flips[t]` stands in for the topology
/// stage's flip count of tick `t`.
fn run_world_two_ticks(snaps: &[Snap; 3], link_flips: [Option<usize>; 2]) -> WorldObservers {
    let mut obs = WorldObservers::new(&snaps[0].hierarchy);
    for t in 0..2 {
        let addr_changes = snaps[t].book.diff(&snaps[t + 1].book);
        let host_changes = snaps[t].assignment.diff(&snaps[t + 1].assignment);
        obs.on_tick_with(
            &ctx_at(snaps, t, &host_changes, &addr_changes),
            link_flips[t],
        );
    }
    obs
}

/// The rewiring makes 2 symmetric-difference link events per tick; the
/// exposure denominator is `2 · n · dt` node-seconds. Counted by merging
/// the level-0 graphs, or taken from the topology stage's flips — the
/// same count either way, and a mix of the two across ticks.
#[test]
fn link_rate_counts_rewired_level0_links() {
    let snaps = fixture();
    for flips in [[None, None], [Some(2), Some(2)], [Some(2), None]] {
        let obs = run_world_two_ticks(&snaps, flips).link;
        assert_eq!(obs.rate.events, 4, "{flips:?}");
    }
    let obs = run_world_two_ticks(&snaps, [None, None]).link;
    assert_eq!(obs.rate.node_seconds, 2.0 * N as f64 * DT);
    assert_eq!(obs.rate.per_node_per_second(), 0.5);
}

/// The real fixture produces only migrations (recorded); a crafted diff
/// stream exercises the reorganization arm and the per-level binning.
#[test]
fn address_churn_splits_kinds_and_levels() {
    let snaps = fixture();
    let mut obs = AddressChurnObserver::default();
    run_two_ticks(&snaps, |ctx| obs.on_tick(ctx));
    // Recorded: tick 0 moves nodes 5 and 6 at level 1; tick 1 cascades
    // node 0 up through level 3 and moves node 6 at level 1.
    assert_eq!(obs.rates.migration_events, vec![0, 4, 1, 1]);
    assert!(obs.rates.reorg_events.iter().all(|&r| r == 0));

    let crafted = [
        AddrChange {
            node: 3,
            level: 1,
            old_head: 2,
            new_head: 4,
            kind: AddrChangeKind::Migration,
        },
        AddrChange {
            node: 3,
            level: 2,
            old_head: 0,
            new_head: 4,
            kind: AddrChangeKind::Reorganization,
        },
        AddrChange {
            node: 5,
            level: 2,
            old_head: 0,
            new_head: 4,
            kind: AddrChangeKind::Reorganization,
        },
    ];
    let mut obs = AddressChurnObserver::default();
    obs.on_tick(&ctx_at(&snaps, 0, &[], &crafted));
    assert_eq!(obs.rates.migration_events, vec![0, 1, 0]);
    assert_eq!(obs.rates.reorg_events, vec![0, 0, 2]);
}

/// Pair-dependent, non-dyadic hop price: sums of two of these round, so
/// `(slot + a) + b` and `slot + (a + b)` differ in the last bit and the
/// test below sees whether a two-leg event is summed before it is booked.
struct SqrtPricer;

impl HopPricer for SqrtPricer {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
        if a == b {
            0.0
        } else {
            ((31 * a + b) as f64).sqrt()
        }
    }
}

/// How often the reference test replays the two fixture ticks: a slot
/// that is still 0.0 absorbs either summation order exactly, so the
/// ledger has to carry a balance before the order shows.
const ROUNDS: usize = 4;

/// CHLM reaches the ledger through `ChlmScheme` → `Transport` →
/// `HandoffLedger::book`; `HandoffLedger::record` is the reference. Over
/// the same diff streams and the same pricer the two must agree bit for
/// bit on every `LevelCost` field and on `node_seconds`.
///
/// The fixture's own re-registrations are all subject == new server
/// (price 0), so the address diff is crafted instead: every other host
/// change has its subject's exact `(node, level)` address changed, kinds
/// alternating. That makes half the events two-leg with a priced
/// REGISTER, and sends the rest through the host-side and default arms
/// of the cascade.
#[test]
fn chlm_analytic_accounting_equals_direct_record() {
    let snaps = fixture();
    let cfg = SimConfig::builder(N).duration(1.0).warmup(0.0).build();
    let mut obs = make_accounting(&cfg);
    let mut direct = HandoffLedger::new();
    let mut priced_registrations = 0;
    for _ in 0..ROUNDS {
        for t in 0..2 {
            let host_changes = snaps[t].assignment.diff(&snaps[t + 1].assignment);
            let crafted: Vec<AddrChange> = host_changes
                .iter()
                .step_by(2)
                .enumerate()
                .map(|(i, hc)| AddrChange {
                    node: hc.subject,
                    level: hc.level,
                    old_head: hc.old_host,
                    new_head: hc.new_host,
                    kind: if i % 2 == 0 {
                        AddrChangeKind::Migration
                    } else {
                        AddrChangeKind::Reorganization
                    },
                })
                .collect();
            priced_registrations += host_changes
                .iter()
                .step_by(2)
                .filter(|hc| hc.subject != hc.new_host)
                .count();
            obs.on_tick(&ctx_at(&snaps, t, &host_changes, &crafted), &mut SqrtPricer);
            direct.record(&host_changes, &crafted, |a, b| SqrtPricer.hops(a, b), N, DT);
        }
    }
    assert!(priced_registrations > 0, "need two-leg events that cost");
    let ledger = obs.ledger();
    assert_eq!(ledger.per_level.len(), direct.per_level.len());
    for (got, want) in ledger.per_level.iter().zip(&direct.per_level) {
        assert_eq!(
            got.migration_packets.to_bits(),
            want.migration_packets.to_bits()
        );
        assert_eq!(got.reorg_packets.to_bits(), want.reorg_packets.to_bits());
        assert_eq!(got.migration_events, want.migration_events);
        assert_eq!(got.reorg_events, want.reorg_events);
    }
    assert_eq!(ledger.node_seconds.to_bits(), direct.node_seconds.to_bits());
    assert_eq!(ledger.node_seconds, (2 * ROUNDS * N) as f64 * DT);
    assert!(ledger.phi_total() > 0.0);
    assert!(ledger.gamma_total() > 0.0);
}

/// Level-k churn and exposure, pinned to the recorded fixture: the level-1
/// cluster graph rewires three times across the two ticks, levels 2 and 3
/// once each, and no rewired link has both endpoints persisting at its
/// level (every event here is election relabeling, not drift).
#[test]
fn level_churn_matches_recorded_fixture() {
    let snaps = fixture();
    let obs = run_world_two_ticks(&snaps, [None, None]).churn;
    assert_eq!(obs.rates.link_events, vec![0, 3, 1, 1, 0]);
    assert!(obs.rates.persisting_link_events.iter().all(|&p| p == 0));
    assert_eq!(obs.rates.link_seconds, vec![0.0, 3.0, 1.5, 0.5, 0.0]);
    assert_eq!(obs.rates.level_node_seconds, vec![0.0, 4.0, 2.5, 1.5, 0.5]);
    assert_eq!(obs.rates.node_seconds, 2.0 * N as f64 * DT);
}

/// The taxonomy accumulates exactly the per-tick `classify_events`
/// counts, merged across ticks.
#[test]
fn taxonomy_accumulates_per_tick_classification() {
    let snaps = fixture();
    let obs = run_world_two_ticks(&snaps, [None, None]).taxonomy;

    let mut manual = classify_events(&snaps[0].hierarchy, &snaps[1].hierarchy).1;
    manual.merge(&classify_events(&snaps[1].hierarchy, &snaps[2].hierarchy).1);
    assert_eq!(obs.counts, manual);
    let fresh = chlm_cluster::events::EventCounts::with_levels(snaps[0].hierarchy.depth());
    assert_ne!(obs.counts, fresh, "fixture must produce taxonomy events");
}

/// The ALCA observer snapshots the initial hierarchy at construction and
/// each tick's new hierarchy after that: three observations in total.
#[test]
fn alca_tracker_sees_initial_plus_both_ticks() {
    let snaps = fixture();
    let mut obs = AlcaStateObserver::new(&snaps[0].hierarchy);
    run_two_ticks(&snaps, |ctx| obs.on_tick(ctx));
    assert_eq!(obs.tracker.ticks(), 3);
    // Depth grows from 4 to 5 on tick 1; the tracker must have seen both.
    assert!(obs.tracker.level_count() >= 5);
}

/// Every snapshot keeps 8 edges over 8 nodes (mean degree 2.0), and the
/// depth-5 hierarchy of tick 1 must register as the maximum.
#[test]
fn degree_observer_sums_mean_degree_and_depth() {
    let snaps = fixture();
    let mut obs = DegreeObserver::new(snaps[0].hierarchy.depth());
    run_two_ticks(&snaps, |ctx| obs.on_tick(ctx));
    assert_eq!(obs.degree_sum, 4.0);
    assert_eq!(obs.max_depth, 5);
}
