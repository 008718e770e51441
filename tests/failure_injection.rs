//! Failure-injection and degenerate-topology tests: the stack must stay
//! correct (not just not-crash) when the network partitions, empties, or
//! degenerates.

use chlm::cluster::address::AddressBook;
use chlm::cluster::events::classify_events;
use chlm::geom::{Disk, Point, SimRng};
use chlm::lm::query::resolve_route;
use chlm::prelude::*;

fn ids(n: usize, seed: u64) -> Vec<u64> {
    SimRng::seed_from(seed).permutation(n)
}

#[test]
fn partitioned_network_keeps_per_component_hierarchies() {
    // Two far-apart blobs: no cross edges possible.
    let mut rng = SimRng::seed_from(1);
    let left = Disk::new(Point::new(-100.0, 0.0), 10.0);
    let right = Disk::new(Point::new(100.0, 0.0), 10.0);
    let mut pts = chlm::geom::region::deploy_uniform(&left, 60, &mut rng);
    pts.extend(chlm::geom::region::deploy_uniform(&right, 60, &mut rng));
    let g = build_unit_disk(&pts, 3.0);
    let h = Hierarchy::build(&ids(120, 1), &g, HierarchyOptions::default());
    h.check_invariants();
    // Top level has (at least) one head per side.
    let top = h.levels.last().unwrap();
    assert!(top.len() >= 2, "partition collapsed to one head?");
    // Queries across the partition fail cleanly; within a side they work.
    let a = LmAssignment::compute(&h, SelectionRule::Hrw);
    assert!(resolve_route(&h, &a, 0, 119).is_none());
    assert!(resolve_route(&h, &a, 0, 1).is_some());
}

#[test]
fn mass_node_failure_between_snapshots() {
    // Simulate a blast radius: half the nodes "die" (modeled as moving far
    // beyond everyone's range — the engine has no node removal, which the
    // paper also excludes, so this is the closest failure analog: total
    // link loss for the victims).
    let mut rng = SimRng::seed_from(2);
    let region = Disk::centered(15.0);
    let mut pts = chlm::geom::region::deploy_uniform(&region, 100, &mut rng);
    let g_before = build_unit_disk(&pts, 3.0);
    let the_ids = ids(100, 2);
    let before = Hierarchy::build(&the_ids, &g_before, HierarchyOptions::default());
    // Scatter the victims to isolated exile positions.
    for (i, p) in pts.iter_mut().enumerate().take(50) {
        *p = Point::new(10_000.0 + 100.0 * i as f64, 10_000.0);
    }
    let g_after = build_unit_disk(&pts, 3.0);
    let after = Hierarchy::build(&the_ids, &g_after, HierarchyOptions::default());
    after.check_invariants();
    // Diffs and event classification handle the upheaval.
    let changes = AddressBook::capture(&before).diff(&AddressBook::capture(&after));
    assert!(!changes.is_empty());
    let (_, counts) = classify_events(&before, &after);
    assert!(counts.grand_total() > 0);
    // Survivors keep a working LM: every survivor pair still resolves.
    let a = LmAssignment::compute(&after, SelectionRule::Hrw);
    let (comp, _) = chlm::graph::traversal::connected_components(&g_after);
    for s in 50..55u32 {
        for t in 55..60u32 {
            let same = comp[s as usize] == comp[t as usize];
            assert_eq!(resolve_route(&after, &a, s, t).is_some(), same);
        }
    }
}

#[test]
fn complete_graph_single_cluster() {
    // Everyone in range of everyone: one level-1 cluster, trivial LM.
    let pts: Vec<Point> = (0..20)
        .map(|i| Point::new((i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1))
        .collect();
    let g = build_unit_disk(&pts, 10.0);
    assert_eq!(g.edge_count(), 20 * 19 / 2);
    let h = Hierarchy::build(&ids(20, 3), &g, HierarchyOptions::default());
    assert_eq!(h.depth(), 2);
    let a = LmAssignment::compute(&h, SelectionRule::Hrw);
    assert_eq!(a.entry_count(), 0); // no level ≥ 2 ⇒ level-1 knowledge suffices
                                    // Query resolves at level 1 for free.
    let route = resolve_route(&h, &a, 0, 19).unwrap();
    assert_eq!(route.level, 1);
    assert_eq!(route.server, None);
}

#[test]
fn colinear_chain_topology() {
    // A 1-D chain stresses the hierarchy (maximum diameter per node).
    let pts: Vec<Point> = (0..80).map(|i| Point::new(i as f64, 0.0)).collect();
    let g = build_unit_disk(&pts, 1.1);
    assert_eq!(g.edge_count(), 79);
    let h = Hierarchy::build(&ids(80, 4), &g, HierarchyOptions::default());
    h.check_invariants();
    let a = LmAssignment::compute(&h, SelectionRule::Hrw);
    // The chain's two ends share a cluster at some level.
    let route = resolve_route(&h, &a, 0, 79).unwrap();
    assert!(route.level < h.depth());
    // Hierarchical routing still delivers end to end.
    let path = chlm::routing::hierarchical_path(&h, 0, 79).unwrap();
    assert_eq!(path.shortest, 79);
    assert_eq!(path.hops, 79); // only one path exists
}

#[test]
fn duplicate_positions_fully_overlapping() {
    // All nodes stacked on one point: complete graph; must not divide by
    // zero anywhere (distances are all 0).
    let pts = vec![Point::new(1.0, 1.0); 30];
    let g = build_unit_disk(&pts, 1.0);
    let h = Hierarchy::build(&ids(30, 5), &g, HierarchyOptions::default());
    h.check_invariants();
    assert_eq!(h.depth(), 2);
}

#[test]
fn simulation_survives_sparse_disconnected_regime() {
    // Degree target far below the connectivity threshold: the graph is a
    // dust of tiny components. The engine must run and report zeros
    // gracefully rather than panic.
    let cfg = SimConfig::builder(80)
        .target_degree(0.5)
        .duration(2.0)
        .warmup(0.5)
        .seed(6)
        .query_rate(1.0)
        .build();
    let r = run_simulation(&cfg);
    assert!(r.mean_degree < 2.0);
    assert!(r.total_overhead() >= 0.0);
    // Lookups across the dust mostly fail; none may go missing.
    let q = r.query.expect("query plane on");
    assert!(q.arrivals > 0);
    assert_eq!(q.arrivals, q.resolved + q.unresolved);
}

#[test]
fn hier_routing_pricing_survives_a_two_node_world() {
    // Two nodes: at most one edge, a hierarchy of depth 1 or 2, and ticks
    // where the pair is out of range. The routing-table cost model must
    // price every tick without panicking.
    let cfg = SimConfig::builder(2)
        .hop_metric(HopMetric::HierRouting)
        .duration(1.0)
        .warmup(0.0)
        .seed(7)
        .build();
    let mut engine = chlm::sim::build_engine(&cfg);
    for _ in 0..5 {
        engine.step();
    }
    assert!(engine.finish_boxed().total_overhead().is_finite());
}
