//! Tier-1 pin: a table rebuild over a warm table runs without the allocator.
//!
//! `HopMetric::HierRouting` pricing rebuilds one `NextHopTable` in place
//! every tick. Once its buffers — cluster index, rows, the level-0 graph
//! copy, search scratch, the scope subgraph — have held tables of a shape,
//! a rebuild of that shape must make no allocator call at all.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_graph::NodeIdx;
use chlm_routing::nexthop::NextHopTable;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The hierarchy of a 1500-node uniform deployment at density 1 and
/// degree 9, with the simulator's `min_reduction`.
fn hierarchy(seed: u64) -> Hierarchy {
    let n = 1500;
    let mut rng = SimRng::seed_from(seed);
    let radius = chlm_geom::disk_radius_for_density(n, 1.0);
    let pts = chlm_geom::region::deploy_uniform(&Disk::centered(radius), n, &mut rng);
    let ids = rng.permutation(n);
    let graph = chlm_graph::unit_disk::build_unit_disk(&pts, chlm_geom::rtx_for_degree(9.0, 1.0));
    let opts = HierarchyOptions {
        min_reduction: 1.25,
        ..HierarchyOptions::default()
    };
    Hierarchy::build(&ids, &graph, opts)
}

#[test]
fn warm_rebuild_makes_no_allocator_call() {
    let worlds = [hierarchy(5), hierarchy(6)];
    assert!(worlds[0].depth() >= 4, "depth {}", worlds[0].depth());
    let fresh: Vec<NextHopTable> = worlds.iter().map(NextHopTable::build).collect();
    let mut pairs = SimRng::seed_from(7);
    let pairs: Vec<(NodeIdx, NodeIdx)> = (0..500)
        .map(|_| (pairs.index(1500) as NodeIdx, pairs.index(1500) as NodeIdx))
        .collect();
    let mut table = NextHopTable::default();
    // The worlds alternate; the first two rounds warm every buffer to the
    // larger of the two shapes.
    for round in 0..6 {
        let w = round % 2;
        let before = counting_alloc::thread_calls();
        table.rebuild(&worlds[w]);
        let calls = counting_alloc::thread_calls() - before;
        if round >= 2 {
            assert_eq!(
                calls, 0,
                "round {round}: rebuilding over world {w} made {calls} allocator calls"
            );
        }
        for &(s, t) in &pairs {
            assert_eq!(
                table.route_hops(s, t),
                fresh[w].route_hops(s, t),
                "round {round}: world {w}, route {s} -> {t}"
            );
        }
    }
    // A reading of zero above would be meaningless without the counter.
    let before = counting_alloc::thread_calls();
    drop(std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert!(
        counting_alloc::thread_calls() > before,
        "the counting allocator saw nothing"
    );
}
