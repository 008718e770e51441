//! Tier-1 pin: a rebuild into a warm carcass runs without the allocator.
//!
//! The hierarchy stage rebuilds every tick's hierarchy into the snapshot it
//! retired two ticks earlier, through one `RebuildScratch`. Once the
//! carcasses and the scratch have held hierarchies of a shape — level
//! columns, slot tables, level graphs, tree-order columns, parked levels
//! sized — a rebuild of that shape must make no allocator call at all.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_cluster::{Hierarchy, HierarchyOptions, RebuildScratch};
use chlm_geom::{Disk, SimRng};
use chlm_graph::Graph;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// A 1500-node uniform deployment at density 1 and degree 9, with its
/// election IDs.
fn world(seed: u64) -> (Vec<u64>, Graph) {
    let n = 1500;
    let mut rng = SimRng::seed_from(seed);
    let radius = chlm_geom::disk_radius_for_density(n, 1.0);
    let pts = chlm_geom::region::deploy_uniform(&Disk::centered(radius), n, &mut rng);
    let ids = rng.permutation(n);
    let graph = chlm_graph::unit_disk::build_unit_disk(&pts, chlm_geom::rtx_for_degree(9.0, 1.0));
    (ids, graph)
}

#[test]
fn rebuild_into_a_warm_carcass_makes_no_allocator_call() {
    let worlds = [world(5), world(6)];
    let opts = HierarchyOptions::default();
    let expect: Vec<Hierarchy> = worlds
        .iter()
        .map(|(ids, g)| Hierarchy::build(ids, g, opts))
        .collect();
    assert!(expect[0].depth() >= 4, "depth {}", expect[0].depth());
    let mut carcasses = [Hierarchy::default(), Hierarchy::default()];
    let mut scratch = RebuildScratch::default();
    // Each round rebuilds world `(c + round) % 2` into carcass `c`, so both
    // carcasses alternate between the two worlds; the first two rounds warm
    // every buffer to the larger of the two shapes.
    for round in 0..6 {
        for (c, carcass) in carcasses.iter_mut().enumerate() {
            let w = (c + round) % 2;
            let (ids, g) = &worlds[w];
            let before = counting_alloc::thread_calls();
            carcass.rebuild(ids, g, opts, &mut scratch);
            let calls = counting_alloc::thread_calls() - before;
            if round >= 2 {
                assert_eq!(
                    calls, 0,
                    "round {round}: rebuilding world {w} into carcass {c} made {calls} allocator calls"
                );
            }
            assert!(
                *carcass == expect[w],
                "round {round}: world {w} rebuilt wrong"
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
