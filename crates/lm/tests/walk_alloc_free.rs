//! Tier-1 pin: a warmed `WalkScratch` walks without the allocator.
//!
//! The assignment stage walks every tick's hierarchy through one scratch
//! and hands each retired assignment back to it. The walk reads the tree
//! order the hierarchy publishes and keeps only hash columns of its own.
//! Once the scratch has walked hierarchies of a shape — its hash columns,
//! cursor blocks, tree-ordered rows and host table sized — a serial
//! `compute_with` + `recycle` on that shape must make no allocator call at
//! all.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_lm::server::{LmAssignment, SelectionRule, WalkScratch};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// A 1500-node uniform deployment at density 1 and degree 9.
fn world(seed: u64) -> Hierarchy {
    let n = 1500;
    let mut rng = SimRng::seed_from(seed);
    let radius = chlm_geom::disk_radius_for_density(n, 1.0);
    let pts = chlm_geom::region::deploy_uniform(&Disk::centered(radius), n, &mut rng);
    let ids = rng.permutation(n);
    let graph = chlm_graph::unit_disk::build_unit_disk(&pts, chlm_geom::rtx_for_degree(9.0, 1.0));
    Hierarchy::build(&ids, &graph, HierarchyOptions::default())
}

#[test]
fn rewalk_on_a_warm_scratch_makes_no_allocator_call() {
    // Two worlds of one population: the warm-up walks both, so every
    // buffer holds the larger of their level sizes.
    let worlds = [world(5), world(6)];
    assert!(worlds[0].depth() >= 4, "depth {}", worlds[0].depth());
    for rule in [
        SelectionRule::Hrw,
        SelectionRule::ModSuccessor { id_space: 1500 },
    ] {
        let mut scratch = WalkScratch::new();
        let mut warm = Vec::new();
        for h in &worlds {
            let a = LmAssignment::compute_with(h, rule, &mut scratch);
            warm.push(a.clone());
            scratch.recycle(a);
        }
        for (h, warm) in worlds.iter().zip(&warm) {
            let before = counting_alloc::thread_calls();
            let again = LmAssignment::compute_with(h, rule, &mut scratch);
            let same = again == *warm;
            scratch.recycle(again);
            let calls = counting_alloc::thread_calls() - before;
            assert_eq!(
                calls, 0,
                "{rule:?}: the rewalk made {calls} allocator calls"
            );
            assert!(same, "{rule:?}: the rewalk changed the assignment");
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
