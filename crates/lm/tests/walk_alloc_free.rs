//! Tier-1 pin: a warmed `WalkScratch` walks without the allocator.
//!
//! The assignment stage walks every tick's hierarchy through one scratch
//! and hands each retired assignment back to it. Once the scratch has
//! walked hierarchies of a shape — its flattened levels, numbering
//! buffers, cursor blocks, tree-ordered rows and host table sized — a
//! serial `compute_with` + `recycle` on that shape must make no allocator
//! call at all.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_lm::server::{LmAssignment, SelectionRule, WalkScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (const-initialised and
    /// `Drop`-free, so reading it never allocates).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation verbatim to `System`; the counter is
// side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
            let before = CALLS.with(Cell::get);
            let again = LmAssignment::compute_with(h, rule, &mut scratch);
            let same = again == *warm;
            scratch.recycle(again);
            let calls = CALLS.with(Cell::get) - before;
            assert_eq!(
                calls, 0,
                "{rule:?}: the rewalk made {calls} allocator calls"
            );
            assert!(same, "{rule:?}: the rewalk changed the assignment");
        }
    }
    // A reading of zero above would be meaningless without the counter.
    let before = CALLS.with(Cell::get);
    drop(std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert!(
        CALLS.with(Cell::get) > before,
        "the counting allocator saw nothing"
    );
}
