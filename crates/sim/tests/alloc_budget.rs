//! Tier-1 pin on the tick's allocator-call count.
//!
//! The `benchmark/` harness that judges `allocs_per_tick` runs outside
//! `cargo test`; this is the same reading at a size tier-1 can afford, so
//! a change that brings per-cluster `Vec`s (or any other per-tick
//! allocation storm) back fails here first.
//!
//! Reading: `Simulation::step` on a fixed n = 2048 waypoint world, one
//! thread, 20 warm ticks, mean allocator calls over the next 10 — identical
//! in debug and release builds:
//!
//! * parent of ISSUE 21 (diff-driven maintainer, contraction by
//!   `add_edge`, snapshot copied out): 1 171.1 calls a tick,
//! * ISSUE 21 (hierarchy rebuilt in place): 204.4 calls a tick,
//! * ISSUE 22 (`Graph` rows in one arena: 88.5; `phys_edges` reserving its
//!   edge count: 42.8): 42.8 calls a tick,
//! * the level-0 link rate counted by `LinkDiff::count_between` instead of
//!   read off a collected `LinkDiff`: 23.0 calls a tick,
//! * the world observers folded from one allocation-free level diff, and
//!   the address and host diffs written into buffers the world keeps
//!   across ticks: 1.3 calls a tick,
//! * the per-node run index of the CHLM handoff derivation
//!   (`chlm_lm::handoff::for_each_handoff`) kept by `ChlmScheme` across
//!   ticks, and the topology maintainer in cell order: 0.5 calls a tick.
//!
//! The same world at two threads, counted process-wide (the topology
//! patch and the LM walk fan out over the stages' one pool):
//!
//! * threads spawned per fan-out (`std::thread::scope`), two fan-outs a
//!   tick, plus each fan-out's collected parts and the walk's job list:
//!   18.8 calls a tick,
//! * the pool's worker parked across calls, its parts claimed off an
//!   iterator, the walk's jobs zipped from `split_ranges` without a list:
//!   0.8 calls a tick.
//!
//! The bound is the latest reading with a quarter of headroom, rounded
//! up; it only ever goes down. What remains is, now and then, a hierarchy
//! level graph's arena growing past its high-water mark. No stage, diff
//! stream or world observer allocates in a steady tick
//! (`world_observers_alloc_free.rs` pins the observers at zero,
//! `chlm-graph`'s `maintainer_alloc_free.rs` the topology maintainer).
//!
//! One `#[test]` in its own binary, so nothing the harness does beside it
//! lands in the window: the one-thread reading counts only the test's own
//! thread, the two-thread reading the whole process.

use chlm_sim::{SimConfig, Simulation};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The latest reading above x 1.25, rounded up.
const BUDGET_CALLS_PER_TICK: f64 = 1.0;

/// The same at two threads, counted process-wide.
const BUDGET_CALLS_PER_TICK_T2: f64 = 1.0;

/// Mean allocator calls a tick of the n = 2048 world at `threads`, as
/// `calls` counts them, over 10 ticks after 20 warm ones.
fn calls_per_tick(threads: usize, calls: fn() -> u64) -> f64 {
    const WARM_TICKS: usize = 20;
    const MEASURED_TICKS: usize = 10;
    let cfg = SimConfig::builder(2048)
        .seed(11)
        .warmup(2.0)
        .threads(threads)
        .build();
    let mut sim = Simulation::new(cfg);
    for _ in 0..WARM_TICKS {
        sim.step();
    }
    let before = calls();
    for _ in 0..MEASURED_TICKS {
        sim.step();
    }
    (calls() - before) as f64 / MEASURED_TICKS as f64
}

#[test]
fn step_stays_inside_the_allocation_budget() {
    // The schedule fuzz permutes a collected copy of each fan-out's parts,
    // so it allocates by design; this pins the production path.
    std::env::remove_var(chlm_par::SHUFFLE_ENV);
    let per_tick = calls_per_tick(1, counting_alloc::thread_calls);
    assert!(
        per_tick <= BUDGET_CALLS_PER_TICK,
        "{per_tick} allocator calls a tick, budget {BUDGET_CALLS_PER_TICK}"
    );
    // A reading of zero would mean the counter is not installed.
    assert!(per_tick > 0.0, "the counting allocator saw nothing");

    let per_tick = calls_per_tick(2, counting_alloc::process_calls);
    assert!(
        per_tick <= BUDGET_CALLS_PER_TICK_T2,
        "threads 2: {per_tick} allocator calls a tick, budget {BUDGET_CALLS_PER_TICK_T2}"
    );
}
