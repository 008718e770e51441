//! Tier-1 pin on the allocator calls and bytes of a tick whose banks price
//! with BFS.
//!
//! `alloc_budget.rs` pins a world that never reads a BFS distance. This is
//! the grid-e27 shape — the six CHLM / GLS / home-agent × analytic /
//! packet banks of E27, BFS pricing, lookups at rate 2 — at a size tier-1
//! can afford, so that a heap row per BFS root (or any other per-root
//! allocation) cannot come back unnoticed.
//!
//! Reading: `MultiplexSim::step` on a fixed n = 256 waypoint world, one
//! thread, 10 warm ticks, mean allocator calls (and, since the last
//! entry, the bytes they ask for) over the next 20 — identical in debug
//! and release builds:
//!
//! * one `Vec<u32>` row per root in the topology's shortest-path memo:
//!   344.7 calls a tick,
//! * one bit-plane block per batch of up to 64 roots, and a thin batch's
//!   root computed only for a leg neither of whose ends is held: 85.55
//!   calls a tick,
//! * one fill a tick instead of one per bank and plane, rooted at a
//!   vertex cover of every plane's pairs, in buffers kept across ticks:
//!   39.4 calls a tick (37.05 calls and 81 547 bytes a tick when re-read
//!   just before the next entry),
//! * the fill's kernel scratch, batching buffers, bit-plane blocks and
//!   the graph's cell table kept across ticks, each batch written once in
//!   place: 11.2 calls and 9 470.2 bytes a tick.
//!
//! Each bound is the latest reading with a quarter of headroom, rounded
//! up; it only ever goes down.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_sim::{Backend, HopMetric, LmScheme, MultiplexSim, SimConfig, VariantSpec};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The latest reading above x 1.25, rounded up.
const BUDGET_CALLS_PER_TICK: f64 = 14.0;

/// The latest reading above x 1.25, rounded up.
const BUDGET_BYTES_PER_TICK: f64 = 11_838.0;

#[test]
fn bfs_priced_banks_stay_inside_the_allocation_budget() {
    const WARM_TICKS: usize = 10;
    const MEASURED_TICKS: usize = 20;
    let cfg = SimConfig::builder(256)
        .seed(11)
        .warmup(2.0)
        .threads(1)
        .query_rate(2.0)
        .hop_metric(HopMetric::Bfs)
        .build();
    let mut variants = Vec::new();
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for backend in [Backend::Analytic, Backend::packet()] {
            variants.push(VariantSpec::new(
                format!("{scheme:?}/{backend:?}"),
                scheme,
                HopMetric::Bfs,
                backend,
            ));
        }
    }
    let mut sim = MultiplexSim::new(&cfg, &variants);
    for _ in 0..WARM_TICKS {
        sim.step();
    }
    let (before, bytes_before) = (
        counting_alloc::thread_calls(),
        counting_alloc::thread_bytes(),
    );
    for _ in 0..MEASURED_TICKS {
        sim.step();
    }
    let per_tick = (counting_alloc::thread_calls() - before) as f64 / MEASURED_TICKS as f64;
    let bytes_per_tick =
        (counting_alloc::thread_bytes() - bytes_before) as f64 / MEASURED_TICKS as f64;
    assert!(
        per_tick <= BUDGET_CALLS_PER_TICK,
        "{per_tick} allocator calls a tick, budget {BUDGET_CALLS_PER_TICK}"
    );
    assert!(
        bytes_per_tick <= BUDGET_BYTES_PER_TICK,
        "{bytes_per_tick} bytes allocated a tick, budget {BUDGET_BYTES_PER_TICK}"
    );
    // A reading of zero would mean the counter is not installed.
    assert!(per_tick > 0.0, "the counting allocator saw nothing");
}
