//! Tier-1 pin: a warm tick of the world observers runs without the
//! allocator.
//!
//! `WorldObservers` counts level-0 link events by a merge of the two
//! level-0 graphs (or takes the topology stage's flip count), and levels
//! `k >= 1` from one `level_diffs` pass that walks the two hierarchies in
//! place. Once its accumulators cover the world's depth and ALCA states,
//! a tick must make no allocator call at all.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_sim::observe::WorldObservers;
use chlm_sim::{HopPricer, Observer, SimConfig, Simulation, TickCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

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

const WARM_TICKS: usize = 20;
const MEASURED_TICKS: usize = 10;

/// A second `WorldObservers` riding the simulation's tick stream as an
/// extra observer; after the warm ticks it records the allocator calls
/// its own ticks make, and how many ticks it measured.
struct Probe {
    world: WorldObservers,
    ticks: usize,
    measured: Rc<Cell<(usize, u64)>>,
}

impl Observer for Probe {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        let before = CALLS.with(Cell::get);
        self.world.on_tick(ctx);
        let calls = CALLS.with(Cell::get) - before;
        if self.ticks >= WARM_TICKS {
            let (ticks, total) = self.measured.get();
            self.measured.set((ticks + 1, total + calls));
        }
        self.ticks += 1;
    }
}

#[test]
fn warm_world_observer_tick_makes_no_allocator_call() {
    let cfg = SimConfig::builder(2048)
        .seed(11)
        .warmup(2.0)
        .threads(1)
        .build();
    let mut sim = Simulation::new(cfg);
    let measured = Rc::new(Cell::new((0, 0)));
    sim.add_observer(Box::new(Probe {
        world: WorldObservers::new(sim.hierarchy()),
        ticks: 0,
        measured: measured.clone(),
    }));
    for _ in 0..WARM_TICKS {
        sim.step();
    }
    let before = CALLS.with(Cell::get);
    for _ in 0..MEASURED_TICKS {
        sim.step();
    }
    // A reading of zero must not mean the counter is not installed: the
    // rest of the tick still allocates now and then.
    assert!(
        CALLS.with(Cell::get) > before,
        "the counting allocator saw nothing"
    );
    assert!(
        sim.hierarchy().depth() >= 4,
        "depth {}",
        sim.hierarchy().depth()
    );
    assert!(sim.world_observers().taxonomy.counts.grand_total() > 0);
    assert_eq!(
        measured.get(),
        (MEASURED_TICKS, 0),
        "(ticks, allocator calls)"
    );
}
