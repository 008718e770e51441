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
use std::cell::Cell;
use std::rc::Rc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

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
        let before = counting_alloc::thread_calls();
        self.world.on_tick(ctx);
        let calls = counting_alloc::thread_calls() - before;
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
    let before = counting_alloc::thread_calls();
    for _ in 0..MEASURED_TICKS {
        sim.step();
    }
    // A reading of zero must not mean the counter is not installed: the
    // rest of the tick still allocates now and then.
    assert!(
        counting_alloc::thread_calls() > before,
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
