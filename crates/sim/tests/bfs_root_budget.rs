//! Tier-1 work pin on the BFS roots a tick of BFS-priced banks searches.
//!
//! `bfs_alloc_budget.rs` pins the allocator calls of the grid-e27 shape
//! (six CHLM / GLS / home-agent × analytic / packet banks, BFS pricing,
//! lookups at rate 2) at n = 256; this pins its work, on the same world:
//! how many roots the tick's graph holds once every bank has booked, which
//! is the number of full BFS rows the tick computed.
//!
//! Reading: `MultiplexSim::step`, one thread, 10 warm ticks, mean roots
//! held over the next 20 —
//!
//! * every bank's transport filling its own legs, each uncovered pair
//!   rooted at its first member: 224.7 roots a tick,
//! * one fill a tick of every plane's pairs, rooted at a greedy
//!   max-degree vertex cover of the open ones: 161.15 roots a tick.
//!
//! The bound is the latest reading with a tenth of headroom, rounded
//! down; it only ever goes down.

use std::cell::Cell;
use std::rc::Rc;

use chlm_sim::{
    Backend, HopMetric, HopPricer, LmScheme, MultiplexSim, Observer, SimConfig, TickCtx,
    VariantSpec,
};

/// The latest reading above x 1.1, rounded down.
const BUDGET_ROOTS_PER_TICK: f64 = 177.0;

/// Adds up the roots the tick's graph holds after its bank has booked.
struct HeldRoots(Rc<Cell<usize>>);

impl Observer for HeldRoots {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        self.0.set(self.0.get() + ctx.graph.hop_roots().count());
    }
}

#[test]
fn bfs_priced_banks_search_inside_the_root_budget() {
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
    let held = Rc::new(Cell::new(0));
    // On the last bank: read after every bank has booked the tick.
    sim.add_observer(variants.len() - 1, Box::new(HeldRoots(held.clone())));
    for _ in 0..WARM_TICKS {
        sim.step();
    }
    held.set(0);
    for _ in 0..MEASURED_TICKS {
        sim.step();
    }
    let per_tick = held.get() as f64 / MEASURED_TICKS as f64;
    assert!(
        per_tick <= BUDGET_ROOTS_PER_TICK,
        "{per_tick} BFS roots a tick, budget {BUDGET_ROOTS_PER_TICK}"
    );
    // A reading of zero would mean nothing read a BFS distance.
    assert!(per_tick > 0.0, "no tick searched a root");
}
