//! Tier-1 pin on the memory the hop store's fill keeps across ticks.
//!
//! A fill keeps its buffers and its bit-plane blocks (`chlm_graph::HopFill`):
//! the words of a block whose graph has mutated since are written over by
//! a later batch — the free words of least room that hold it, new words
//! only when none do. That must neither call the allocator once the pool
//! holds enough nor grow past what a tick needs. This runs the grid-e27
//! shape — the six CHLM / GLS / home-agent × analytic / packet banks of
//! E27, BFS pricing, lookups at rate 2 — at n = 256 for 200 ticks, and
//! replays every tick's fill on a copy of the tick's graph (kept across
//! ticks, as the world keeps its own) with the pairs the tick handed to
//! its own fill, in one `HopFill`:
//!
//! * the replay holds the same roots as the tick's own fill;
//! * a tick whose blocks, largest first, are each no larger than the
//!   largest, second largest, … block any earlier tick wrote, and whose
//!   pairs are no more than the most of any earlier tick (the vertex
//!   cover's buffers are sized by them), makes no allocator call in its
//!   fill (measured: 186 such ticks; 9 ticks of 200 allocate, the last
//!   at tick 53, none of them such a tick) — at one worker and at two,
//!   where the workers share the fill's block words and every worker's
//!   kernel buffer keeps room for the widest batch any has written, so a
//!   batch lands on either worker without growing anything, and the pool
//!   wakes its parked worker without a thread spawn;
//! * from tick 20 on, the heap the replay's fill state and its copy's hop
//!   store hold — every buffer, block and the cell table, read from the
//!   counting allocator as bytes handed out less bytes freed over every
//!   replayed fill — stays within a quarter over the largest single tick's
//!   need so far: what a fresh fill state on a cold clone of the tick's
//!   graph holds after that tick's fill (measured: at most 1.15 times).
//!
//! One `#[test]` in its own binary. The one-worker replay counts only the
//! test's own thread; the two-worker replay, on a second copy of the
//! tick's graph, counts the whole process, because its batches run on the
//! pool's worker too (nothing else runs beside the test).

use std::cell::RefCell;
use std::rc::Rc;

use chlm_graph::{Graph, HopFill};
use chlm_par::WorkerPool;
use chlm_sim::{
    Backend, HopMetric, HopPricer, LmScheme, MultiplexSim, Observer, SimConfig, TickCtx,
    VariantSpec,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Copies the tick's graph twice, one copy per replay width, and counts
/// the roots its fill holds, once the bank has booked.
struct Snapshot {
    graphs: Rc<RefCell<[Graph; 2]>>,
    roots: Rc<RefCell<usize>>,
}

impl Observer for Snapshot {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        for graph in self.graphs.borrow_mut().iter_mut() {
            graph.copy_from(ctx.graph);
        }
        *self.roots.borrow_mut() = ctx.graph.hop_roots().count();
    }
}

#[test]
fn the_fill_pool_neither_allocates_in_steady_state_nor_creeps() {
    // The schedule fuzz permutes a collected copy of each fan-out's parts,
    // so it allocates by design; this pins the production path.
    std::env::remove_var(chlm_par::SHUFFLE_ENV);
    const TICKS: usize = 200;
    const SETTLE: usize = 20;
    let n = 256;
    let cfg = SimConfig::builder(n)
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
    let graphs = Rc::new(RefCell::new([Graph::default(), Graph::default()]));
    let roots = Rc::new(RefCell::new(0));
    sim.add_observer(
        0,
        Box::new(Snapshot {
            graphs: graphs.clone(),
            roots: roots.clone(),
        }),
    );
    let mut fill = HopFill::default();
    let workers = WorkerPool::new(1);
    // The same replay at two workers, on the second copy.
    let (mut fill2, workers2) = (HopFill::default(), WorkerPool::new(2));
    // Bytes the replay's fill state and its copy's hop store hold.
    let mut kept = 0;
    // The largest block any earlier tick wrote, the second largest, …;
    // the most pairs and the most bytes any earlier tick needed.
    let mut widest: Vec<usize> = Vec::new();
    let (mut most_pairs, mut most_need) = (0, 0);
    let mut quiet = 0;
    for tick in 0..TICKS {
        // Copying the tick's graph over the last empties the copy's store,
        // so every block of the last replay is free to take back.
        sim.step();
        let [g, g2] = &*graphs.borrow();
        let pairs = sim.warmed_pairs();

        // What this tick alone needs: a fresh fill state on a cold clone.
        let (cold, mut fresh) = (g.clone(), HopFill::default());
        let before = counting_alloc::thread_held();
        cold.fill_hops(pairs, &mut fresh, &workers);
        let need = counting_alloc::thread_held() - before;
        drop((cold, fresh));

        let (calls, held) = (
            counting_alloc::thread_calls(),
            counting_alloc::thread_held(),
        );
        g.fill_hops(pairs, &mut fill, &workers);
        let calls = counting_alloc::thread_calls() - calls;
        kept += counting_alloc::thread_held() - held;
        assert_eq!(g.hop_roots().count(), *roots.borrow(), "tick {tick}");

        let calls2 = counting_alloc::process_calls();
        g2.fill_hops(pairs, &mut fill2, &workers2);
        let calls2 = counting_alloc::process_calls() - calls2;
        assert!(g2.hop_roots().eq(g.hop_roots()), "tick {tick}: two workers");

        let (blocks, pairs) = (g.hop_blocks(), pairs.len());
        let fit = blocks.len() <= widest.len() && blocks.iter().zip(&widest).all(|(b, w)| b <= w);
        if tick > 0 && fit && pairs <= most_pairs {
            assert_eq!(
                calls, 0,
                "tick {tick}: blocks {blocks:?} within {widest:?}, {pairs} pairs, {calls} allocator calls"
            );
            assert_eq!(
                calls2, 0,
                "tick {tick}: blocks {blocks:?} within {widest:?}, {pairs} pairs, {calls2} allocator calls at two workers"
            );
            quiet += 1;
        }
        for (rank, &bytes) in blocks.iter().enumerate() {
            match widest.get_mut(rank) {
                Some(most) => *most = bytes.max(*most),
                None => widest.push(bytes),
            }
        }
        most_pairs = most_pairs.max(pairs);
        most_need = most_need.max(need);
        if tick >= SETTLE {
            assert!(
                4 * kept <= 5 * most_need,
                "tick {tick}: {kept} bytes kept, largest need {most_need}"
            );
        }
    }
    // Most ticks need no more than some tick before them.
    assert!(quiet >= TICKS / 2, "{quiet} quiet ticks of {TICKS}");
}
