//! Harness-side replica of the tick pipeline, timed from outside.
//!
//! `World::step_with` + `Simulation::step` / `MultiplexSim::step`
//! re-expressed with public calls only, each call into a layer wrapped in
//! a span. The step path itself may not read the clock (the wallclock
//! lint), so per-layer attribution has to live out here. Check (e) keeps
//! the replica honest: after every traced run its ledgers, query stats,
//! level rates and event counts must equal the untraced engine's report
//! field for field, so when the engine's pipeline changes and this file
//! does not follow, the trace fails instead of measuring something else.
//!
//! Two deliberate differences, neither of which can change a value:
//! `CostInputs::sources` is passed empty (documented there as a pure
//! scheduling hint; BFS rows the engine would prefill are computed on
//! demand, so their time shows under `hops`, not `setup`), and query
//! arrivals are replayed from a recording, because the function that
//! draws them is crate-private.

use chlm_benchmark::alloc::{self, AllocCount};
use chlm_benchmark::layers::{cost_layer, handoff_layer, query_layer, STAGE_LAYERS};
use chlm_benchmark::span::{NameId, Tracer};
use chlm_cluster::address::AddressBook;
use chlm_cluster::events::EventCounts;
use chlm_cluster::Hierarchy;
use chlm_geom::{Disk, SimRng};
use chlm_graph::NodeIdx;
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::server::LmAssignment;
use chlm_mobility::{MobilityModel, RandomWaypoint};
use chlm_proto::network::NetworkStats;
use chlm_sim::cost::{cost_model_for, CostInputs, CostModel, HopPricer};
use chlm_sim::observe::{HandoffAccounting, QueryAccounting, WorldObservers};
use chlm_sim::oracle::calibrate;
use chlm_sim::stage::{
    default_stages, AssignmentStage, HierarchyStage, MobilityStage, TickCtx, TopologyStage,
};
use chlm_sim::{
    make_accounting, make_query_accounting, HopMetric, LevelRates, QueryStats, SimConfig,
    VariantSpec,
};
use std::time::Instant;

/// Root span of a tick; its self time is `sim.engine.residual`.
pub const TICK: &str = "tick";

/// One tick's lookup arrivals, as `TickCtx::query_arrivals` carries them.
pub type Arrivals = Vec<(NodeIdx, NodeIdx)>;

/// Work counts recorded at the same boundaries as the stage spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub edge_flips: u64,
    pub depth_sum: u64,
    pub addr_changes: u64,
    pub host_changes: u64,
}

/// One `hops()` call through the trait object, and how long the clock
/// says it took.
fn timed_call(pricer: &mut dyn HopPricer, a: NodeIdx, b: NodeIdx) -> (f64, u64) {
    let start = Instant::now();
    let hops = pricer.hops(a, b);
    (hops, start.elapsed().as_nanos() as u64)
}

/// What [`timed_call`] reads around a pricer that does nothing: the floor
/// subtracted from every timed call. Euclidean pricing is a few
/// nanoseconds, less than the two clock reads that time it.
pub fn timed_call_floor_ns() -> u64 {
    struct Free;
    impl HopPricer for Free {
        fn hops(&mut self, _a: NodeIdx, _b: NodeIdx) -> f64 {
            0.0
        }
    }
    let mut free = Free;
    let pricer: &mut dyn HopPricer = std::hint::black_box(&mut free);
    let mut reads: Vec<u64> = (0..1001).map(|i| timed_call(pricer, i, i + 1).1).collect();
    reads.sort_unstable();
    reads[reads.len() / 2]
}

/// How many `hops()` calls share one timed call. Euclidean pricing is
/// cheap and uniform, and a 65k-node tick makes ~300k such calls: timing
/// each would cost more than the tick's whole observer plane. BFS and
/// table pricing are heavy-tailed (a row or memo miss beside a hit) and a
/// few thousand calls a tick, so every one is timed.
fn timing_period(metric: HopMetric) -> u64 {
    match metric {
        HopMetric::EuclideanCalibrated | HopMetric::Euclidean(_) => 16,
        HopMetric::Bfs | HopMetric::HierRouting => 1,
    }
}

/// A `HopPricer` that counts the calls passing through it and their
/// allocations exactly, and times one call in `period`.
struct Metered<'a> {
    inner: &'a mut dyn HopPricer,
    period: u64,
    floor_ns: u64,
    timed_ns: u64,
    timed_calls: u64,
    allocs: AllocCount,
    calls: u64,
}

impl HopPricer for Metered<'_> {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
        let before = alloc::snapshot();
        let hops = if self.calls.is_multiple_of(self.period) {
            let (hops, ns) = timed_call(self.inner, a, b);
            self.timed_ns += ns.saturating_sub(self.floor_ns);
            self.timed_calls += 1;
            hops
        } else {
            self.inner.hops(a, b)
        };
        self.allocs = self.allocs + (alloc::snapshot() - before);
        self.calls += 1;
        hops
    }
}

impl Metered<'_> {
    /// Book what passed through since the last call as one folded child
    /// of the open (scheme) span, which thereby excludes pricing time.
    fn fold_into(&mut self, tracer: &mut Tracer, name: NameId) {
        if self.calls > 0 {
            let estimated_ns = self.timed_ns * self.calls / self.timed_calls;
            tracer.fold(name, estimated_ns, self.allocs, self.calls);
        }
        (self.timed_ns, self.timed_calls) = (0, 0);
        (self.allocs, self.calls) = (AllocCount::default(), 0);
    }
}

struct Bank {
    label: String,
    handoff: Box<dyn HandoffAccounting>,
    query: Option<Box<dyn QueryAccounting>>,
    handoff_span: NameId,
    query_span: NameId,
}

/// The banks pricing with one hop metric, inside one `with_pricer` scope.
struct Group {
    metric: HopMetric,
    cost: Box<dyn CostModel>,
    timing_period: u64,
    scope_span: NameId,
    hops_span: NameId,
    banks: Vec<Bank>,
}

/// What one bank accumulated, for check (e) and the network counters.
pub struct BankOutcome {
    pub label: String,
    pub ledger: HandoffLedger,
    pub query: Option<QueryStats>,
    /// Handoff-plane network totals (packet banks only).
    pub handoff_net: Option<NetworkStats>,
    /// Query-plane network totals (packet banks with lookups on only).
    pub query_net: Option<NetworkStats>,
}

pub struct Outcome {
    pub banks: Vec<BankOutcome>,
    pub rates: LevelRates,
    pub events: EventCounts,
}

pub struct Replica {
    cfg: SimConfig,
    ids: Vec<u64>,
    rtx: f64,
    mobility: Box<dyn MobilityStage>,
    topology: Box<dyn TopologyStage>,
    hier_stage: Box<dyn HierarchyStage>,
    assign_stage: Box<dyn AssignmentStage>,
    hierarchy: Hierarchy,
    book: AddressBook,
    assignment: LmAssignment,
    book_next: AddressBook,
    addr_scratch: Vec<NodeIdx>,
    h_spare: Option<Hierarchy>,
    world_obs: WorldObservers,
    groups: Vec<Group>,
    arrivals: Vec<Arrivals>,
    ticks_done: usize,
    tick_span: NameId,
    timed_call_floor_ns: u64,
    /// Span names of [`STAGE_LAYERS`], in that order.
    stage_spans: [NameId; 6],
}

impl Replica {
    /// `World::new` plus one bank per variant, as `MultiplexSim::new`
    /// builds them: deploy, warm the mobility process up, build the
    /// initial hierarchy and assignment, calibrate. `arrivals[t]` is tick
    /// `t`'s lookup arrivals (empty when the query plane is off).
    pub fn new(
        cfg: &SimConfig,
        variants: &[VariantSpec],
        arrivals: Vec<Arrivals>,
        tracer: &mut Tracer,
    ) -> Self {
        let rng = SimRng::seed_from(cfg.seed);
        let region = Disk::centered(cfg.region_radius());
        let rtx = cfg.rtx();
        let ids = rng.fork(1).permutation(cfg.n);
        let mut model: Box<dyn MobilityModel> = Box::new(RandomWaypoint::deployed(
            region,
            cfg.n,
            cfg.speed,
            0.0,
            &mut rng.fork(2),
        ));
        let dt = cfg.tick();
        for _ in 0..(cfg.warmup / dt).ceil() as usize {
            model.step(dt);
        }
        let (mobility, topology, mut hier_stage, mut assign_stage) = default_stages(cfg, model);
        let hierarchy = hier_stage.init(&ids, topology.graph());
        let book = AddressBook::capture(&hierarchy);
        let assignment = assign_stage.assign(&hierarchy, &book, hier_stage.stamps());
        let calibration = calibrate(
            topology.graph(),
            mobility.positions(),
            rtx,
            12,
            &mut rng.fork(3),
        );
        let mut groups: Vec<Group> = Vec::new();
        for variant in variants {
            let vcfg = variant.apply(cfg);
            let gi = match groups.iter().position(|g| g.metric == vcfg.hop_metric) {
                Some(gi) => gi,
                None => {
                    let layer = cost_layer(vcfg.hop_metric);
                    groups.push(Group {
                        metric: vcfg.hop_metric,
                        cost: cost_model_for(vcfg.hop_metric, calibration, cfg.threads),
                        timing_period: timing_period(vcfg.hop_metric),
                        scope_span: tracer.name(layer),
                        hops_span: tracer.name(&format!("{layer}.hops")),
                        banks: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            groups[gi].banks.push(Bank {
                label: variant.label.clone(),
                handoff: make_accounting(&vcfg),
                query: make_query_accounting(&vcfg),
                handoff_span: tracer.name(&handoff_layer(&variant.label)),
                query_span: tracer.name(&query_layer(&variant.label)),
            });
        }
        Replica {
            cfg: cfg.clone(),
            ids,
            rtx,
            world_obs: WorldObservers::new(&hierarchy),
            book_next: book.clone(),
            mobility,
            topology,
            hier_stage,
            assign_stage,
            hierarchy,
            book,
            assignment,
            addr_scratch: Vec::new(),
            h_spare: None,
            groups,
            arrivals,
            ticks_done: 0,
            tick_span: tracer.name(TICK),
            timed_call_floor_ns: timed_call_floor_ns(),
            stage_spans: STAGE_LAYERS.map(|(layer, _)| tracer.name(layer)),
        }
    }

    /// One tick: the stages, the diffs, the world observers, every metric
    /// group's pricer scope around its banks, then the rotation.
    pub fn step(&mut self, tracer: &mut Tracer, counters: &mut Counters) {
        let [mobility, topology, hierarchy_span, address, assignment_span, world] =
            self.stage_spans;
        tracer.set_tick(self.ticks_done as u32);
        let root = tracer.enter(self.tick_span);
        let dt = self.cfg.tick();
        tracer.span(mobility, || self.mobility.advance(dt));
        let positions = self.mobility.positions();
        tracer.span(topology, || self.topology.update(positions));
        let graph = self.topology.graph();
        let diff = self.topology.last_diff();
        counters.edge_flips += diff.map_or(0, |d| d.len() as u64);
        let carcass = self.h_spare.take();
        let hierarchy = tracer.span(hierarchy_span, || {
            self.hier_stage.rebuild(&self.ids, graph, diff, carcass)
        });
        counters.depth_sum += hierarchy.depth() as u64;
        tracer.span(address, || {
            self.book_next
                .capture_into(&hierarchy, &mut self.addr_scratch)
        });
        let assignment = tracer.span(assignment_span, || {
            self.assign_stage
                .assign(&hierarchy, &self.book_next, self.hier_stage.stamps())
        });
        let addr_changes = tracer.span(address, || self.book.diff(&self.book_next));
        let host_changes = tracer.span(assignment_span, || self.assignment.diff(&assignment));
        counters.addr_changes += addr_changes.len() as u64;
        counters.host_changes += host_changes.len() as u64;
        let ctx = TickCtx {
            tick: self.ticks_done,
            dt,
            n: self.cfg.n,
            rtx: self.rtx,
            ids: &self.ids,
            positions,
            graph,
            old_hierarchy: &self.hierarchy,
            new_hierarchy: &hierarchy,
            old_book: &self.book,
            new_book: &self.book_next,
            old_assignment: &self.assignment,
            new_assignment: &assignment,
            host_changes: &host_changes,
            addr_changes: &addr_changes,
            query_arrivals: self
                .arrivals
                .get(self.ticks_done)
                .map_or(&[], Vec::as_slice),
        };
        tracer.span(world, || self.world_obs.on_tick(&ctx));
        for group in &mut self.groups {
            let inputs = CostInputs {
                graph,
                positions,
                hierarchy: &hierarchy,
                rtx: self.rtx,
                sources: &[],
            };
            let Group {
                cost,
                banks,
                scope_span,
                hops_span,
                timing_period,
                ..
            } = group;
            let floor_ns = self.timed_call_floor_ns;
            let scope = tracer.enter(*scope_span);
            cost.with_pricer(&inputs, &mut |pricer| {
                let mut metered = Metered {
                    inner: pricer,
                    period: *timing_period,
                    floor_ns,
                    timed_ns: 0,
                    timed_calls: 0,
                    allocs: AllocCount::default(),
                    calls: 0,
                };
                // Slot by slot, in `Observers::on_tick`'s order.
                for bank in banks.iter_mut() {
                    let span = tracer.enter(bank.handoff_span);
                    bank.handoff.on_tick(&ctx, &mut metered);
                    metered.fold_into(tracer, *hops_span);
                    tracer.exit(span);
                    if let Some(query) = &mut bank.query {
                        let span = tracer.enter(bank.query_span);
                        query.on_tick(&ctx, &mut metered);
                        metered.fold_into(tracer, *hops_span);
                        tracer.exit(span);
                    }
                }
            });
            tracer.exit(scope);
        }
        // Rotate snapshots; the retired hierarchy is the next carcass.
        self.h_spare = Some(std::mem::replace(&mut self.hierarchy, hierarchy));
        std::mem::swap(&mut self.book, &mut self.book_next);
        let retired = std::mem::replace(&mut self.assignment, assignment);
        tracer.span(assignment_span, || self.assign_stage.retire(retired));
        self.ticks_done += 1;
        tracer.exit(root);
    }

    /// Per bank (in variant order within each metric group, groups in
    /// first-appearance order): the network totals so far of its handoff
    /// plane and of its query plane.
    pub fn network_totals(&self) -> Vec<(Option<NetworkStats>, Option<NetworkStats>)> {
        self.banks()
            .map(|b| {
                (
                    b.handoff.packet_totals().map(|t| t.net),
                    b.query.as_ref().and_then(|q| q.query_net()),
                )
            })
            .collect()
    }

    /// Lookup arrivals each bank's query plane has seen so far.
    pub fn lookups(&self) -> Vec<u64> {
        self.banks()
            .map(|b| b.query.as_ref().map_or(0, |q| q.stats().arrivals))
            .collect()
    }

    /// Bank labels, in the order of the two methods above.
    pub fn labels(&self) -> Vec<String> {
        self.banks().map(|b| b.label.clone()).collect()
    }

    fn banks(&self) -> impl Iterator<Item = &Bank> {
        self.groups.iter().flat_map(|g| g.banks.iter())
    }

    pub fn finish(self) -> Outcome {
        let rates = self.world_obs.merged_rates();
        let events = self.world_obs.taxonomy.counts;
        let banks = self
            .groups
            .into_iter()
            .flat_map(|g| g.banks)
            .map(|mut b| BankOutcome {
                handoff_net: b.handoff.packet_totals().map(|t| t.net),
                query_net: b.query.as_ref().and_then(|q| q.query_net()),
                ledger: b.handoff.take_ledger(),
                query: b.query.as_mut().map(|q| q.take_stats()),
                label: b.label,
            })
            .collect();
        Outcome {
            banks,
            rates,
            events,
        }
    }
}
