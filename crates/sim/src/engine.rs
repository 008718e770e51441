//! The tick loop's parts.
//!
//! One tick is an explicit pipeline: the four [`crate::stage`] stages
//! (mobility → topology → hierarchy → LM assignment) produce the tick's
//! snapshots, the `World` diffs them against the previous tick into a
//! `TickCtx`, and the accumulators of [`crate::observe`] consume that
//! context.
//!
//! The engine is split along the scheme seam that `tests/scheme_trace.rs`
//! pins. A `World` is a pure function of `(world config, seed)` and
//! accounts for itself: it owns the stages, snapshots, diff streams and
//! their rotation, its own account ([`WorldObservers`], which it books
//! every tick), the world half of the audit, and the run stream it draws
//! the world half of every report from. A `SchemePlane` (`crate::scheme`)
//! owns the per-tick work of one scheme, and an `ObserverBank` keeps only
//! one variant's books: the handoff and query books that carry and book
//! its plane's slices through the lent [`crate::cost::Pricer`], extra
//! observers, and the audit of its own ledger. The one loop that drives
//! planes and banks over a world is
//! [`crate::multiplex::MultiplexSim::step`]; [`Simulation`] is its
//! one-bank case, delegating every method to bank 0.
//!
//! The hot path is allocation-frugal by design: per-tick state (topology,
//! every hierarchy level, address books, LM assignment, the address and
//! host diff streams) lives in persistent buffers that are rewritten in
//! place or double-buffered across ticks rather than reallocated. Every graph
//! among them keeps its neighbor lists in one arena
//! ([`chlm_graph::Graph`]), so the topology's edge flips and the
//! hierarchy's level graphs are written without an allocator call. BFS
//! distances are the exception — one block per batch of up to 64 roots,
//! they belong to the topology snapshot ([`chlm_graph::Graph::hops`]) and
//! are freed by its next edge flip. The
//! fast paths — incremental topology ([`chlm_graph::UnitDiskMaintainer`]),
//! the hierarchy rebuilt into a retired snapshot
//! ([`chlm_cluster::Hierarchy::rebuild`]), the recycled walk scratch — are
//! proven byte-equivalent to their from-scratch counterparts by
//! `tests/equivalence.rs`, which plugs a reference stage set in through
//! [`Simulation::with_stages`].
//!
//! The backend ([`crate::config::Backend`]) is not an engine: it only
//! decides which [`crate::transport::Transport`] a bank's books carry
//! their plane's messages and legs over.

use crate::audit::{AuditViolation, Auditor, WorldAuditor};
use crate::config::{LmScheme, MobilityKind, SimConfig};
use crate::multiplex::{MultiplexSim, VariantSpec};
use crate::observe::{Observer, Observers, WorldObservers};
use crate::oracle::calibrate;
use crate::report::{SimReport, StateSummary};
use crate::scheme::{HandoffBook, QueryBook};
use crate::stage::{
    default_stages, AssignmentStage, HierarchyStage, MobilityStage, NoStamps, StageSet, TickCtx,
    TopologyStage,
};
use crate::transport::shard_loss_seed;
use chlm_cluster::address::{AddrChange, AddressBook};
use chlm_cluster::metrics::level_stats;
use chlm_cluster::Hierarchy;
use chlm_geom::{Disk, Point, SimRng};
use chlm_graph::NodeIdx;
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::server::{HostChange, LmAssignment};
use chlm_mobility::{MobilityModel, RandomDirection, RandomWaypoint, Rpgm, StaticModel};
use chlm_par::WorkerPool;

/// The boxed-engine facade the `benchmark/` harness names: steps ticks,
/// finishes into a [`SimReport`]. [`Simulation`] is the only implementor.
pub trait Engine {
    /// The configuration this engine runs under.
    fn config(&self) -> &SimConfig;
    /// Advance one tick, recording every counter.
    fn step(&mut self);
    /// Invariant violations found so far (empty unless auditing).
    fn audit_violations(&self) -> &[AuditViolation];
    /// Produce the report from whatever has been simulated so far.
    fn finish_boxed(self: Box<Self>) -> SimReport;
}

/// A boxed [`Simulation`] for `cfg` (part of the harness facade, see
/// [`Engine`]).
pub fn build_engine(cfg: &SimConfig) -> Box<dyn Engine> {
    Box::new(Simulation::new(cfg.clone()))
}

/// The scheme-independent half of the engine: stages, snapshots, diff
/// streams and their rotation, and the world's own account and audit. A
/// `World` is a pure function of the world-defining config fields plus the
/// seed — it never consults `lm_scheme`, `hop_metric` or `backend`, which
/// is what lets [`crate::multiplex::MultiplexSim`] price many variants
/// against one world run (`tests/scheme_trace.rs` pins the independence).
pub(crate) struct World {
    cfg: SimConfig,
    ids: Vec<u64>,
    rtx: f64,
    /// Startup-measured BFS detour ratio (the fork(3) stream), the
    /// calibration of every variant's `Pricing` over this world.
    calibration: f64,
    /// The run stream (fork 4). Never drawn while stepping; drawn once, by
    /// [`World::into_report`], for the final level statistics every bank's
    /// report carries.
    run_rng: SimRng,
    /// The world's own account, booked once a tick by `step_with`.
    obs: WorldObservers,
    /// The world half of the invariant audit, run once a tick after the
    /// account is booked; `None` unless auditing.
    auditor: Option<WorldAuditor>,
    // Pipeline stages.
    mobility: Box<dyn MobilityStage>,
    topology: Box<dyn TopologyStage>,
    hier_stage: Box<dyn HierarchyStage>,
    assign_stage: Box<dyn AssignmentStage>,
    // Previous-tick snapshots (rotation stays with the world).
    hierarchy: Hierarchy,
    book: AddressBook,
    assignment: LmAssignment,
    // Persistent tick workspaces.
    book_next: AddressBook,
    addr_scratch: Vec<NodeIdx>,
    h_spare: Option<Hierarchy>,
    /// This tick's diff streams (reused buffers).
    addr_changes: Vec<AddrChange>,
    host_changes: Vec<HostChange>,
    /// This tick's location-query arrivals (reused buffer); part of the
    /// world trace — see [`fill_query_arrivals`].
    query_arrivals: Vec<(NodeIdx, NodeIdx)>,
    ticks_done: usize,
}

/// Stream salt for the query-arrival draws, separating them from every
/// loss stream derived from the same blessed seed function.
const QUERY_ARRIVAL_STREAM: u64 = 0x5155_4552_5941_5252; // "QUERYARR"

/// Fill `out` with tick `tick`'s query arrivals: `⌊(t+1)·e⌋ − ⌊t·e⌋`
/// (requester, target) pairs with `e = query_rate · n · dt`, drawn from a
/// dedicated per-(seed, tick) stream. Arrivals are a pure function of
/// `(world config, seed, tick)` — independent of scheme, backend, thread
/// count and every other RNG stream — so one world's arrivals fan out
/// identically to every variant bank, and `query_rate = 0` draws nothing.
fn fill_query_arrivals(cfg: &SimConfig, tick: usize, out: &mut Vec<(NodeIdx, NodeIdx)>) {
    out.clear();
    if cfg.query_rate <= 0.0 {
        return;
    }
    let e = cfg.query_rate * cfg.n as f64 * cfg.tick();
    let t = tick as f64;
    let count = (((t + 1.0) * e).floor() - (t * e).floor()) as usize;
    if count == 0 {
        return;
    }
    let mut rng = SimRng::seed_from(shard_loss_seed(cfg.seed, tick as u64, QUERY_ARRIVAL_STREAM));
    for _ in 0..count {
        out.push((rng.index(cfg.n) as NodeIdx, rng.index(cfg.n) as NodeIdx));
    }
}

fn build_mobility(cfg: &SimConfig, region: Disk, rng: &mut SimRng) -> Box<dyn MobilityModel> {
    match cfg.mobility {
        MobilityKind::Waypoint => {
            Box::new(RandomWaypoint::deployed(region, cfg.n, cfg.speed, 0.0, rng))
        }
        MobilityKind::Direction { mean_epoch } => Box::new(RandomDirection::deployed(
            region, cfg.n, cfg.speed, mean_epoch, rng,
        )),
        MobilityKind::Rpgm {
            groups,
            group_radius,
            jitter_radius,
            jitter_speed,
        } => Box::new(Rpgm::deployed(
            region,
            cfg.n,
            groups,
            cfg.speed,
            group_radius,
            jitter_radius,
            jitter_speed,
            rng,
        )),
        MobilityKind::Static => Box::new(StaticModel::new(chlm_geom::region::deploy_uniform(
            &region, cfg.n, rng,
        ))),
    }
}

impl World {
    /// Deploy, warm the mobility process up, build the initial hierarchy
    /// and LM assignment over the stages `make_stages` returns, and
    /// measure the hop calibration.
    pub(crate) fn new(
        cfg: SimConfig,
        make_stages: impl FnOnce(&SimConfig, Box<dyn MobilityModel>) -> StageSet,
    ) -> Self {
        let rng = SimRng::seed_from(cfg.seed);
        let region = Disk::centered(cfg.region_radius());
        let rtx = cfg.rtx();
        let ids = rng.fork(1).permutation(cfg.n);
        let mut mobility = build_mobility(&cfg, region, &mut rng.fork(2).clone());

        // Warmup: advance mobility before measurement starts, in tick-sized
        // steps. No model's law depends on the step, but the order in which
        // nodes draw from a model's RNG does, and the digests pin it.
        let dt = cfg.tick();
        if cfg.warmup > 0.0 && cfg.speed > 0.0 {
            let steps = (cfg.warmup / dt).ceil() as usize;
            for _ in 0..steps {
                mobility.step(dt);
            }
        }

        let (mobility, topology, mut hier_stage, mut assign_stage) = make_stages(&cfg, mobility);
        let hierarchy = hier_stage.init(&ids, topology.graph());
        let book = AddressBook::capture(&hierarchy);
        let assignment = assign_stage.assign(&hierarchy, &book, NoStamps);
        // Every metric that can hit an estimate path (Euclidean pricing,
        // BFS disconnected-pair fallback, unroutable hierarchical pairs)
        // gets the startup-measured detour ratio; a fixed `Euclidean(c)`
        // ignores it. fork(3) is pure and independent of the run stream
        // fork(4), so measuring it unconditionally perturbs nothing and
        // every variant of a multiplexed run shares one measurement.
        let calibration = calibrate(
            topology.graph(),
            mobility.positions(),
            rtx,
            12,
            &mut rng.fork(3),
        );
        let book_next = book.clone();
        let obs = WorldObservers::new(&hierarchy);
        let mut world = World {
            cfg,
            ids,
            rtx,
            calibration,
            run_rng: rng.fork(4),
            obs,
            auditor: None,
            mobility,
            topology,
            hier_stage,
            assign_stage,
            hierarchy,
            book,
            assignment,
            book_next,
            addr_scratch: Vec::new(),
            h_spare: None,
            addr_changes: Vec::new(),
            host_changes: Vec::new(),
            query_arrivals: Vec::new(),
            ticks_done: 0,
        };
        if world.cfg.audit {
            world.ensure_auditor();
        }
        world
    }

    pub(crate) fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    pub(crate) fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    pub(crate) fn assignment(&self) -> &LmAssignment {
        &self.assignment
    }

    pub(crate) fn calibration(&self) -> f64 {
        self.calibration
    }

    /// Start auditing the world from its current accumulators.
    pub(crate) fn ensure_auditor(&mut self) {
        let obs = &self.obs;
        self.auditor.get_or_insert_with(|| WorldAuditor::new(obs));
    }

    pub(crate) fn auditor(&self) -> Option<&WorldAuditor> {
        self.auditor.as_ref()
    }

    /// Advance one tick: run the stages, diff against the previous
    /// snapshots, book the completed `TickCtx` into the world's own
    /// account (handing it the topology stage's flip count, `None` on a
    /// rebuild tick) and audit it when auditing, hand the context to
    /// `observe`, then rotate.
    ///
    /// Allocation discipline: mobility positions are *borrowed* (never
    /// copied), topology is patched in place by the maintainer (flips
    /// shift inside the graph's arena), the hierarchy stage rewrites the
    /// retired snapshot's buffers and level-graph arenas in place,
    /// address books double-buffer, the assignment stage rewrites its
    /// walk scratch and the retired `hosts` buffer, and the diff streams
    /// are rewritten into buffers kept across ticks.
    pub(crate) fn step_with(&mut self, observe: &mut dyn FnMut(&TickCtx<'_>)) {
        let dt = self.cfg.tick();
        let n = self.cfg.n;
        self.mobility.advance(dt);
        fill_query_arrivals(&self.cfg, self.ticks_done, &mut self.query_arrivals);
        let positions = self.mobility.positions();
        self.topology.update(positions);
        let graph = self.topology.graph();
        let link_flips = self.topology.last_diff().map(<[_]>::len);
        let carcass = self.h_spare.take();
        let hierarchy =
            self.hier_stage
                .rebuild(&self.ids, graph, self.topology.last_diff(), carcass);
        self.book_next
            .capture_into(&hierarchy, &mut self.addr_scratch);
        let assignment = self
            .assign_stage
            .assign(&hierarchy, &self.book_next, NoStamps);

        // Diff streams against the previous tick.
        self.book.diff_into(&self.book_next, &mut self.addr_changes);
        self.assignment
            .diff_into(&assignment, &mut self.host_changes);

        let ctx = TickCtx {
            tick: self.ticks_done,
            dt,
            n,
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
            host_changes: &self.host_changes,
            addr_changes: &self.addr_changes,
            query_arrivals: &self.query_arrivals,
        };
        self.obs.on_tick_with(&ctx, link_flips);
        if let Some(auditor) = &mut self.auditor {
            auditor.check_tick(&ctx, &self.obs);
        }
        observe(&ctx);

        // Rotate snapshots; the retired hierarchy feeds the next tick's
        // rebuild as a buffer carcass.
        let old_h = std::mem::replace(&mut self.hierarchy, hierarchy);
        self.h_spare = Some(old_h);
        std::mem::swap(&mut self.book, &mut self.book_next);
        let old_assignment = std::mem::replace(&mut self.assignment, assignment);
        self.assign_stage.retire(old_assignment);
        self.ticks_done += 1;
    }

    /// The world half of every bank's report — everything but `ledger`
    /// (left empty) and `query` — from the final snapshots and the world
    /// account. The final level statistics are the one draw ever made from
    /// the run stream.
    pub(crate) fn into_report(mut self) -> SimReport {
        let obs = self.obs;
        let counts = self.assignment.entries_hosted();
        let mean_entries_hosted = if counts.is_empty() {
            0.0
        } else {
            counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len() as f64
        };
        let ticks = self.ticks_done.max(1) as f64;
        SimReport {
            n: self.cfg.n,
            seed: self.cfg.seed,
            dt: self.cfg.tick(),
            rtx: self.rtx,
            speed: self.cfg.speed,
            mean_degree: obs.degree_sum / ticks,
            depth: obs.max_depth.max(self.hierarchy.depth()),
            final_levels: level_stats(&self.hierarchy, 4, &mut self.run_rng),
            ledger: HandoffLedger::new(),
            f0: obs.link.per_node_per_second(),
            rates: obs.merged_rates(),
            state: StateSummary::of(&obs.alca),
            events: obs.taxonomy.counts,
            query: None,
            mean_entries_hosted,
        }
    }
}

/// One variant's books over a shared `World`: the variant's own observer
/// set (handoff and query books, extras) and, when auditing, the auditor
/// of the checks that read its ledger. The scheme's per-tick messages and
/// lookup legs come from a [`crate::scheme::SchemePlane`] the caller owns
/// — one per standalone run, one per scheme of a multiplexed run — whose
/// slices the books carry and book each tick. Everything
/// scheme-independent is the world's own account, so a bank holds no
/// world accumulator and no RNG: any number of banks can consume the same
/// `TickCtx` stream, and each adds its `ledger` and `query` to the world
/// half of the [`SimReport`] to make the report a standalone run of its
/// config would.
pub(crate) struct ObserverBank {
    scheme: LmScheme,
    /// Index of the plane running this variant's scheme, in the
    /// multiplexer's plane list.
    pub(crate) plane: usize,
    pub(crate) observers: Observers,
    auditor: Option<Auditor>,
}

impl ObserverBank {
    /// Build the bank for `cfg`, booking the plane at index `plane`. `cfg`
    /// must describe the same world as the one the bank is driven over —
    /// only the variant axes (`lm_scheme`, `hop_metric`, `backend`) may
    /// differ. A packet transport runs its shards on `workers`.
    pub(crate) fn new(cfg: &SimConfig, plane: usize, workers: &WorkerPool) -> Self {
        let handoff = HandoffBook::new(cfg, workers);
        let auditor = cfg.audit.then(|| Auditor::new(handoff.ledger()));
        ObserverBank {
            scheme: cfg.lm_scheme,
            plane,
            observers: Observers {
                handoff,
                query: (cfg.query_rate > 0.0).then(|| QueryBook::new(cfg, workers)),
                extra: Vec::new(),
            },
            auditor,
        }
    }

    pub(crate) fn violations(&self) -> &[AuditViolation] {
        self.auditor.as_ref().map_or(&[], |a| a.violations())
    }

    pub(crate) fn ensure_auditor(&mut self) {
        let ledger = self.observers.handoff.ledger();
        self.auditor.get_or_insert_with(|| Auditor::new(ledger));
    }

    pub(crate) fn take_violations(&mut self) -> Vec<AuditViolation> {
        self.auditor
            .take()
            .map(Auditor::into_violations)
            .unwrap_or_default()
    }

    /// Record the world audit of the tick `world` just stepped, then run
    /// the checks that read this bank's ledger (when auditing).
    pub(crate) fn audit(&mut self, world: &World) {
        let (Some(auditor), Some(world_audit)) = (&mut self.auditor, &world.auditor) else {
            return;
        };
        let host_stream = (self.scheme == LmScheme::Chlm)
            .then_some((&world.host_changes[..], &world.addr_changes[..]));
        auditor.check_tick(
            world_audit.last_tick(),
            self.observers.handoff.ledger(),
            world.obs.churn.node_seconds,
            host_stream,
        );
    }

    /// This variant's report: the world half `world` plus its own ledger
    /// and query stats.
    pub(crate) fn finish(mut self, world: &SimReport) -> SimReport {
        SimReport {
            ledger: self.observers.handoff.take_ledger(),
            query: self.observers.query.as_mut().map(|q| q.take_stats()),
            ..world.clone()
        }
    }
}

/// The single-variant simulation: a [`MultiplexSim`] with exactly one
/// bank, accounted under `cfg`'s own scheme, hop metric and backend.
/// Construct with [`Simulation::new`], run with [`Simulation::run`] (or
/// drive tick-by-tick with [`Simulation::step`]).
pub struct Simulation {
    mx: MultiplexSim,
}

impl Simulation {
    /// Set up a simulation: deploy, warm the mobility process up, build the
    /// initial hierarchy and LM assignment, and measure the hop calibration.
    /// The config's [`LmScheme`] picks the scheme plane and its backend
    /// the books' transport, so any scheme runs over the same pipeline.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation::with_stages(cfg, default_stages)
    }

    /// Like [`Simulation::new`], but over the stage set `make_stages`
    /// builds from the config and the warmed-up mobility model instead of
    /// [`default_stages`] — the seam the equivalence suites use to run
    /// their from-scratch reference stages through the same tick loop.
    pub fn with_stages(
        cfg: SimConfig,
        make_stages: impl FnOnce(&SimConfig, Box<dyn MobilityModel>) -> StageSet,
    ) -> Self {
        let variant = VariantSpec::from_config("", &cfg);
        Simulation {
            mx: MultiplexSim::with_stages(&cfg, &[variant], make_stages),
        }
    }

    /// The configuration this simulation runs under.
    pub fn config(&self) -> &SimConfig {
        self.mx.config()
    }

    /// Current hierarchy snapshot.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.mx.world.hierarchy()
    }

    /// Current node positions.
    pub fn positions(&self) -> &[Point] {
        self.mx.world.mobility.positions()
    }

    /// Current LM server assignment snapshot.
    pub fn assignment(&self) -> &LmAssignment {
        self.mx.world.assignment()
    }

    /// The variant's own observer set (handoff slot, query slot, extras —
    /// accumulators read back by experiments and tests).
    pub fn observers(&self) -> &Observers {
        self.mx.observers(0)
    }

    /// The world's own account: the scheme-independent accumulators.
    pub fn world_observers(&self) -> &WorldObservers {
        &self.mx.world.obs
    }

    /// Append a custom observer; it runs after the built-in set each tick.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.mx.add_observer(0, observer);
    }

    /// Invariant violations found so far (empty unless `SimConfig::audit`
    /// is set — and, for a correct engine, empty even then).
    pub fn audit_violations(&self) -> &[AuditViolation] {
        self.mx.audit_violations(0)
    }

    /// Advance one tick, recording every counter.
    pub fn step(&mut self) {
        self.mx.step();
    }

    /// Run the configured number of ticks and produce the report.
    pub fn run(mut self) -> SimReport {
        let ticks = self.config().tick_count();
        for _ in 0..ticks {
            self.step();
        }
        self.finish()
    }

    /// Run to completion under the invariant auditor (forced on) and
    /// return both the report and every violation found.
    pub fn run_audited(mut self) -> (SimReport, Vec<AuditViolation>) {
        self.mx.world.ensure_auditor();
        self.mx.banks[0].ensure_auditor();
        let ticks = self.config().tick_count();
        for _ in 0..ticks {
            self.step();
        }
        let violations = self.mx.banks[0].take_violations();
        (self.finish(), violations)
    }

    /// Produce the report from whatever has been simulated so far.
    pub fn finish(self) -> SimReport {
        self.mx.finish().swap_remove(0)
    }
}

impl Engine for Simulation {
    fn config(&self) -> &SimConfig {
        Simulation::config(self)
    }
    fn step(&mut self) {
        Simulation::step(self);
    }
    fn audit_violations(&self) -> &[AuditViolation] {
        Simulation::audit_violations(self)
    }
    fn finish_boxed(self: Box<Self>) -> SimReport {
        (*self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HopMetric;

    fn quick_cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::builder(n)
            .duration(2.0)
            .warmup(0.5)
            .seed(seed)
            .query_rate(1.0)
            .build()
    }

    #[test]
    fn small_run_produces_sane_report() {
        let report = Simulation::new(quick_cfg(120, 1)).run();
        assert_eq!(report.n, 120);
        assert!(report.mean_degree > 3.0 && report.mean_degree < 20.0);
        assert!(report.depth >= 2);
        assert!(report.f0 > 0.0, "mobile nodes must flip links");
        assert!(report.total_overhead() >= 0.0);
        assert!(report.rates.node_seconds > 0.0);
        assert_eq!(report.final_levels[0].nodes, 120);
        assert!(report.query.is_some());
        // Entries hosted mean = depth - 2 per node at the final tick.
        assert!(report.mean_entries_hosted >= 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulation::new(quick_cfg(80, 7)).run();
        let b = Simulation::new(quick_cfg(80, 7)).run();
        assert_eq!(a.f0, b.f0);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.events, b.events);
        assert_eq!(a.rates, b.rates);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(quick_cfg(80, 1)).run();
        let b = Simulation::new(quick_cfg(80, 2)).run();
        assert_ne!(a.f0, b.f0);
    }

    #[test]
    fn static_network_has_zero_overhead() {
        let cfg = SimConfig::builder(100)
            .mobility(MobilityKind::Static)
            .duration(5.0)
            .warmup(0.0)
            .seed(3)
            .build();
        let report = Simulation::new(cfg).run();
        assert_eq!(report.f0, 0.0);
        assert_eq!(report.total_overhead(), 0.0);
        assert_eq!(report.events.grand_total(), 0);
    }

    #[test]
    fn single_node_run_does_not_panic() {
        let cfg = SimConfig::builder(1)
            .duration(1.0)
            .warmup(0.0)
            .seed(5)
            .build();
        let report = Simulation::new(cfg).run();
        assert_eq!(report.depth, 1);
        assert_eq!(report.total_overhead(), 0.0);
    }

    #[test]
    fn bfs_and_euclidean_metrics_same_event_counts() {
        // The hop metric prices packets but must not change which events
        // occur.
        let base = quick_cfg(90, 6);
        let mut cfg_bfs = base.clone();
        cfg_bfs.hop_metric = HopMetric::Bfs;
        let a = Simulation::new(base).run();
        let b = Simulation::new(cfg_bfs).run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.rates, b.rates);
        assert_eq!(a.f0, b.f0);
    }

    #[test]
    fn hier_routing_metric_same_event_counts_higher_cost() {
        // Hierarchical-table pricing changes packet prices (stretch ≥ 1),
        // never which events occur.
        let base = quick_cfg(90, 8);
        let mut cfg_bfs = base.clone();
        cfg_bfs.hop_metric = HopMetric::Bfs;
        let mut cfg_hier = base;
        cfg_hier.hop_metric = HopMetric::HierRouting;
        let a = Simulation::new(cfg_bfs).run();
        let b = Simulation::new(cfg_hier).run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.rates, b.rates);
        for (ac, bc) in a.ledger.per_level.iter().zip(&b.ledger.per_level) {
            assert_eq!(ac.migration_events, bc.migration_events);
            assert_eq!(ac.reorg_events, bc.reorg_events);
        }
    }

    #[test]
    fn custom_observer_sees_every_tick() {
        struct TickCounter(std::rc::Rc<std::cell::Cell<usize>>);
        impl Observer for TickCounter {
            fn on_tick(&mut self, _ctx: &TickCtx<'_>, _pricer: &mut dyn crate::cost::HopPricer) {
                self.0.set(self.0.get() + 1);
            }
        }
        let cfg = quick_cfg(40, 9);
        let ticks = cfg.tick_count();
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sim = Simulation::new(cfg);
        sim.add_observer(Box::new(TickCounter(count.clone())));
        let _ = sim.run();
        assert_eq!(count.get(), ticks);
    }

    #[test]
    fn engine_trait_matches_direct_run() {
        let cfg = quick_cfg(70, 11);
        let direct = Simulation::new(cfg.clone()).run();
        let mut engine = build_engine(&cfg);
        for _ in 0..engine.config().tick_count() {
            engine.step();
        }
        assert!(engine.audit_violations().is_empty());
        assert_eq!(direct, engine.finish_boxed());
    }

    #[test]
    fn fixed_euclidean_calibration_ignores_measurement() {
        // `Euclidean(c)` must price with exactly `c`, not the startup
        // measurement the world now always performs.
        let mut a = quick_cfg(90, 12);
        a.hop_metric = HopMetric::EuclideanCalibrated;
        let mut b = quick_cfg(90, 12);
        b.hop_metric = HopMetric::Euclidean(50.0);
        let ra = Simulation::new(a).run();
        let rb = Simulation::new(b).run();
        assert_eq!(ra.events, rb.events);
        // A measured detour ratio is near 1; a fixed 50x factor must
        // dominate it by an order of magnitude if it is actually used.
        let total =
            |r: &SimReport| -> f64 { r.ledger.per_level.iter().map(|l| l.total_packets()).sum() };
        let (ta, tb) = (total(&ra), total(&rb));
        assert!(ta > 0.0);
        assert!(tb > 10.0 * ta, "ta {ta} tb {tb}");
    }
}
