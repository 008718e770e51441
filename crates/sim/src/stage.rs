//! Trait-based tick pipeline stages.
//!
//! One tick of the engine is four stages run in order —
//! mobility → topology → hierarchy → LM assignment — each swappable
//! behind a trait. The engine diffs the stage outputs against the
//! previous tick's snapshots and packages everything into a [`TickCtx`],
//! the read-only view every [`crate::observe::Observer`] consumes.
//!
//! The implementations here are the only stage set a [`SimConfig`] can
//! select ([`default_stages`]): Verlet-list unit-disk maintenance — the
//! one stage that carries state from tick to tick — then the LCA
//! hierarchy rebuilt in place ([`InPlaceHierarchy`] over
//! [`chlm_cluster::Hierarchy::rebuild`]) and the level-synchronous HRW
//! walk, both pure functions of their tick's input that keep buffers
//! only. Their references (per-tick topology rebuild, the hierarchy built
//! on an empty one, selection on a fresh scratch) are test fixtures in
//! `tests/common/mod.rs`, plugged in through
//! [`crate::Simulation::with_stages`] so the equivalence suites can diff
//! entire reports byte for byte.
//!
//! Stages are scheme-independent by design: the [`TickCtx`] they produce
//! is the shared *world trace* every [`crate::config::LmScheme`] accounts
//! against, which is what makes cross-scheme comparisons (E24) credible —
//! `tests/scheme_trace.rs` pins the per-tick byte-identity.

use crate::config::SimConfig;
use chlm_cluster::address::{AddrChange, AddressBook};
use chlm_cluster::{Hierarchy, HierarchyOptions, RebuildScratch};
use chlm_geom::Point;
use chlm_graph::{EdgeFlip, Graph, NodeIdx, UnitDiskMaintainer};
use chlm_lm::server::{HostChange, LmAssignment, SelectionRule, WalkScratch};
use chlm_mobility::MobilityModel;
use chlm_par::WorkerPool;

/// Read-only view of one completed tick: the previous and current
/// snapshots plus the diff streams between them. Observers price and
/// count off this; nothing here is mutable.
pub struct TickCtx<'a> {
    /// Tick index (0-based, counting measured ticks).
    pub tick: usize,
    /// Tick length in seconds.
    pub dt: f64,
    /// Node count.
    pub n: usize,
    /// Transmission radius.
    pub rtx: f64,
    /// Election identifiers, by physical node index.
    pub ids: &'a [u64],
    /// Node positions after this tick's mobility step.
    pub positions: &'a [Point],
    /// The tick's level-0 unit-disk graph.
    pub graph: &'a Graph,
    /// Last tick's hierarchy.
    pub old_hierarchy: &'a Hierarchy,
    /// This tick's hierarchy.
    pub new_hierarchy: &'a Hierarchy,
    /// Last tick's address book.
    pub old_book: &'a AddressBook,
    /// This tick's address book.
    pub new_book: &'a AddressBook,
    /// Last tick's LM server assignment.
    pub old_assignment: &'a LmAssignment,
    /// This tick's LM server assignment.
    pub new_assignment: &'a LmAssignment,
    /// Assignment diff: every LM entry that changed host this tick.
    pub host_changes: &'a [HostChange],
    /// Address diff: every (node, level) whose cluster changed this tick.
    pub addr_changes: &'a [AddrChange],
    /// This tick's location-query arrivals, as (requester, target) pairs.
    /// Drawn by the world from a per-(seed, tick) stream — part of the
    /// shared trace, so every scheme × backend bank sees the same lookups.
    /// Empty when [`SimConfig::query_rate`] is zero.
    pub query_arrivals: &'a [(NodeIdx, NodeIdx)],
}

/// Stage 1: advance the mobility process and expose node positions.
pub trait MobilityStage {
    fn advance(&mut self, dt: f64);
    fn positions(&self) -> &[Point];
}

/// Stage 2: maintain the level-0 topology for the current positions.
pub trait TopologyStage {
    fn update(&mut self, positions: &[Point]);
    fn graph(&self) -> &Graph;
    /// Edge flips applied by the last `update`, when the stage tracked
    /// them incrementally. `None` means "diff unavailable" (full rebuild
    /// or a non-tracking implementation) — consumers must read `graph`.
    fn last_diff(&self) -> Option<&[EdgeFlip]> {
        None
    }
}

/// Zero-sized stand-in for the retired hierarchy → assignment change
/// oracle. The frozen `benchmark/` replica calls
/// `assign(.., hier_stage.stamps())` without naming the type; nothing else
/// needs it (ROADMAP `[benchmark]` item drops both).
#[derive(Debug, Clone, Copy)]
pub struct NoStamps;

/// Stage 3: produce the tick's cluster hierarchy.
///
/// `init` builds the t=0 hierarchy (called once, before any tick).
/// `rebuild` runs every tick: `diff` is the topology stage's edge delta
/// since the previous tick (`None` when it was not tracked; the default
/// stage recomputes from `graph` and never reads it), and `carcass`
/// donates a retired snapshot so its buffers can be rewritten in place.
pub trait HierarchyStage {
    fn init(&mut self, ids: &[u64], graph: &Graph) -> Hierarchy;
    fn rebuild(
        &mut self,
        ids: &[u64],
        graph: &Graph,
        diff: Option<&[EdgeFlip]>,
        carcass: Option<Hierarchy>,
    ) -> Hierarchy;
    /// Kept only because `benchmark/` (frozen) calls it; see [`NoStamps`].
    fn stamps(&self) -> NoStamps {
        NoStamps
    }
}

/// Stage 4: compute the LM server assignment for the tick's hierarchy —
/// a function of `hierarchy` alone. `retire` hands back the previous
/// assignment so its buffers can be recycled.
pub trait AssignmentStage {
    /// The `book` captured from `hierarchy` and the third parameter are
    /// kept only because `benchmark/` (frozen) passes them; see
    /// [`NoStamps`].
    fn assign(&mut self, hierarchy: &Hierarchy, book: &AddressBook, _: NoStamps) -> LmAssignment;
    fn retire(&mut self, old: LmAssignment);
}

/// Default mobility stage: any [`chlm_mobility::MobilityModel`].
pub struct ModelMobility {
    model: Box<dyn MobilityModel>,
}

impl ModelMobility {
    pub fn new(model: Box<dyn MobilityModel>) -> Self {
        ModelMobility { model }
    }
}

impl MobilityStage for ModelMobility {
    fn advance(&mut self, dt: f64) {
        self.model.step(dt);
    }
    fn positions(&self) -> &[Point] {
        self.model.positions()
    }
}

/// Default topology stage: incremental Verlet-list unit-disk maintenance.
pub struct UnitDiskTopology {
    maintainer: UnitDiskMaintainer,
}

impl UnitDiskTopology {
    /// The maintainer's scans fan out over `workers`; the maintained
    /// graph is bit-identical for every pool width.
    pub fn new(positions: &[Point], rtx: f64, workers: WorkerPool) -> Self {
        UnitDiskTopology {
            maintainer: UnitDiskMaintainer::new(positions, rtx).with_workers(workers),
        }
    }
}

impl TopologyStage for UnitDiskTopology {
    fn update(&mut self, positions: &[Point]) {
        self.maintainer.advance(positions);
    }
    fn graph(&self) -> &Graph {
        self.maintainer.graph()
    }
    fn last_diff(&self) -> Option<&[EdgeFlip]> {
        self.maintainer.last_diff()
    }
}

/// Default hierarchy stage: the LCA fixpoint recomputed every tick,
/// written straight into the retired snapshot the pipeline donates
/// ([`Hierarchy::rebuild`]). The stage carries buffers only, no state.
pub struct InPlaceHierarchy {
    opts: HierarchyOptions,
    scratch: RebuildScratch,
}

impl InPlaceHierarchy {
    pub fn new(opts: HierarchyOptions) -> Self {
        InPlaceHierarchy {
            opts,
            scratch: RebuildScratch::default(),
        }
    }
}

impl HierarchyStage for InPlaceHierarchy {
    fn init(&mut self, ids: &[u64], graph: &Graph) -> Hierarchy {
        self.rebuild(ids, graph, None, None)
    }
    fn rebuild(
        &mut self,
        ids: &[u64],
        graph: &Graph,
        _diff: Option<&[EdgeFlip]>,
        carcass: Option<Hierarchy>,
    ) -> Hierarchy {
        let mut h = carcass.unwrap_or_default();
        h.rebuild(ids, graph, self.opts, &mut self.scratch);
        h
    }
}

/// Default assignment stage: §3.2 server selection by HRW hashing, every
/// entry walked every tick through one recycled [`WalkScratch`].
pub struct LmSelection {
    scratch: WalkScratch,
}

impl LmSelection {
    /// The walk fans out over `workers`; the assignment is bit-identical
    /// for every pool width.
    pub fn new(workers: WorkerPool) -> Self {
        LmSelection {
            scratch: WalkScratch::new().with_workers(workers),
        }
    }
}

impl AssignmentStage for LmSelection {
    fn assign(&mut self, hierarchy: &Hierarchy, _: &AddressBook, _: NoStamps) -> LmAssignment {
        LmAssignment::compute_with(hierarchy, SelectionRule::Hrw, &mut self.scratch)
    }
    fn retire(&mut self, old: LmAssignment) {
        self.scratch.recycle(old);
    }
}

/// The four pipeline stages, in tick order.
pub type StageSet = (
    Box<dyn MobilityStage>,
    Box<dyn TopologyStage>,
    Box<dyn HierarchyStage>,
    Box<dyn AssignmentStage>,
);

/// Build the production stage set for `cfg` over an already-warmed
/// mobility model. The topology and assignment stages share one pool of
/// `cfg.threads`, so the world keeps `cfg.threads − 1` parked workers
/// (the stages run one after the other, never at once).
pub fn default_stages(cfg: &SimConfig, mobility: Box<dyn MobilityModel>) -> StageSet {
    let workers = WorkerPool::new(cfg.threads);
    let topology = UnitDiskTopology::new(mobility.positions(), cfg.rtx(), workers.clone());
    let opts = HierarchyOptions {
        max_levels: cfg.max_levels,
        min_reduction: cfg.min_reduction,
    };
    (
        Box::new(ModelMobility::new(mobility)),
        Box::new(topology),
        Box::new(InPlaceHierarchy::new(opts)),
        Box::new(LmSelection::new(workers)),
    )
}
