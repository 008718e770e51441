//! The from-scratch reference stage set shared by `equivalence.rs` and
//! `hierarchy_equivalence.rs`: rebuild the unit-disk graph every tick,
//! build the LCA hierarchy on an empty one and the LM assignment on a
//! fresh scratch, carrying nothing — no state, no buffer — from one tick
//! to the next. Plugged into the one tick loop through
//! [`Simulation::with_stages`]; only tests can reach it.

use chlm_cluster::address::AddressBook;
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::Point;
use chlm_graph::{EdgeFlip, Graph, UnitDiskMaintainer};
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_mobility::MobilityModel;
use chlm_sim::stage::{
    AssignmentStage, HierarchyStage, ModelMobility, NoStamps, StageSet, TopologyStage,
};
use chlm_sim::{SimConfig, Simulation};

/// Reference topology stage: a from-scratch unit-disk rebuild every tick.
/// No diff is tracked — `last_diff` stays the trait's `None` default.
pub struct RebuildTopology {
    maintainer: UnitDiskMaintainer,
}

impl TopologyStage for RebuildTopology {
    fn update(&mut self, positions: &[Point]) {
        self.maintainer.rebuild(positions);
    }
    fn graph(&self) -> &Graph {
        self.maintainer.graph()
    }
}

/// Reference hierarchy stage: [`Hierarchy::build`] every tick — the same
/// construction as production run on an empty hierarchy, the donated
/// carcass dropped unread. [`chlm_sim::stage::InPlaceHierarchy`], which
/// rebuilds into the carcass, must match it byte for byte (nothing of a
/// carcass may leak); the naive contraction the construction itself is
/// checked against lives in `chlm-cluster`'s unit tests.
pub struct LcaHierarchy {
    opts: HierarchyOptions,
}

impl LcaHierarchy {
    pub fn new(opts: HierarchyOptions) -> Self {
        LcaHierarchy { opts }
    }
}

impl HierarchyStage for LcaHierarchy {
    fn init(&mut self, ids: &[u64], graph: &Graph) -> Hierarchy {
        Hierarchy::build(ids, graph, self.opts)
    }
    fn rebuild(
        &mut self,
        ids: &[u64],
        graph: &Graph,
        _diff: Option<&[EdgeFlip]>,
        _carcass: Option<Hierarchy>,
    ) -> Hierarchy {
        Hierarchy::build(ids, graph, self.opts)
    }
}

/// Reference assignment stage: §3.2 server selection by HRW hashing on a
/// fresh scratch, recycling nothing.
pub struct ComputeSelection;

impl AssignmentStage for ComputeSelection {
    fn assign(&mut self, hierarchy: &Hierarchy, _book: &AddressBook, _: NoStamps) -> LmAssignment {
        LmAssignment::compute(hierarchy, SelectionRule::Hrw)
    }
    fn retire(&mut self, _old: LmAssignment) {}
}

/// The reference stage set for `cfg`, building hierarchies with `opts`.
pub fn reference_stages_with(
    cfg: &SimConfig,
    mobility: Box<dyn MobilityModel>,
    opts: HierarchyOptions,
) -> StageSet {
    let topology = RebuildTopology {
        maintainer: UnitDiskMaintainer::new(mobility.positions(), cfg.rtx())
            .with_workers(chlm_par::WorkerPool::new(cfg.threads)),
    };
    (
        Box::new(ModelMobility::new(mobility)),
        Box::new(topology),
        Box::new(LcaHierarchy::new(opts)),
        Box::new(ComputeSelection),
    )
}

/// The reference counterpart of `chlm_sim::stage::default_stages`.
pub fn reference_stages(cfg: &SimConfig, mobility: Box<dyn MobilityModel>) -> StageSet {
    let opts = HierarchyOptions {
        max_levels: cfg.max_levels,
        min_reduction: cfg.min_reduction,
    };
    reference_stages_with(cfg, mobility, opts)
}

/// `cfg` on the production stages (`reference == false`) or on the
/// reference set.
pub fn simulation(cfg: SimConfig, reference: bool) -> Simulation {
    if reference {
        Simulation::with_stages(cfg, reference_stages)
    } else {
        Simulation::new(cfg)
    }
}
