//! Composable per-tick accounting observers.
//!
//! Every measurement the engine produces — link rate f₀, address churn
//! f_k, the handoff ledger (φ_k/γ_k), level-k link churn g_k/g′_k, the
//! reorganization-event taxonomy, ALCA states, mean degree — is an
//! [`Observer`]: a value that consumes the tick's [`TickCtx`]
//! (plus a [`HopPricer`] for anything that prices packets) and updates
//! its own accumulator. The engine drives the built-in set in a fixed
//! canonical order and lets callers append extras, so a new metric is one
//! struct away and never touches the tick loop.
//!
//! The set is split along the variant seam: [`WorldObservers`] holds
//! every accumulator that is a pure function of the world's tick stream
//! (no scheme, no pricer), [`Observers`] holds one variant's own
//! accounting (handoff, query, extras). A standalone run drives one of
//! each; a multiplexed fan-out drives **one** `WorldObservers` for all of
//! its variant banks — the per-variant recomputation the shared-world
//! multiplexer exists to remove.
//!
//! Bit-reproducibility contract: each observer owns a disjoint
//! accumulator and performs the identical arithmetic, in the identical
//! per-observer order, that the pre-pipeline monolithic `step` performed —
//! the equivalence suite pins the resulting [`crate::SimReport`]s
//! bit-identical across the refactor (and across the world/variant
//! split: accumulators are disjoint and pricers are pure, so driving the
//! world set before the variant sets changes no value).
//!
//! The handoff and query slots are the location-management *scheme* and
//! *backend* seam. A bank fills them with a [`crate::scheme::HandoffBook`]
//! and a [`crate::scheme::QueryBook`], which carry and book the slices of
//! the tick's `SchemePlane` (`crate::scheme`) over the backend's
//! [`crate::transport::Transport`]; standalone,
//! [`crate::scheme::make_accounting`] and
//! [`crate::scheme::make_query_accounting`] fill a [`HandoffAccounting`] /
//! [`QueryAccounting`] with a plane of its own plus the book. So a scheme
//! or a backend swaps in without touching any other observer or the tick
//! loop.

use crate::cost::HopPricer;
use crate::report::{LevelRates, QueryStats};
use crate::stage::TickCtx;
use chlm_cluster::address::AddrChangeKind;
use chlm_cluster::events::{classify_events, EventCounts};
use chlm_cluster::{Hierarchy, StateTracker};
use chlm_graph::dynamics::{LinkDiff, LinkEventRate};
use chlm_graph::NodeIdx;
use chlm_lm::handoff::HandoffLedger;

use crate::scheme::{HandoffBook, QueryBook, SchemePlane};
use crate::transport::PacketTotals;
use chlm_proto::network::NetworkStats;

/// One per-tick measurement. Implementations accumulate across ticks and
/// are read out once at `finish`.
pub trait Observer {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer);
}

/// A standalone handoff-accounting observer: whatever fills it must
/// produce a [`HandoffLedger`]. [`crate::scheme::HandoffObserver`] fills
/// it for every scheme and backend.
pub trait HandoffAccounting: Observer {
    fn ledger(&self) -> &HandoffLedger;
    /// Take the accumulated ledger out (engine teardown).
    fn take_ledger(&mut self) -> HandoffLedger;
    /// Packet-execution totals, when this accounting ran a packet network.
    fn packet_totals(&self) -> Option<PacketTotals> {
        None
    }
}

/// A standalone query-accounting observer: whatever fills it must produce
/// a [`QueryStats`]. [`crate::scheme::QueryObserver`] fills it for every
/// scheme and backend.
pub trait QueryAccounting: Observer {
    fn stats(&self) -> &QueryStats;
    /// Take the accumulated stats out (engine teardown).
    fn take_stats(&mut self) -> QueryStats;
    /// Merged packet-network statistics, when this accounting ran one.
    fn query_net(&self) -> Option<NetworkStats> {
        None
    }
}

/// Level-0 link events per node-second (eq. 4's f₀).
#[derive(Default)]
pub struct LinkRateObserver {
    pub rate: LinkEventRate,
}

impl Observer for LinkRateObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        let events = LinkDiff::count_between(&ctx.old_hierarchy.levels[0].graph, ctx.graph);
        self.rate.record_count(events, ctx.n, ctx.dt);
    }
}

/// Per-level address-change counters: migration vs reorganization (f_k).
#[derive(Default)]
pub struct AddressChurnObserver {
    pub rates: LevelRates,
}

impl Observer for AddressChurnObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        for c in ctx.addr_changes {
            match c.kind {
                AddrChangeKind::Migration => self.rates.add_migration(c.level as usize, 1),
                AddrChangeKind::Reorganization => self.rates.add_reorg(c.level as usize, 1),
            }
        }
    }
}

/// Refill per-level sorted edge/node lists (physical endpoints) from a
/// hierarchy snapshot, reusing the outer and inner allocations.
///
/// Level 0 is left empty: the link-churn accounting runs over `k >= 1`
/// only, and the level-0 lists would be the largest by far. The lists come
/// out ascending without sorting because level node lists ascend by
/// physical id and adjacency lists are sorted.
fn fill_level_sets(
    h: &Hierarchy,
    edges: &mut Vec<Vec<(NodeIdx, NodeIdx)>>,
    nodes: &mut Vec<Vec<NodeIdx>>,
) {
    let depth = h.depth();
    edges.resize_with(depth, Vec::new);
    nodes.resize_with(depth, Vec::new);
    edges[0].clear();
    nodes[0].clear();
    for (k, level) in h.levels.iter().enumerate().skip(1) {
        let e = &mut edges[k];
        e.clear();
        e.extend(level.graph.edges().map(|(a, b)| {
            let (pa, pb) = (level.nodes[a as usize], level.nodes[b as usize]);
            (pa.min(pb), pa.max(pb))
        }));
        debug_assert!(e.windows(2).all(|w| w[0] < w[1]));
        let nv = &mut nodes[k];
        nv.clear();
        nv.extend_from_slice(&level.nodes);
        debug_assert!(nv.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Count the symmetric difference of two ascending-sorted edge lists via a
/// linear merge, splitting out the pairs whose endpoints persist at this
/// level on both sides (the `g'_k` exposure of eq. (4)). Same counts the old
/// `BTreeSet::symmetric_difference` walk produced, without building sets.
fn churn_between(
    old_e: &[(NodeIdx, NodeIdx)],
    new_e: &[(NodeIdx, NodeIdx)],
    old_n: &[NodeIdx],
    cur_n: &[NodeIdx],
) -> (u64, u64) {
    let persists = |u: NodeIdx, v: NodeIdx| {
        old_n.binary_search(&u).is_ok()
            && old_n.binary_search(&v).is_ok()
            && cur_n.binary_search(&u).is_ok()
            && cur_n.binary_search(&v).is_ok()
    };
    let (mut churn, mut persisting) = (0u64, 0u64);
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_e.len() || j < new_e.len() {
        let one_sided = match (old_e.get(i), new_e.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
                continue;
            }
            (Some(a), Some(b)) if a < b => {
                i += 1;
                *a
            }
            (Some(_), Some(b)) => {
                j += 1;
                *b
            }
            (Some(a), None) => {
                i += 1;
                *a
            }
            (None, Some(b)) => {
                j += 1;
                *b
            }
            (None, None) => unreachable!(),
        };
        churn += 1;
        if persists(one_sided.0, one_sided.1) {
            persisting += 1;
        }
    }
    (churn, persisting)
}

/// Level-k cluster-link churn and exposure (g_k, g′_k, link-seconds,
/// level-node-seconds) plus the level-0 node-seconds denominator. Keeps
/// sorted physical-endpoint edge/node lists per level, double-buffered and
/// merge-diffed in ascending order so the accounting is a pure function of
/// the contents — no per-tick set rebuilds.
pub struct LevelChurnObserver {
    pub rates: LevelRates,
    level_edges: Vec<Vec<(NodeIdx, NodeIdx)>>,
    level_nodes: Vec<Vec<NodeIdx>>,
    level_edges_next: Vec<Vec<(NodeIdx, NodeIdx)>>,
    level_nodes_next: Vec<Vec<NodeIdx>>,
}

impl LevelChurnObserver {
    /// Seed the previous-tick lists from the initial hierarchy.
    pub fn new(initial: &Hierarchy) -> Self {
        let mut level_edges = Vec::new();
        let mut level_nodes = Vec::new();
        fill_level_sets(initial, &mut level_edges, &mut level_nodes);
        LevelChurnObserver {
            rates: LevelRates::default(),
            level_edges,
            level_nodes,
            level_edges_next: Vec::new(),
            level_nodes_next: Vec::new(),
        }
    }
}

impl Observer for LevelChurnObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        fill_level_sets(
            ctx.new_hierarchy,
            &mut self.level_edges_next,
            &mut self.level_nodes_next,
        );
        let depth = ctx.new_hierarchy.depth().max(ctx.old_hierarchy.depth());
        for k in 1..depth {
            let old_e = self.level_edges.get(k).map_or(&[][..], Vec::as_slice);
            let new_e = self.level_edges_next.get(k).map_or(&[][..], Vec::as_slice);
            let old_n = self.level_nodes.get(k).map_or(&[][..], Vec::as_slice);
            let cur_n = self.level_nodes_next.get(k).map_or(&[][..], Vec::as_slice);
            let (churn, persisting) = churn_between(old_e, new_e, old_n, cur_n);
            self.rates.add_link_events(k, churn, persisting);
            let (edges, nodes) = ctx
                .new_hierarchy
                .levels
                .get(k)
                .map_or((0, 0), |l| (l.graph.edge_count(), l.len()));
            self.rates.add_exposure(k, edges, nodes, ctx.dt);
        }
        self.rates.node_seconds += ctx.n as f64 * ctx.dt;
        std::mem::swap(&mut self.level_edges, &mut self.level_edges_next);
        std::mem::swap(&mut self.level_nodes, &mut self.level_nodes_next);
    }
}

/// Reorganization-event taxonomy counts (events (i)–(vii), §5.2).
pub struct EventTaxonomyObserver {
    pub counts: EventCounts,
}

impl EventTaxonomyObserver {
    pub fn new(initial_depth: usize) -> Self {
        EventTaxonomyObserver {
            counts: EventCounts::with_levels(initial_depth),
        }
    }
}

impl Observer for EventTaxonomyObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        let (_, counts) = classify_events(ctx.old_hierarchy, ctx.new_hierarchy);
        self.counts.merge(&counts);
    }
}

/// ALCA per-level state distribution (Fig. 3, p_j, q₁).
pub struct AlcaStateObserver {
    pub tracker: StateTracker,
}

impl AlcaStateObserver {
    /// The tracker observes the initial hierarchy at construction, exactly
    /// as the run's first snapshot.
    pub fn new(initial: &Hierarchy) -> Self {
        let mut tracker = StateTracker::new();
        tracker.observe(initial);
        AlcaStateObserver { tracker }
    }
}

impl Observer for AlcaStateObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        self.tracker.observe(ctx.new_hierarchy);
    }
}

/// Mean level-0 degree (summed per tick) and maximum hierarchy depth.
pub struct DegreeObserver {
    pub degree_sum: f64,
    pub max_depth: usize,
}

impl DegreeObserver {
    pub fn new(initial_depth: usize) -> Self {
        DegreeObserver {
            degree_sum: 0.0,
            max_depth: initial_depth,
        }
    }
}

impl Observer for DegreeObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        self.degree_sum += ctx.graph.mean_degree();
        self.max_depth = self.max_depth.max(ctx.new_hierarchy.depth());
    }
}

/// Pricer handed to observers that never price packets. Every observer in
/// [`WorldObservers`] ignores its pricer argument; this stub makes that
/// contract executable (debug-asserted) instead of implicit.
struct InertPricer;

impl HopPricer for InertPricer {
    fn hops(&mut self, _a: NodeIdx, _b: NodeIdx) -> f64 {
        debug_assert!(false, "world observers never price packets");
        0.0
    }
}

/// The scheme-independent observer set: every accumulator that is a pure
/// function of the world's tick stream — link rate, address churn, level
/// churn, taxonomy, ALCA states, degree. None of these consult the LM
/// scheme, the backend, or the pricer, so a
/// [`crate::multiplex::MultiplexSim`] drives **one** instance for all of
/// its variant banks (each bank reads its report fields from the shared
/// set); a [`crate::Simulation`] is the one-bank case.
pub struct WorldObservers {
    pub link: LinkRateObserver,
    pub addr: AddressChurnObserver,
    pub churn: LevelChurnObserver,
    pub taxonomy: EventTaxonomyObserver,
    pub alca: AlcaStateObserver,
    pub degree: DegreeObserver,
}

impl WorldObservers {
    /// Seed every accumulator from the world's initial hierarchy, exactly
    /// as the run's first snapshot.
    pub fn new(initial: &Hierarchy) -> Self {
        WorldObservers {
            link: LinkRateObserver::default(),
            addr: AddressChurnObserver::default(),
            churn: LevelChurnObserver::new(initial),
            taxonomy: EventTaxonomyObserver::new(initial.depth()),
            alca: AlcaStateObserver::new(initial),
            degree: DegreeObserver::new(initial.depth()),
        }
    }

    /// Drive the set over one tick, in the canonical order (link rate,
    /// address churn, level churn, taxonomy, ALCA, degree). Accumulators
    /// are disjoint and pricer-free, so the values are identical whether
    /// this runs per variant or once for a whole multiplexed fan-out.
    pub fn on_tick(&mut self, ctx: &TickCtx<'_>) {
        let mut inert = InertPricer;
        self.link.on_tick(ctx, &mut inert);
        self.addr.on_tick(ctx, &mut inert);
        self.churn.on_tick(ctx, &mut inert);
        self.taxonomy.on_tick(ctx, &mut inert);
        self.alca.on_tick(ctx, &mut inert);
        self.degree.on_tick(ctx, &mut inert);
    }

    /// The full [`LevelRates`] view: address churn merged with link churn
    /// and exposure. Merging is exact — the two parts touch disjoint
    /// counters, and `0.0 + x == x` bitwise for the accumulated
    /// (non-negative) float fields.
    pub fn merged_rates(&self) -> LevelRates {
        let mut rates = self.addr.rates.clone();
        rates.merge(&self.churn.rates);
        rates
    }
}

/// One variant's own observer set: the handoff book (scheme × backend ×
/// pricing), the query-plane book (same scheme × backend, lookup
/// traffic), and caller-appended extras. Everything scheme-independent
/// lives in [`WorldObservers`], and the scheme's own per-tick work in the
/// `SchemePlane` the books read.
pub struct Observers {
    pub handoff: HandoffBook,
    /// Query-plane accounting; `None` when `query_rate` is zero.
    pub query: Option<QueryBook>,
    pub extra: Vec<Box<dyn Observer>>,
}

impl Observers {
    /// Drive the variant's observers over one tick, in the canonical
    /// order (handoff, query, extras): the books carry and book `plane`'s
    /// slices of this tick. All of them share one pricer.
    pub(crate) fn on_tick(
        &mut self,
        ctx: &TickCtx<'_>,
        plane: &SchemePlane,
        pricer: &mut dyn HopPricer,
    ) {
        self.handoff.book(ctx, pricer, plane.messages());
        if let Some(query) = &mut self.query {
            let (legs, outcomes) = plane.lookups();
            query.book(ctx, pricer, legs, outcomes);
        }
        for obs in &mut self.extra {
            obs.on_tick(ctx, pricer);
        }
    }
}
