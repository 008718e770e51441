//! Per-tick accounting: the world's account and each bank's books.
//!
//! Every measurement the engine produces — link rate f₀, address churn
//! f_k, the handoff ledger (φ_k/γ_k), level-k link churn g_k/g′_k, the
//! reorganization-event taxonomy, ALCA states, mean degree — is an
//! accumulator updated once a tick from the tick's [`TickCtx`]. They split
//! along the variant seam into two owners:
//!
//! * [`WorldObservers`] is the world's own account: every accumulator that
//!   is a pure function of the world's tick stream (no scheme, no pricer),
//!   as plain fields. The world owns one and drives it from its own step
//!   (`World::step_with`, `crate::engine`), so a multiplexed fan-out keeps
//!   one world account however many banks read it.
//! * [`Observers`] is one bank's books: the handoff and query books, the
//!   only code handed a [`HopPricer`], plus the [`Observer`]s a caller
//!   appends, so a new priced metric is one struct away and never touches
//!   the tick loop.
//!
//! The world account diffs the tick's two hierarchies once. Levels `k >= 1`
//! come from one [`chlm_cluster::level_diffs`] pass — a linear merge of
//! each level's old and new edge streams plus node-list walks — which
//! feeds level churn (`g_k`, `g′_k`) and the (i)–(vii) taxonomy together.
//! Level 0's link-event count (`f₀`) is the topology stage's flip count,
//! which the world hands to [`WorldObservers::on_tick_with`]; on a
//! rebuild tick, which publishes no flips, it is a merge of the two
//! level-0 graphs. A warm world tick makes no allocator call.
//! [`chlm_cluster::classify_events`], which lists every event one by one,
//! is the pass's test oracle, not part of the tick.
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
use chlm_cluster::events::{level_diffs, EventCounts};
use chlm_cluster::{Hierarchy, StateTracker};
use chlm_graph::dynamics::{LinkDiff, LinkEventRate};
use chlm_lm::handoff::HandoffLedger;

use crate::scheme::{HandoffBook, QueryBook, SchemePlane};
use crate::transport::PacketTotals;
use chlm_proto::network::NetworkStats;

/// One per-tick measurement that may price packets: the shape of the
/// observers a caller appends to a bank. Implementations accumulate
/// across ticks and are read out once at `finish`.
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

/// Reorganization-event taxonomy counts (events (i)–(vii), §5.2), filled
/// by [`WorldObservers`] from the tick's [`chlm_cluster::events::LevelDiff`]s.
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

/// The world's own account: every accumulator that is a pure function of
/// the world's tick stream — link rate, address churn, level churn,
/// taxonomy, ALCA states, degree. None of these consult the LM scheme, the
/// backend, or the pricer, so the world owns **one** instance and drives
/// it from its own step; every bank of a
/// [`crate::multiplex::MultiplexSim`] reads the same world half of its
/// report from it.
pub struct WorldObservers {
    /// Level-0 link events per node-second (eq. 4's f₀).
    pub link: LinkEventRate,
    /// Per-level address changes, migration vs reorganization (f_k).
    pub addr: LevelRates,
    /// Level-k cluster-link churn and exposure (g_k, g′_k, link-seconds,
    /// level-node-seconds) plus the level-0 node-seconds denominator.
    /// Kept apart from `addr` so that each grows only to the levels it
    /// touches; [`WorldObservers::merged_rates`] joins them.
    pub churn: LevelRates,
    pub taxonomy: EventTaxonomyObserver,
    /// ALCA per-level state distribution (Fig. 3, p_j, q₁).
    pub alca: StateTracker,
    /// Mean level-0 degree, summed per tick.
    pub degree_sum: f64,
    /// Maximum hierarchy depth seen, the initial snapshot's included.
    pub max_depth: usize,
}

impl WorldObservers {
    /// Seed every accumulator from the world's initial hierarchy, exactly
    /// as the run's first snapshot (the ALCA tracker observes it).
    pub fn new(initial: &Hierarchy) -> Self {
        let mut alca = StateTracker::new();
        alca.observe(initial);
        WorldObservers {
            link: LinkEventRate::default(),
            addr: LevelRates::default(),
            churn: LevelRates::default(),
            taxonomy: EventTaxonomyObserver::new(initial.depth()),
            alca,
            degree_sum: 0.0,
            max_depth: initial.depth(),
        }
    }

    /// Drive the set over one tick, counting its level-0 link events by
    /// merging the two level-0 graphs: [`WorldObservers::on_tick_with`]
    /// without the topology stage's flip count.
    pub fn on_tick(&mut self, ctx: &TickCtx<'_>) {
        self.on_tick_with(ctx, None);
    }

    /// Drive the set over one tick, in the canonical order (link rate,
    /// address churn, level churn with taxonomy, ALCA, degree).
    ///
    /// `link_flips` is the number of level-0 links the topology stage
    /// flipped this tick, when it tracked them (its flips are net, so this
    /// is the tick's link-event count); `None` counts them by a merge of
    /// `ctx.old_hierarchy`'s level-0 graph with `ctx.graph`. Levels `k >= 1`
    /// come from one [`level_diffs`] pass that feeds both level churn and
    /// the taxonomy. A warm tick makes no allocator call.
    pub fn on_tick_with(&mut self, ctx: &TickCtx<'_>, link_flips: Option<usize>) {
        let merged = || LinkDiff::count_between(&ctx.old_hierarchy.levels[0].graph, ctx.graph);
        let link_events = match link_flips {
            Some(flips) => {
                debug_assert_eq!(flips, merged(), "level-0 flips must be net link events");
                flips
            }
            None => merged(),
        };
        self.link.record_count(link_events, ctx.n, ctx.dt);
        for c in ctx.addr_changes {
            match c.kind {
                AddrChangeKind::Migration => self.addr.add_migration(c.level as usize, 1),
                AddrChangeKind::Reorganization => self.addr.add_reorg(c.level as usize, 1),
            }
        }
        let (old, new) = (ctx.old_hierarchy, ctx.new_hierarchy);
        self.taxonomy.counts.cover(old.depth().max(new.depth()));
        for diff in level_diffs(old, new) {
            let k = diff.level;
            self.churn.add_link_events(k, diff.churn, diff.persisting);
            let (edges, nodes) = new
                .levels
                .get(k)
                .map_or((0, 0), |l| (l.graph.edge_count(), l.len()));
            self.churn.add_exposure(k, edges, nodes, ctx.dt);
            self.taxonomy.counts.add(&diff);
        }
        self.churn.node_seconds += ctx.n as f64 * ctx.dt;
        self.alca.observe(new);
        self.degree_sum += ctx.graph.mean_degree();
        self.max_depth = self.max_depth.max(new.depth());
    }

    /// The full [`LevelRates`] view: address churn merged with link churn
    /// and exposure. Merging is exact — the two parts touch disjoint
    /// counters, and `0.0 + x == x` bitwise for the accumulated
    /// (non-negative) float fields.
    pub fn merged_rates(&self) -> LevelRates {
        let mut rates = self.addr.clone();
        rates.merge(&self.churn);
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
