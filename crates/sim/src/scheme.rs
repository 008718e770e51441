//! Pluggable location-management schemes.
//!
//! The engine's handoff slot ([`crate::observe::HandoffAccounting`]) is
//! where a location-management scheme lives: everything upstream of it —
//! mobility, topology, hierarchy, the LM assignment diff — is part of the
//! *world*, shared by every scheme, while the slot decides which location
//! servers exist and what their upkeep costs. This module turns that seam
//! into a plug-in point:
//!
//! * a [`SchemeWorkload`] maps one tick's [`TickCtx`] to the list of LM
//!   maintenance messages the scheme would send ([`SchemeMsg`]), in a
//!   canonical order;
//! * [`AnalyticSchemeObserver`] prices those messages with the active
//!   [`crate::cost::CostModel`] (any [`crate::config::HopMetric`],
//!   hierarchical routing included) and books them into a
//!   [`HandoffLedger`];
//! * [`PacketSchemeObserver`] *executes* them through
//!   [`chlm_proto::network::PacketNetwork`] — per-hop delay, loss and ARQ
//!   included — and books the transmissions each message actually used,
//!   sharded exactly like the CHLM packet backend so reports stay
//!   bit-identical across thread counts.
//!
//! Two workloads ship here: [`GlsSchemeWorkload`] (per-band grid servers,
//! HRW-selected; Li et al., MobiCom 2000) and [`HomeAgentWorkload`] (one
//! static rendezvous node per mobile — the flat baseline the paper argues
//! CHLM beats). CHLM itself keeps its dedicated observers
//! ([`crate::observe::LedgerHandoffObserver`],
//! [`crate::packet::PacketHandoffObserver`]); [`make_accounting`] picks
//! the right observer for a `(scheme, backend)` pair.
//!
//! The *query plane* mirrors the update plane through the same seam:
//!
//! * a [`SchemeLookup`] maps one lookup arrival (requester, target) to the
//!   route the scheme's resolution protocol takes — CHLM lowest-common-
//!   cluster descent ([`chlm_lm::query::resolve_route`]), GLS band walk to
//!   the order-k grid server ([`chlm_lm::gls::gls_resolve_route`]), or the
//!   home-agent detour requester → home → target — as a list of
//!   [`LookupLeg`]s plus the resolution level;
//! * [`AnalyticQueryObserver`] prices those legs with the active cost
//!   model; [`PacketQueryObserver`] executes them as real request/reply
//!   packets (loss + ARQ inflate lookups just like updates), sharded like
//!   the update plane; both book into a [`QueryStats`];
//! * [`make_query_accounting`] picks the observer for a
//!   `(scheme, backend)` pair, or `None` when `query_rate` is zero.
//!
//! Determinism: workloads are pure functions of the trace (no RNG, no
//! wall clock), message order is canonical (subjects ascending, bands
//! ascending within a subject), and packet execution uses the fixed-shard
//! design of `crate::packet`, so every scheme inherits the engine's
//! bit-for-bit reproducibility and thread-invariance contracts. Lookup
//! routes are pure functions of (world, requester, target), and the query
//! packet shards draw from their own per-(seed, tick, shard) loss streams.

use crate::config::{Backend, LmScheme, LossSpec, SimConfig};
use crate::cost::HopPricer;
use crate::observe::{HandoffAccounting, LedgerHandoffObserver, Observer, QueryAccounting};
use crate::packet::{shard_loss_seed, PacketHandoffObserver, PacketTotals, PACKET_SHARDS};
use crate::report::QueryStats;
use crate::stage::TickCtx;
use chlm_cluster::address::AddrChangeKind;
use chlm_cluster::Hierarchy;
use chlm_geom::{Disk, Point, Rect};
use chlm_graph::NodeIdx;
use chlm_lm::gls::{gls_resolve_route, GlsIncremental, GlsSelect, GridHierarchy, NO_SERVER};
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::hash::hrw_select;
use chlm_lm::query::resolve_route;
use chlm_lm::server::LmAssignment;
use chlm_par::{split_ranges, WorkerPool};
use chlm_proto::message::{LmMessage, Packet};
use chlm_proto::network::{NetworkStats, PacketNetwork};

/// Salt for the home-agent rendezvous selection, fixed so every node can
/// recompute every home locally.
const HOME_AGENT_SALT: u64 = 0x484F_4D45_4147_5431; // "HOMEAGT1"

/// The home-agent rendezvous table: `homes[v]` is the HRW pick over every
/// *other* ID, so an entry never lives on the node it locates (`n == 1`
/// degenerates to self-homing, which costs 0 hops anyway). IDs are fixed
/// for a run, so the table is too — the update plane
/// ([`HomeAgentWorkload`]) and the lookup plane ([`HomeAgentLookup`])
/// share this one function and therefore always agree on where an entry
/// lives.
fn home_agents(ids: &[u64]) -> Vec<NodeIdx> {
    let n = ids.len();
    let mut homes = Vec::with_capacity(n);
    let mut others: Vec<u64> = Vec::with_capacity(n.saturating_sub(1));
    for v in 0..n {
        if n == 1 {
            homes.push(0);
            continue;
        }
        others.clear();
        others.extend(
            ids.iter()
                .enumerate()
                .filter_map(|(u, &id)| if u == v { None } else { Some(id) }),
        );
        let pick = hrw_select(ids[v], &others, HOME_AGENT_SALT);
        // Candidate list skips index v, so picks at or past it shift up
        // by one.
        let host = if pick >= v { pick + 1 } else { pick };
        homes.push(host as NodeIdx);
    }
    homes
}

/// One LM maintenance message a scheme wants sent this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeMsg {
    /// Sending node.
    pub src: NodeIdx,
    /// Receiving node (the location server involved).
    pub dst: NodeIdx,
    /// Ledger level the cost books under (band/level of the server).
    pub level: u16,
    /// φ (migration) vs γ (reorganization) attribution.
    pub class: AddrChangeKind,
    /// Subject-originated update/registration (`true`) vs server-to-server
    /// entry transfer (`false`) — only packet-totals bookkeeping.
    pub update: bool,
}

/// The per-tick message workload of a location-management scheme.
///
/// Implementations must be deterministic functions of the tick contexts
/// seen so far: same trace, same messages, in the same order. Any internal
/// state (previous server tables, update anchors) is seeded lazily from
/// the first tick, which every backend observes identically.
pub trait SchemeWorkload {
    /// Scheme name for diagnostics and tables.
    fn name(&self) -> &'static str;
    /// Append this tick's messages to `out` in canonical order.
    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>);
}

/// GLS-style per-band location servers on the recursive grid.
///
/// Band-`b` servers (grid order `b + 2`) are selected per sibling square
/// by HRW hashing over the square's occupants ([`GlsSelect::Hrw`] — the
/// same rendezvous family CHLM uses, so the comparison isolates the
/// *structure*, not the hash). Costs per tick:
///
/// * **transfers** — every changed server slot moves its entry old → new
///   server (or re-registers subject → new server when the old slot was
///   empty); attributed to migration when the subject itself crossed a
///   grid boundary at the sibling order since the previous tick, else to
///   reorganization (occupancy churned around it);
/// * **updates** — a node refreshes its band-`b` servers after moving
///   `2^b · l` since its last band-`b` update (GLS's distance-triggered
///   refresh; attributed to migration — the subject's own movement).
///
/// Ledger levels are `band + 2`, aligning grid order with the CHLM level
/// whose cluster diameter it roughly matches.
pub struct GlsSchemeWorkload {
    grid: GridHierarchy,
    /// Incrementally maintained server table (exact: same table and diff
    /// a full per-tick recompute would produce, without the full rescan).
    inc: GlsIncremental,
    /// Positions at the previous tick (grid-cell comparison for the
    /// migration/reorganization attribution).
    prev_pos: Vec<Point>,
    /// Position at the last distance-triggered update, `n × bands`.
    last_update_pos: Vec<Point>,
}

impl GlsSchemeWorkload {
    /// Grid covering the deployment region of `cfg`, order-1 squares of
    /// side ≥ `R_TX`.
    pub fn new(cfg: &SimConfig) -> Self {
        let region = Disk::centered(cfg.region_radius());
        let (lo, hi) = {
            use chlm_geom::Region;
            region.bounding_box()
        };
        GlsSchemeWorkload {
            grid: GridHierarchy::covering(Rect::new(lo, hi), cfg.rtx()),
            inc: GlsIncremental::new(GlsSelect::Hrw),
            prev_pos: Vec::new(),
            last_update_pos: Vec::new(),
        }
    }
}

impl SchemeWorkload for GlsSchemeWorkload {
    fn name(&self) -> &'static str {
        "gls"
    }

    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
        let bands = self.grid.orders.saturating_sub(1);
        if self.last_update_pos.is_empty() {
            // First tick: anchor the distance triggers at the first
            // observed positions (no update charged for warmup movement).
            self.last_update_pos.reserve(ctx.n * bands);
            for &p in ctx.positions {
                for _ in 0..bands {
                    self.last_update_pos.push(p);
                }
            }
        }
        let (assignment, diff) = self.inc.update(&self.grid, ctx.positions, ctx.ids);
        // Transfers from server-table churn, subjects ascending (diff
        // order), bands ascending within a subject. The diff is empty on
        // the first tick, matching the old no-previous-table behavior.
        for &(subject, band, old, new) in diff {
            let order = band + 1;
            let moved = self.grid.cell(self.prev_pos[subject as usize], order)
                != self.grid.cell(ctx.positions[subject as usize], order);
            let class = if moved {
                AddrChangeKind::Migration
            } else {
                AddrChangeKind::Reorganization
            };
            let level = (band + 2) as u16;
            match (old == NO_SERVER, new == NO_SERVER) {
                (false, false) => out.push(SchemeMsg {
                    src: old,
                    dst: new,
                    level,
                    class,
                    update: false,
                }),
                (true, false) => out.push(SchemeMsg {
                    src: subject,
                    dst: new,
                    level,
                    class,
                    update: true,
                }),
                // Entries expire silently (GLS timeout behavior).
                _ => {}
            }
        }
        // Distance-triggered updates, nodes ascending, bands ascending.
        let l = self.grid.side(1);
        for (v, &p) in ctx.positions.iter().enumerate() {
            for band in 0..bands {
                let slot = v * bands + band;
                let threshold = l * (1u64 << band) as f64;
                if p.dist(self.last_update_pos[slot]) >= threshold {
                    self.last_update_pos[slot] = p;
                    for &s in assignment.servers(v as NodeIdx, band) {
                        if s != NO_SERVER {
                            out.push(SchemeMsg {
                                src: v as NodeIdx,
                                dst: s,
                                level: (band + 2) as u16,
                                class: AddrChangeKind::Migration,
                                update: true,
                            });
                        }
                    }
                }
            }
        }
        self.prev_pos.clear();
        self.prev_pos.extend_from_slice(ctx.positions);
    }
}

/// Static home-agent baseline: every mobile registers with one rendezvous
/// node fixed for the whole run (HRW over the full ID space, self
/// excluded), and pays a subject → home update for every level-1 cluster
/// change. This is the flat scheme the paper's Θ(log² |V|) claim is
/// measured against: update cost scales with the network diameter because
/// homes are placed with no locality.
///
/// Invariant (pinned by `tests/scheme_invariants.rs`): the ledger's
/// level-1 migration event count equals the trace's level-1 migration
/// count *exactly* — one update per migration, nothing else.
pub struct HomeAgentWorkload {
    homes: Vec<NodeIdx>,
}

impl HomeAgentWorkload {
    pub fn new() -> Self {
        HomeAgentWorkload { homes: Vec::new() }
    }

    /// The home agent of `v`, once assigned (first tick).
    pub fn home(&self, v: NodeIdx) -> NodeIdx {
        self.homes[v as usize]
    }
}

impl Default for HomeAgentWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemeWorkload for HomeAgentWorkload {
    fn name(&self) -> &'static str {
        "home-agent"
    }

    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
        if self.homes.is_empty() {
            // One-time rendezvous assignment; see `home_agents`.
            self.homes = home_agents(ctx.ids);
        }
        // Address changes ascend by (node, level); level-1 entries are
        // the migrations/reorganizations of the subject's own cluster.
        for c in ctx.addr_changes {
            if c.level == 1 {
                out.push(SchemeMsg {
                    src: c.node,
                    dst: self.homes[c.node as usize],
                    level: 1,
                    class: c.kind,
                    update: true,
                });
            }
        }
    }
}

/// Analytic accounting for a [`SchemeWorkload`]: each message priced at
/// `hops(src, dst)` by the lent pricer and booked into the ledger under
/// its level and class. The exposure arithmetic matches
/// [`HandoffLedger::record`] bit-for-bit, so the auditor's
/// ledger-vs-rates exposure check applies unchanged.
pub struct AnalyticSchemeObserver {
    workload: Box<dyn SchemeWorkload>,
    ledger: HandoffLedger,
    msgs: Vec<SchemeMsg>,
}

impl AnalyticSchemeObserver {
    pub fn new(workload: Box<dyn SchemeWorkload>) -> Self {
        AnalyticSchemeObserver {
            workload,
            ledger: HandoffLedger::new(),
            msgs: Vec::new(),
        }
    }
}

impl Observer for AnalyticSchemeObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer) {
        self.msgs.clear();
        self.workload.messages(ctx, &mut self.msgs);
        for m in &self.msgs {
            let packets = pricer.hops(m.src, m.dst);
            self.ledger.book(m.level as usize, m.class, packets);
        }
        self.ledger.add_exposure(ctx.n, ctx.dt);
    }
}

impl HandoffAccounting for AnalyticSchemeObserver {
    fn ledger(&self) -> &HandoffLedger {
        &self.ledger
    }
    fn take_ledger(&mut self) -> HandoffLedger {
        std::mem::take(&mut self.ledger)
    }
}

/// Packet-executed accounting for a [`SchemeWorkload`]: the tick's
/// messages are cut into the same fixed `PACKET_SHARDS` contiguous
/// chunks as the CHLM packet backend, each shard runs its own event queue
/// (independent per-`(seed, tick, shard)` loss streams), and the merged
/// per-packet transmission counts are booked 1:1 into the ledger in
/// message order — thread-count invariant by the same argument as
/// [`PacketHandoffObserver`].
pub struct PacketSchemeObserver {
    workload: Box<dyn SchemeWorkload>,
    ledger: HandoffLedger,
    hop_delay: f64,
    loss: Option<LossSpec>,
    totals: PacketTotals,
    workers: WorkerPool,
    msgs: Vec<SchemeMsg>,
    per_packet: Vec<u32>,
}

impl PacketSchemeObserver {
    pub fn new(
        workload: Box<dyn SchemeWorkload>,
        hop_delay: f64,
        loss: Option<LossSpec>,
        threads: usize,
    ) -> Self {
        assert!(hop_delay > 0.0 && hop_delay.is_finite());
        PacketSchemeObserver {
            workload,
            ledger: HandoffLedger::new(),
            hop_delay,
            loss,
            totals: PacketTotals::default(),
            workers: WorkerPool::new(threads),
            msgs: Vec::new(),
            per_packet: Vec::new(),
        }
    }
}

impl Observer for PacketSchemeObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        self.msgs.clear();
        self.workload.messages(ctx, &mut self.msgs);
        let msgs = &self.msgs;
        let ranges = split_ranges(msgs.len(), PACKET_SHARDS);
        let hop_delay = self.hop_delay;
        let loss = self.loss;
        let shards = self.workers.run_indexed(ranges.len(), |shard| {
            let mut net = PacketNetwork::new(ctx.graph, hop_delay);
            if let Some(l) = loss {
                net = net.with_loss(
                    l.prob,
                    l.max_retries,
                    shard_loss_seed(l.seed, ctx.tick as u64, shard as u64),
                );
            }
            for m in &msgs[ranges[shard].start..ranges[shard].end] {
                net.send(Packet {
                    src: m.src,
                    dst: m.dst,
                    msg: LmMessage::Register {
                        subject: m.src,
                        level: m.level,
                    },
                    sent_at: 0.0,
                });
            }
            let stats = net.run();
            (stats, net.into_per_packet_transmissions())
        });
        self.per_packet.clear();
        let mut stats = NetworkStats::default();
        for (shard_stats, shard_packets) in shards {
            stats.merge(&shard_stats);
            self.per_packet.extend_from_slice(&shard_packets);
        }
        // Concatenated shard chunks reproduce the unsharded message order,
        // so transmissions replay 1:1 into the booking loop.
        debug_assert_eq!(self.per_packet.len(), self.msgs.len());
        for (m, &transmissions) in self.msgs.iter().zip(&self.per_packet) {
            self.ledger
                .book(m.level as usize, m.class, transmissions as f64);
            if m.update {
                self.totals.registrations += 1;
            } else {
                self.totals.transfers += 1;
            }
        }
        self.ledger.add_exposure(ctx.n, ctx.dt);
        self.totals.net.merge(&stats);
    }
}

impl HandoffAccounting for PacketSchemeObserver {
    fn ledger(&self) -> &HandoffLedger {
        &self.ledger
    }
    fn take_ledger(&mut self) -> HandoffLedger {
        std::mem::take(&mut self.ledger)
    }
    fn packet_totals(&self) -> Option<PacketTotals> {
        Some(self.totals)
    }
}

/// Build the handoff-accounting observer `cfg` selects — the full
/// `(scheme, backend)` dispatch. CHLM keeps its dedicated observers
/// (bit-identical to every pre-scheme report); the alternate schemes wrap
/// their workload in the analytic or packet scheme observer.
pub fn make_accounting(cfg: &SimConfig) -> Box<dyn HandoffAccounting> {
    let workload: Option<Box<dyn SchemeWorkload>> = match cfg.lm_scheme {
        LmScheme::Chlm => None,
        LmScheme::Gls => Some(Box::new(GlsSchemeWorkload::new(cfg))),
        LmScheme::HomeAgent => Some(Box::new(HomeAgentWorkload::new())),
    };
    match (workload, cfg.backend) {
        (None, Backend::Analytic) => Box::new(LedgerHandoffObserver::default()),
        (None, Backend::Packet { hop_delay, loss }) => {
            Box::new(PacketHandoffObserver::new(hop_delay, loss, cfg.threads))
        }
        (Some(w), Backend::Analytic) => Box::new(AnalyticSchemeObserver::new(w)),
        (Some(w), Backend::Packet { hop_delay, loss }) => {
            Box::new(PacketSchemeObserver::new(w, hop_delay, loss, cfg.threads))
        }
    }
}

/// The slice of the world a location lookup resolves against, built from
/// a live [`TickCtx`] ([`LookupWorld::of_tick`]).
pub struct LookupWorld<'a> {
    /// Tick index the state belongs to (staleness oracle for lookups that
    /// cache derived tables, e.g. the GLS server table).
    pub tick: usize,
    /// Node count.
    pub n: usize,
    /// Election identifiers, by physical node index.
    pub ids: &'a [u64],
    /// Current node positions.
    pub positions: &'a [Point],
    /// Current cluster hierarchy.
    pub hierarchy: &'a Hierarchy,
    /// Current CHLM server assignment.
    pub assignment: &'a LmAssignment,
}

impl<'a> LookupWorld<'a> {
    /// The lookup view of one completed tick.
    pub fn of_tick(ctx: &TickCtx<'a>) -> Self {
        LookupWorld {
            tick: ctx.tick,
            n: ctx.n,
            ids: ctx.ids,
            positions: ctx.positions,
            hierarchy: ctx.new_hierarchy,
            assignment: ctx.new_assignment,
        }
    }
}

/// One hop-priced segment of a lookup's route: a request toward a server
/// or the answer on its way back. Legs are priced/executed independently
/// (`src → dst` each), and a lookup's cost is the sum of its legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupLeg {
    pub src: NodeIdx,
    pub dst: NodeIdx,
    /// `true` for the leg carrying the answer (priced identically; tags
    /// the packet as [`LmMessage::Reply`] on the packet backend).
    pub reply: bool,
}

/// The per-lookup route of a location-management scheme — the query-plane
/// twin of [`SchemeWorkload`].
///
/// Implementations must be deterministic functions of
/// `(world, requester, target)`: same world, same route. `resolve` appends
/// the route's legs to `legs` and returns the resolution level (scheme
/// semantics: CHLM common-cluster level, GLS shared grid order, home
/// agent 0 = self / 1 = detour), or `None` when the scheme has no route
/// (e.g. disconnected components). A free lookup resolves with zero legs.
pub trait SchemeLookup {
    /// Scheme name for diagnostics and tables.
    fn name(&self) -> &'static str;
    /// Route one lookup; see the trait docs.
    fn resolve(
        &mut self,
        world: &LookupWorld<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16>;
}

/// CHLM lowest-common-cluster descent: ask the target's LM server in the
/// lowest cluster containing both endpoints
/// ([`chlm_lm::query::resolve_route`]). Free at levels ≤ 1 (complete
/// intra-cluster knowledge); otherwise request + reply.
pub struct ChlmLookup;

impl SchemeLookup for ChlmLookup {
    fn name(&self) -> &'static str {
        "chlm"
    }

    fn resolve(
        &mut self,
        world: &LookupWorld<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16> {
        let route = resolve_route(world.hierarchy, world.assignment, requester, target)?;
        if let Some(server) = route.server {
            legs.push(LookupLeg {
                src: requester,
                dst: server,
                reply: false,
            });
            legs.push(LookupLeg {
                src: server,
                dst: requester,
                reply: true,
            });
        }
        Some(route.common_level as u16)
    }
}

/// GLS band walk: ask the target's HRW-placed server in the band of the
/// lowest shared grid order ([`chlm_lm::gls::gls_resolve_route`]). The
/// lookup maintains its own copy of the server table — the same pure
/// function of (grid, positions, ids) the update plane maintains, so both
/// planes always agree on server placement — refreshed lazily on the
/// first lookup of a tick.
pub struct GlsLookup {
    grid: GridHierarchy,
    inc: GlsIncremental,
    /// Tick the server table was last refreshed for.
    table_tick: Option<usize>,
}

impl GlsLookup {
    /// Same grid construction as [`GlsSchemeWorkload::new`].
    pub fn new(cfg: &SimConfig) -> Self {
        let region = Disk::centered(cfg.region_radius());
        let (lo, hi) = {
            use chlm_geom::Region;
            region.bounding_box()
        };
        GlsLookup {
            grid: GridHierarchy::covering(Rect::new(lo, hi), cfg.rtx()),
            inc: GlsIncremental::new(GlsSelect::Hrw),
            table_tick: None,
        }
    }
}

impl SchemeLookup for GlsLookup {
    fn name(&self) -> &'static str {
        "gls"
    }

    fn resolve(
        &mut self,
        world: &LookupWorld<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16> {
        if self.table_tick != Some(world.tick) {
            self.inc.update(&self.grid, world.positions, world.ids);
            self.table_tick = Some(world.tick);
        }
        let route = gls_resolve_route(
            &self.grid,
            self.inc.assignment(),
            world.positions,
            requester,
            target,
        )?;
        if let Some(server) = route.server {
            legs.push(LookupLeg {
                src: requester,
                dst: server,
                reply: false,
            });
            legs.push(LookupLeg {
                src: server,
                dst: requester,
                reply: true,
            });
        }
        Some(route.shared_order as u16)
    }
}

/// Home-agent detour: every lookup travels requester → home(target) →
/// target, regardless of where the endpoints actually are — the textbook
/// triangle-routing cost of locality-free rendezvous placement. Homes
/// come from the same `home_agents` table the update plane registers
/// with, so the detour always hits the server holding the entry. Every
/// lookup resolves (level 1; a self-lookup is free at level 0).
pub struct HomeAgentLookup {
    homes: Vec<NodeIdx>,
}

impl HomeAgentLookup {
    pub fn new() -> Self {
        HomeAgentLookup { homes: Vec::new() }
    }
}

impl Default for HomeAgentLookup {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemeLookup for HomeAgentLookup {
    fn name(&self) -> &'static str {
        "home-agent"
    }

    fn resolve(
        &mut self,
        world: &LookupWorld<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16> {
        if requester == target {
            return Some(0);
        }
        if self.homes.is_empty() {
            self.homes = home_agents(world.ids);
        }
        let home = self.homes[target as usize];
        legs.push(LookupLeg {
            src: requester,
            dst: home,
            reply: false,
        });
        legs.push(LookupLeg {
            src: home,
            dst: target,
            reply: true,
        });
        Some(1)
    }
}

/// Build the [`SchemeLookup`] for `cfg`'s scheme.
pub fn make_lookup(cfg: &SimConfig) -> Box<dyn SchemeLookup> {
    match cfg.lm_scheme {
        LmScheme::Chlm => Box::new(ChlmLookup),
        LmScheme::Gls => Box::new(GlsLookup::new(cfg)),
        LmScheme::HomeAgent => Box::new(HomeAgentLookup::new()),
    }
}

/// Analytic query accounting: each arrival in `ctx.query_arrivals` is
/// routed by the [`SchemeLookup`] and its legs priced with the lent
/// pricer, in arrival order. Self-legs price 0 — the same value a packet
/// network self-delivery transmits — so lossless analytic-vs-packet
/// parity holds leg for leg (`tests/query_parity.rs`).
pub struct AnalyticQueryObserver {
    lookup: Box<dyn SchemeLookup>,
    stats: QueryStats,
    legs: Vec<LookupLeg>,
}

impl AnalyticQueryObserver {
    pub fn new(lookup: Box<dyn SchemeLookup>) -> Self {
        AnalyticQueryObserver {
            lookup,
            stats: QueryStats::default(),
            legs: Vec::new(),
        }
    }
}

impl Observer for AnalyticQueryObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer) {
        let world = LookupWorld::of_tick(ctx);
        let mut tick_packets = 0.0;
        for &(requester, target) in ctx.query_arrivals {
            self.legs.clear();
            match self
                .lookup
                .resolve(&world, requester, target, &mut self.legs)
            {
                Some(level) => {
                    let mut packets = 0.0;
                    for leg in &self.legs {
                        packets += pricer.hops(leg.src, leg.dst);
                    }
                    self.stats.record(level as usize, packets);
                    tick_packets += packets;
                }
                None => self.stats.unresolved += 1,
            }
        }
        self.stats.arrivals += ctx.query_arrivals.len() as u64;
        self.stats.per_tick_packets.push(tick_packets);
        self.stats.node_seconds += ctx.n as f64 * ctx.dt;
    }
}

impl QueryAccounting for AnalyticQueryObserver {
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
    fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }
}

/// Stream salt separating query-plane loss draws from the update plane's:
/// both planes run packet shards at the same `(seed, tick, shard)`, and
/// their streams must not be correlated.
const QUERY_LOSS_STREAM: u64 = 0x5155_4552_594C_4F53; // "QUERYLOS"

/// Packet-executed query accounting: the tick's lookup legs are cut into
/// the same fixed `PACKET_SHARDS` contiguous chunks as the update plane,
/// each shard runs its own event queue with a per-`(seed, tick, shard)`
/// loss stream (salted with `QUERY_LOSS_STREAM`), and the merged
/// per-leg transmission counts are booked back per lookup in arrival
/// order — thread-count invariant by the same argument as
/// [`PacketSchemeObserver`].
pub struct PacketQueryObserver {
    lookup: Box<dyn SchemeLookup>,
    stats: QueryStats,
    hop_delay: f64,
    loss: Option<LossSpec>,
    totals: NetworkStats,
    workers: WorkerPool,
    legs: Vec<LookupLeg>,
    /// Per arrival: resolution level and leg count, or `None` (no route).
    outcomes: Vec<Option<(u16, u32)>>,
    per_leg: Vec<u32>,
}

impl PacketQueryObserver {
    pub fn new(
        lookup: Box<dyn SchemeLookup>,
        hop_delay: f64,
        loss: Option<LossSpec>,
        threads: usize,
    ) -> Self {
        assert!(hop_delay > 0.0 && hop_delay.is_finite());
        PacketQueryObserver {
            lookup,
            stats: QueryStats::default(),
            hop_delay,
            loss,
            totals: NetworkStats::default(),
            workers: WorkerPool::new(threads),
            legs: Vec::new(),
            outcomes: Vec::new(),
            per_leg: Vec::new(),
        }
    }

    /// Merged network statistics over every query shard so far (drop and
    /// loss diagnostics for the parity wall).
    pub fn net_stats(&self) -> &NetworkStats {
        &self.totals
    }
}

impl Observer for PacketQueryObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        let world = LookupWorld::of_tick(ctx);
        self.legs.clear();
        self.outcomes.clear();
        for &(requester, target) in ctx.query_arrivals {
            let start = self.legs.len();
            match self
                .lookup
                .resolve(&world, requester, target, &mut self.legs)
            {
                Some(level) => self
                    .outcomes
                    .push(Some((level, (self.legs.len() - start) as u32))),
                None => {
                    self.legs.truncate(start);
                    self.outcomes.push(None);
                }
            }
        }
        let legs = &self.legs;
        let ranges = split_ranges(legs.len(), PACKET_SHARDS);
        let hop_delay = self.hop_delay;
        let loss = self.loss;
        let shards = self.workers.run_indexed(ranges.len(), |shard| {
            let mut net = PacketNetwork::new(ctx.graph, hop_delay);
            if let Some(l) = loss {
                net = net.with_loss(
                    l.prob,
                    l.max_retries,
                    shard_loss_seed(l.seed ^ QUERY_LOSS_STREAM, ctx.tick as u64, shard as u64),
                );
            }
            for leg in &legs[ranges[shard].start..ranges[shard].end] {
                let msg = if leg.reply {
                    LmMessage::Reply {
                        requester: leg.dst,
                        target: leg.src,
                    }
                } else {
                    LmMessage::Query {
                        requester: leg.src,
                        target: leg.dst,
                    }
                };
                net.send(Packet {
                    src: leg.src,
                    dst: leg.dst,
                    msg,
                    sent_at: 0.0,
                });
            }
            let stats = net.run();
            (stats, net.into_per_packet_transmissions())
        });
        self.per_leg.clear();
        let mut net_stats = NetworkStats::default();
        for (shard_stats, shard_legs) in shards {
            net_stats.merge(&shard_stats);
            self.per_leg.extend_from_slice(&shard_legs);
        }
        // Concatenated shard chunks reproduce the unsharded leg order, so
        // transmissions replay 1:1 into the per-lookup booking loop.
        debug_assert_eq!(self.per_leg.len(), self.legs.len());
        let mut cursor = 0usize;
        let mut tick_packets = 0.0;
        for outcome in &self.outcomes {
            match outcome {
                Some((level, leg_count)) => {
                    let mut packets = 0.0;
                    for &t in &self.per_leg[cursor..cursor + *leg_count as usize] {
                        packets += t as f64;
                    }
                    cursor += *leg_count as usize;
                    self.stats.record(*level as usize, packets);
                    tick_packets += packets;
                }
                None => self.stats.unresolved += 1,
            }
        }
        self.stats.arrivals += ctx.query_arrivals.len() as u64;
        self.stats.per_tick_packets.push(tick_packets);
        self.stats.node_seconds += ctx.n as f64 * ctx.dt;
        self.totals.merge(&net_stats);
    }
}

impl QueryAccounting for PacketQueryObserver {
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
    fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }
    fn query_net(&self) -> Option<NetworkStats> {
        Some(self.totals)
    }
}

/// Build the query-accounting observer `cfg` selects, or `None` when the
/// query plane is off (`query_rate == 0`).
pub fn make_query_accounting(cfg: &SimConfig) -> Option<Box<dyn QueryAccounting>> {
    if cfg.query_rate <= 0.0 {
        return None;
    }
    let lookup = make_lookup(cfg);
    Some(match cfg.backend {
        Backend::Analytic => Box::new(AnalyticQueryObserver::new(lookup)),
        Backend::Packet { hop_delay, loss } => Box::new(PacketQueryObserver::new(
            lookup,
            hop_delay,
            loss,
            cfg.threads,
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_cluster::address::{AddrChange, AddressBook};
    use chlm_cluster::{Hierarchy, HierarchyOptions};
    use chlm_graph::Graph;
    use chlm_lm::server::{LmAssignment, SelectionRule};

    /// Minimal hand-built world: 4 nodes on a line, then node 3 teleports
    /// next to node 0.
    struct World {
        ids: Vec<u64>,
        graph: Graph,
        hierarchy: Hierarchy,
        book: AddressBook,
        assignment: LmAssignment,
        positions: Vec<Point>,
    }

    fn world(positions: Vec<Point>) -> World {
        let ids: Vec<u64> = (0..positions.len() as u64).collect();
        let graph = chlm_graph::unit_disk::build_unit_disk(&positions, 1.5);
        let hierarchy = Hierarchy::build(&ids, &graph, HierarchyOptions::default());
        let book = AddressBook::capture(&hierarchy);
        let assignment = LmAssignment::compute(&hierarchy, SelectionRule::Hrw);
        World {
            ids,
            graph,
            hierarchy,
            book,
            assignment,
            positions,
        }
    }

    fn ctx<'a>(
        tick: usize,
        old: &'a World,
        new: &'a World,
        addr_changes: &'a [AddrChange],
    ) -> TickCtx<'a> {
        TickCtx {
            tick,
            dt: 1.0,
            n: new.positions.len(),
            rtx: 1.5,
            ids: &new.ids,
            positions: &new.positions,
            graph: &new.graph,
            old_hierarchy: &old.hierarchy,
            new_hierarchy: &new.hierarchy,
            old_book: &old.book,
            new_book: &new.book,
            old_assignment: &old.assignment,
            new_assignment: &new.assignment,
            host_changes: &[],
            addr_changes,
            query_arrivals: &[],
        }
    }

    fn line_world() -> World {
        world(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ])
    }

    #[test]
    fn home_agent_emits_one_update_per_level1_change() {
        let old = line_world();
        let new = line_world();
        let changes = [
            AddrChange {
                node: 1,
                level: 1,
                old_head: 0,
                new_head: 2,
                kind: AddrChangeKind::Migration,
            },
            AddrChange {
                node: 2,
                level: 2,
                old_head: 0,
                new_head: 1,
                kind: AddrChangeKind::Reorganization,
            },
        ];
        let mut w = HomeAgentWorkload::new();
        let mut out = Vec::new();
        w.messages(&ctx(0, &old, &new, &changes), &mut out);
        // Only the level-1 change produces a message; the level-2 one is
        // CHLM-internal structure the home agent does not track.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, 1);
        assert_eq!(out[0].dst, w.home(1));
        assert_ne!(out[0].dst, 1, "home agent must not be the subject");
        assert_eq!(out[0].level, 1);
        assert_eq!(out[0].class, AddrChangeKind::Migration);
        assert!(out[0].update);
    }

    #[test]
    fn home_agent_assignment_is_stable_across_ticks() {
        let old = line_world();
        let new = line_world();
        let mut w = HomeAgentWorkload::new();
        let mut out = Vec::new();
        w.messages(&ctx(0, &old, &new, &[]), &mut out);
        let homes: Vec<NodeIdx> = (0..4).map(|v| w.home(v)).collect();
        w.messages(&ctx(1, &old, &new, &[]), &mut out);
        assert_eq!(homes, (0..4).map(|v| w.home(v)).collect::<Vec<_>>());
        assert!(out.is_empty());
    }

    #[test]
    fn gls_workload_static_world_goes_quiet() {
        // With nobody moving, after the first tick (which seeds anchors
        // and the first table) no transfers and no updates are emitted.
        let cfg = SimConfig::builder(4).duration(1.0).warmup(0.0).build();
        let mut w = GlsSchemeWorkload::new(&cfg);
        let old = line_world();
        let new = line_world();
        let mut out = Vec::new();
        w.messages(&ctx(0, &old, &new, &[]), &mut out);
        out.clear();
        w.messages(&ctx(1, &old, &new, &[]), &mut out);
        assert!(out.is_empty(), "static world still emitted {out:?}");
    }

    #[test]
    fn analytic_scheme_observer_books_messages() {
        struct OneMsg;
        impl SchemeWorkload for OneMsg {
            fn name(&self) -> &'static str {
                "one-msg"
            }
            fn messages(&mut self, _ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
                out.push(SchemeMsg {
                    src: 0,
                    dst: 3,
                    level: 2,
                    class: AddrChangeKind::Migration,
                    update: true,
                });
            }
        }
        struct ConstPricer(f64);
        impl HopPricer for ConstPricer {
            fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
                if a == b {
                    0.0
                } else {
                    self.0
                }
            }
        }
        let old = line_world();
        let new = line_world();
        let mut obs = AnalyticSchemeObserver::new(Box::new(OneMsg));
        obs.on_tick(&ctx(0, &old, &new, &[]), &mut ConstPricer(3.0));
        obs.on_tick(&ctx(1, &old, &new, &[]), &mut ConstPricer(3.0));
        let ledger = obs.ledger();
        assert_eq!(ledger.per_level[2].migration_events, 2);
        assert!((ledger.per_level[2].migration_packets - 6.0).abs() < 1e-12);
        assert!((ledger.node_seconds - 8.0).abs() < 1e-12);
    }
}
