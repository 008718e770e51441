//! Location-management schemes as workloads.
//!
//! Everything upstream of the accounting slots — mobility, topology,
//! hierarchy, the LM assignment diff — is the *world*, shared by every
//! scheme. A scheme is a server table plus two pure functions of that
//! world which read it:
//!
//! | [`LmScheme`]  | [`Scheme`]          | server table                               |
//! |---------------|---------------------|--------------------------------------------|
//! | `Chlm`        | [`ChlmScheme`]      | the world's LM assignment (`ctx.new_assignment`) |
//! | `Gls`         | [`GlsScheme`]       | one [`GlsIncremental`] per-band grid table |
//! | `HomeAgent`   | [`HomeAgentScheme`] | the run's fixed home agents                |
//!
//! * [`Scheme::advance`] brings the table to the tick, once;
//! * the update half, [`Scheme::messages`], maps the tick's [`TickCtx`] to
//!   the LM maintenance messages the scheme sends ([`SchemeMsg`]), in a
//!   canonical order;
//! * the query half, [`Scheme::resolve`], maps one lookup arrival
//!   (requester, target) on the tick's world to the route the scheme's
//!   resolution protocol takes — CHLM lowest-common-cluster descent
//!   ([`chlm_lm::query::resolve_route`]), GLS band walk to the order-k
//!   grid server ([`chlm_lm::gls::gls_resolve_route`]), or the home-agent
//!   detour requester → home → target — as a list of [`LookupLeg`]s plus
//!   the resolution level.
//!
//! Both halves are methods of one trait on one value, so they read one
//! table: a GLS lookup asks exactly the server the update half registered
//! with, by construction. A message or a leg is, to everything below the
//! scheme, its two endpoints: its cost depends on nothing else.
//!
//! None of this needs a pricer or depends on the backend, so it runs in a
//! `SchemePlane`: per tick, the table advance, the messages, and the legs
//! and per-arrival outcomes of `ctx.query_arrivals`. What a message or a
//! leg *costs* is the backend's business, and the backend is a
//! [`Transport`] (analytic pricing or packet execution; see
//! [`crate::transport`]), held by the variant's books:
//!
//! * [`HandoffBook`] — messages → transport → [`HandoffLedger::book`],
//!   one `book` per event, a two-leg event's costs summed first;
//! * [`QueryBook`] — legs → transport → `QueryStats::record`, one
//!   `record` per resolved arrival.
//!
//! A [`crate::multiplex::MultiplexSim`] runs one plane per distinct scheme
//! and lends its slices to every bank that books that scheme.
//! [`make_accounting`] / [`make_query_accounting`] build the standalone
//! form of each slot, [`HandoffObserver`] / [`QueryObserver`]: a plane of
//! their own (update half or query half only), then the book — the same
//! two halves composed, not a second implementation.
//!
//! Determinism: schemes are pure functions of the trace (no RNG, no wall
//! clock), message order is canonical (diff order; subjects ascending,
//! bands ascending within a subject), and packet execution follows the
//! three rules in [`crate::transport`], so every scheme inherits the
//! engine's bit-for-bit reproducibility and thread-invariance contracts.

use crate::config::{LmScheme, SimConfig};
use crate::cost::HopPricer;
use crate::observe::{HandoffAccounting, Observer, QueryAccounting};
use crate::report::QueryStats;
use crate::stage::TickCtx;
use crate::transport::{
    reads_hops, PacketTotals, PairWarmer, Transport, WireLeg, QUERY_LOSS_STREAM, UPDATE_LOSS_STREAM,
};
use chlm_cluster::address::AddrChangeKind;
use chlm_geom::{Disk, Point, Rect};
use chlm_graph::NodeIdx;
use chlm_lm::gls::{gls_resolve_route, GlsIncremental, GlsSelect, GridHierarchy, NO_SERVER};
use chlm_lm::handoff::{for_each_handoff, HandoffLedger};
use chlm_lm::hash::hrw_select;
use chlm_lm::query::{resolve_route, Route};
use chlm_par::WorkerPool;
use chlm_proto::network::NetworkStats;

/// Salt for the home-agent rendezvous selection, fixed so every node can
/// recompute every home locally.
const HOME_AGENT_SALT: u64 = 0x484F_4D45_4147_5431; // "HOMEAGT1"

/// The home-agent rendezvous table: `homes[v]` is the HRW pick over every
/// *other* ID, so an entry never lives on the node it locates (`n == 1`
/// degenerates to self-homing, which costs 0 hops anyway). IDs are fixed
/// for a run, so the table is too; [`HomeAgentScheme`] draws it once and
/// both of its halves read it.
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

/// What a [`SchemeMsg`] does, and how it is booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Server-to-server TRANSFER of the subject's entry; one booked event.
    Transfer,
    /// Subject-originated REGISTER (or refresh) with `dst`; one booked
    /// event.
    Register,
    /// The subject's REGISTER with the server its entry was just
    /// TRANSFERred to. It shares the preceding message's booked event:
    /// the two costs are summed before the ledger sees them, and a packet
    /// shard is never cut between the two.
    RegisterWithTransfer,
}

/// One LM maintenance message a scheme wants sent this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeMsg {
    /// The node whose location entry the message is about.
    pub subject: NodeIdx,
    /// Sending node.
    pub src: NodeIdx,
    /// Receiving node (the location server involved).
    pub dst: NodeIdx,
    /// Ledger level the cost books under (band/level of the server).
    pub level: u16,
    /// φ (migration) vs γ (reorganization) attribution.
    pub class: AddrChangeKind,
    /// Message type and booking rule.
    pub kind: MsgKind,
}

impl WireLeg for SchemeMsg {
    fn ends(&self) -> (NodeIdx, NodeIdx) {
        (self.src, self.dst)
    }

    fn opens_event(&self) -> bool {
        self.kind != MsgKind::RegisterWithTransfer
    }
}

/// A location-management scheme: one server table and the two halves
/// that read it (see the module docs).
///
/// Every method is a deterministic function of the tick contexts seen so
/// far and of the server table [`Scheme::advance`] brought to `ctx`'s
/// tick: same trace, same messages and routes, in the same order. Any
/// further state (previous positions, update anchors) is seeded lazily
/// from the first tick, which every backend observes identically.
pub trait Scheme {
    /// Bring the server table both halves read up to `ctx`'s tick. Its
    /// `SchemePlane` calls this once per tick, before either half, and
    /// skips the ticks on which nothing reads the table (a query-only
    /// plane's ticks without arrivals) — so a table must be a function of
    /// the current tick alone, never of how many ticks it saw.
    fn advance(&mut self, ctx: &TickCtx<'_>);

    /// The update half: append this tick's messages to `out` in canonical
    /// order.
    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>);

    /// The query half: route one lookup on `ctx`'s world (its
    /// `new_hierarchy`, `new_assignment` and `positions`). Appends the
    /// route's legs to `legs` and returns the resolution level (CHLM
    /// common-cluster level, GLS shared grid order, home agent 0 = self /
    /// 1 = detour), or `None` when the scheme has no route (e.g.
    /// disconnected components). A free lookup resolves with zero legs.
    fn resolve(
        &self,
        ctx: &TickCtx<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16>;
}

/// The paper's scheme. Its server table is the world's own LM assignment,
/// so [`Scheme::advance`] has nothing to do.
///
/// Update half: every LM entry whose server changed is TRANSFERred old
/// server → new server, and a subject whose own level-k address changed
/// also REGISTERs with the new server — the message set and its φ/γ
/// cascade attribution are [`chlm_lm::handoff::for_each_handoff`]'s, in
/// assignment-diff order.
///
/// Query half: lowest-common-cluster descent — ask the target's LM server
/// in the lowest cluster containing both endpoints
/// ([`chlm_lm::query::resolve_route`]). Free at levels ≤ 1 (complete
/// intra-cluster knowledge); otherwise request + reply.
#[derive(Default)]
pub struct ChlmScheme {
    /// The handoff derivation's per-node run index, kept across ticks.
    run_start: Vec<u32>,
}

impl Scheme for ChlmScheme {
    fn advance(&mut self, _ctx: &TickCtx<'_>) {}

    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
        for_each_handoff(
            ctx.host_changes,
            ctx.addr_changes,
            &mut self.run_start,
            |hc, class, registers| {
                let transfer = SchemeMsg {
                    subject: hc.subject,
                    src: hc.old_host,
                    dst: hc.new_host,
                    level: hc.level,
                    class,
                    kind: MsgKind::Transfer,
                };
                out.push(transfer);
                if registers {
                    out.push(SchemeMsg {
                        src: hc.subject,
                        kind: MsgKind::RegisterWithTransfer,
                        ..transfer
                    });
                }
            },
        );
    }

    fn resolve(
        &self,
        ctx: &TickCtx<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16> {
        let route = resolve_route(ctx.new_hierarchy, ctx.new_assignment, requester, target)?;
        Some(route_legs(route, requester, legs))
    }
}

/// The legs of `requester`'s lookup along `route` — the request to the
/// route's server and the answer back, none when the answer is free — and
/// its resolution level.
fn route_legs(route: Route, requester: NodeIdx, legs: &mut Vec<LookupLeg>) -> u16 {
    if let Some(server) = route.server {
        legs.push(LookupLeg {
            src: requester,
            dst: server,
        });
        legs.push(LookupLeg {
            src: server,
            dst: requester,
        });
    }
    route.level as u16
}

/// GLS-style per-band location servers on the recursive grid.
///
/// Band-`b` servers (grid order `b + 2`) are selected per sibling square
/// by HRW hashing over the square's occupants ([`GlsSelect::Hrw`] — the
/// same rendezvous family CHLM uses, so the comparison isolates the
/// *structure*, not the hash). The server table is one incrementally
/// maintained [`GlsIncremental`] (exact: the same table and diff a full
/// per-tick recompute would produce, without the full rescan), advanced
/// once per tick and read by both halves.
///
/// Update half, per tick:
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
///
/// Query half: the band walk — ask the target's HRW-placed server in the
/// band of the lowest shared grid order
/// ([`chlm_lm::gls::gls_resolve_route`]), on the table the update half
/// registers with.
pub struct GlsScheme {
    grid: GridHierarchy,
    table: GlsIncremental,
    /// Positions at the previous tick (grid-cell comparison for the
    /// migration/reorganization attribution).
    prev_pos: Vec<Point>,
    /// Position at the last distance-triggered update, `n × bands`.
    last_update_pos: Vec<Point>,
}

impl GlsScheme {
    /// Grid covering the deployment region of `cfg`, order-1 squares of
    /// side ≥ `R_TX`.
    pub fn new(cfg: &SimConfig) -> Self {
        let region = Disk::centered(cfg.region_radius());
        let (lo, hi) = {
            use chlm_geom::Region;
            region.bounding_box()
        };
        GlsScheme {
            grid: GridHierarchy::covering(Rect::new(lo, hi), cfg.rtx()),
            table: GlsIncremental::new(GlsSelect::Hrw),
            prev_pos: Vec::new(),
            last_update_pos: Vec::new(),
        }
    }
}

impl Scheme for GlsScheme {
    fn advance(&mut self, ctx: &TickCtx<'_>) {
        self.table.update(&self.grid, ctx.positions, ctx.ids);
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
        // Transfers from server-table churn, subjects ascending (diff
        // order), bands ascending within a subject. The diff is empty on
        // the first tick, matching the old no-previous-table behavior.
        for &(subject, band, old, new) in self.table.diff() {
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
                    subject,
                    src: old,
                    dst: new,
                    level,
                    class,
                    kind: MsgKind::Transfer,
                }),
                (true, false) => out.push(SchemeMsg {
                    subject,
                    src: subject,
                    dst: new,
                    level,
                    class,
                    kind: MsgKind::Register,
                }),
                // Entries expire silently (GLS timeout behavior).
                _ => {}
            }
        }
        // Distance-triggered updates, nodes ascending, bands ascending.
        let assignment = self.table.assignment();
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
                                subject: v as NodeIdx,
                                src: v as NodeIdx,
                                dst: s,
                                level: (band + 2) as u16,
                                class: AddrChangeKind::Migration,
                                kind: MsgKind::Register,
                            });
                        }
                    }
                }
            }
        }
        self.prev_pos.clear();
        self.prev_pos.extend_from_slice(ctx.positions);
    }

    fn resolve(
        &self,
        ctx: &TickCtx<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16> {
        let route = gls_resolve_route(
            &self.grid,
            self.table.assignment(),
            ctx.positions,
            requester,
            target,
        )?;
        Some(route_legs(route, requester, legs))
    }
}

/// Static home-agent baseline: every mobile registers with one rendezvous
/// node fixed for the whole run (HRW over the full ID space, self
/// excluded). This is the flat scheme the paper's Θ(log² |V|) claim is
/// measured against: costs scale with the network diameter because homes
/// are placed with no locality. The table is `home_agents`, drawn on the
/// first advance.
///
/// Update half: a subject → home update for every level-1 cluster change.
/// Invariant (pinned by `tests/scheme_invariants.rs`): the ledger's
/// level-1 migration event count equals the trace's level-1 migration
/// count *exactly* — one update per migration, nothing else.
///
/// Query half: the detour requester → home(target) → target, regardless
/// of where the endpoints actually are — the textbook triangle-routing
/// cost of locality-free rendezvous placement. The detour always hits the
/// server holding the entry. Every lookup resolves (level 1; a
/// self-lookup is free at level 0).
pub struct HomeAgentScheme {
    homes: Vec<NodeIdx>,
}

impl HomeAgentScheme {
    pub fn new() -> Self {
        HomeAgentScheme { homes: Vec::new() }
    }

    /// The home agent of `v`, once assigned (first advance).
    pub fn home(&self, v: NodeIdx) -> NodeIdx {
        self.homes[v as usize]
    }
}

impl Default for HomeAgentScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheme for HomeAgentScheme {
    fn advance(&mut self, ctx: &TickCtx<'_>) {
        if self.homes.is_empty() {
            // One-time rendezvous assignment; see `home_agents`.
            self.homes = home_agents(ctx.ids);
        }
    }

    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
        // Address changes ascend by (node, level); level-1 entries are
        // the migrations/reorganizations of the subject's own cluster.
        for c in ctx.addr_changes {
            if c.level == 1 {
                out.push(SchemeMsg {
                    subject: c.node,
                    src: c.node,
                    dst: self.homes[c.node as usize],
                    level: 1,
                    class: c.kind,
                    kind: MsgKind::Register,
                });
            }
        }
    }

    fn resolve(
        &self,
        _ctx: &TickCtx<'_>,
        requester: NodeIdx,
        target: NodeIdx,
        legs: &mut Vec<LookupLeg>,
    ) -> Option<u16> {
        if requester == target {
            return Some(0);
        }
        let home = self.homes[target as usize];
        legs.push(LookupLeg {
            src: requester,
            dst: home,
        });
        legs.push(LookupLeg {
            src: home,
            dst: target,
        });
        Some(1)
    }
}

/// Build the [`Scheme`] for `cfg`'s `lm_scheme`.
pub fn make_scheme(cfg: &SimConfig) -> Box<dyn Scheme> {
    match cfg.lm_scheme {
        LmScheme::Chlm => Box::new(ChlmScheme::default()),
        LmScheme::Gls => Box::new(GlsScheme::new(cfg)),
        LmScheme::HomeAgent => Box::new(HomeAgentScheme::new()),
    }
}

/// One hop-priced segment of a lookup's route: a request toward a server
/// or the answer on its way back. Legs are priced/executed independently
/// (`src → dst` each), and a lookup's cost is the sum of its legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupLeg {
    pub src: NodeIdx,
    pub dst: NodeIdx,
}

impl WireLeg for LookupLeg {
    fn ends(&self) -> (NodeIdx, NodeIdx) {
        (self.src, self.dst)
    }

    /// Lookup legs shard one by one.
    fn opens_event(&self) -> bool {
        true
    }
}

/// What became of one lookup arrival: its resolution level and the number
/// of legs its route appended, or `None` when the scheme found no route.
pub(crate) type LookupOutcome = Option<(u16, u32)>;

/// One scheme's share of a tick, produced once and read by every bank
/// that books the scheme: the table advance, the update half's messages,
/// and the query half's legs and per-arrival outcomes for
/// `ctx.query_arrivals`. A plane needs no pricer and no backend — those
/// are the banks' ([`HandoffBook`], [`QueryBook`]).
pub(crate) struct SchemePlane {
    scheme: Box<dyn Scheme>,
    /// Whether the update half runs.
    update: bool,
    /// Whether the query half runs.
    query: bool,
    msgs: Vec<SchemeMsg>,
    legs: Vec<LookupLeg>,
    /// One outcome per arrival.
    outcomes: Vec<LookupOutcome>,
    /// Table advances so far (one a tick while the update half runs).
    pub(crate) advances: u64,
}

impl SchemePlane {
    /// A plane running `scheme`'s update half iff `update` and its query
    /// half iff `query`.
    pub(crate) fn new(scheme: Box<dyn Scheme>, update: bool, query: bool) -> Self {
        SchemePlane {
            scheme,
            update,
            query,
            msgs: Vec::new(),
            legs: Vec::new(),
            outcomes: Vec::new(),
            advances: 0,
        }
    }

    /// Produce this tick's slices. The table is advanced only when a half
    /// will read it: every tick with the update half on, and otherwise
    /// only on ticks with arrivals.
    pub(crate) fn run(&mut self, ctx: &TickCtx<'_>) {
        if self.update || (self.query && !ctx.query_arrivals.is_empty()) {
            self.scheme.advance(ctx);
            self.advances += 1;
        }
        if self.update {
            self.msgs.clear();
            self.scheme.messages(ctx, &mut self.msgs);
        }
        if self.query {
            self.legs.clear();
            self.outcomes.clear();
            for &(requester, target) in ctx.query_arrivals {
                let start = self.legs.len();
                match self.scheme.resolve(ctx, requester, target, &mut self.legs) {
                    Some(level) => self
                        .outcomes
                        .push(Some((level, (self.legs.len() - start) as u32))),
                    None => {
                        self.legs.truncate(start);
                        self.outcomes.push(None);
                    }
                }
            }
        }
    }

    /// The update half's messages of the last [`SchemePlane::run`].
    pub(crate) fn messages(&self) -> &[SchemeMsg] {
        debug_assert!(self.update, "the update half is off");
        &self.msgs
    }

    /// The query half's legs of the last [`SchemePlane::run`], and one
    /// outcome per arrival.
    pub(crate) fn lookups(&self) -> (&[LookupLeg], &[LookupOutcome]) {
        debug_assert!(self.query, "the query half is off");
        (&self.legs, &self.outcomes)
    }

    /// The `(src, dst)` of every message and leg the last
    /// [`SchemePlane::run`] produced (a half that is off produces none):
    /// every pair a book over this plane reads this tick.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx)> + '_ {
        let msgs = self.msgs.iter().map(WireLeg::ends);
        msgs.chain(self.legs.iter().map(WireLeg::ends))
    }
}

/// The variant half of the update plane: a plane's messages are carried
/// by this book's transport and booked into its ledger one event at a
/// time, under each event's level and φ/γ class. The exposure arithmetic
/// matches [`HandoffLedger::record`] bit-for-bit, so the auditor's
/// ledger-vs-rates exposure check applies unchanged.
pub struct HandoffBook {
    transport: Transport,
    ledger: HandoffLedger,
    /// TRANSFER / REGISTER messages booked so far.
    transfers: u64,
    registrations: u64,
    /// Recycled per-tick scratch: one cost per message.
    costs: Vec<f64>,
}

impl HandoffBook {
    /// An empty book over the transport `cfg.backend` selects, whose
    /// packet shards (if any) run on `workers`.
    pub(crate) fn new(cfg: &SimConfig, workers: &WorkerPool) -> Self {
        HandoffBook {
            transport: Transport::new(cfg, UPDATE_LOSS_STREAM, workers),
            ledger: HandoffLedger::new(),
            transfers: 0,
            registrations: 0,
            costs: Vec::new(),
        }
    }

    /// Carry and book one tick's messages.
    pub(crate) fn book(
        &mut self,
        ctx: &TickCtx<'_>,
        pricer: &mut dyn HopPricer,
        msgs: &[SchemeMsg],
    ) {
        self.transport.carry(ctx, pricer, msgs, &mut self.costs);
        let mut legs = msgs.iter().zip(&self.costs).peekable();
        while let Some((m, &cost)) = legs.next() {
            // A REGISTER riding on this event is summed in before booking.
            let mut packets = cost;
            while let Some((_, &rider)) = legs.next_if(|(next, _)| !next.opens_event()) {
                packets += rider;
            }
            self.ledger.book(m.level as usize, m.class, packets);
        }
        self.ledger.add_exposure(ctx.n, ctx.dt);
        let transfers = msgs.iter().filter(|m| m.kind == MsgKind::Transfer).count() as u64;
        self.transfers += transfers;
        self.registrations += msgs.len() as u64 - transfers;
    }

    /// The ledger so far.
    pub fn ledger(&self) -> &HandoffLedger {
        &self.ledger
    }

    /// Take the accumulated ledger out (engine teardown).
    pub fn take_ledger(&mut self) -> HandoffLedger {
        std::mem::take(&mut self.ledger)
    }

    /// Packet-execution totals, when the transport is a packet network.
    pub fn packet_totals(&self) -> Option<PacketTotals> {
        self.transport.net().map(|net| PacketTotals {
            transfers: self.transfers,
            registrations: self.registrations,
            net,
        })
    }
}

/// The variant half of the query plane: a plane's legs are carried by
/// this book's transport, and every resolved lookup is booked at the sum
/// of its legs, in arrival order. Self-legs cost 0 on both transports, so
/// lossless analytic-vs-packet parity holds leg for leg
/// (`tests/query_parity.rs`).
pub struct QueryBook {
    transport: Transport,
    stats: QueryStats,
    /// Recycled per-tick scratch: one cost per leg.
    costs: Vec<f64>,
}

impl QueryBook {
    /// An empty book over the transport `cfg.backend` selects, whose
    /// packet shards (if any) run on `workers`.
    pub(crate) fn new(cfg: &SimConfig, workers: &WorkerPool) -> Self {
        QueryBook {
            transport: Transport::new(cfg, QUERY_LOSS_STREAM, workers),
            stats: QueryStats::default(),
            costs: Vec::new(),
        }
    }

    /// Carry one tick's legs and book its arrivals' `outcomes`.
    pub(crate) fn book(
        &mut self,
        ctx: &TickCtx<'_>,
        pricer: &mut dyn HopPricer,
        legs: &[LookupLeg],
        outcomes: &[LookupOutcome],
    ) {
        self.transport.carry(ctx, pricer, legs, &mut self.costs);
        let mut costs = self.costs.iter();
        let mut tick_packets = 0.0;
        for outcome in outcomes {
            match outcome {
                Some((level, leg_count)) => {
                    let mut packets = 0.0;
                    for &cost in costs.by_ref().take(*leg_count as usize) {
                        packets += cost;
                    }
                    self.stats.record(*level as usize, packets);
                    tick_packets += packets;
                }
                None => self.stats.unresolved += 1,
            }
        }
        self.stats.arrivals += ctx.query_arrivals.len() as u64;
        self.stats.per_tick_packets.push(tick_packets);
        self.stats.node_seconds += ctx.n as f64 * ctx.dt;
    }

    /// The stats so far.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Take the accumulated stats out (engine teardown).
    pub fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }

    /// Merged packet-network statistics, when the transport is a packet
    /// network.
    pub fn query_net(&self) -> Option<NetworkStats> {
        self.transport.net()
    }
}

/// A standalone slot's plane, and the warmer of its pairs when its book
/// reads BFS distances: rule 4 of [`crate::transport`] for one plane.
struct OwnPlane {
    plane: SchemePlane,
    warmer: Option<PairWarmer>,
}

impl OwnPlane {
    fn new(
        scheme: Box<dyn Scheme>,
        update: bool,
        query: bool,
        cfg: &SimConfig,
        workers: &WorkerPool,
    ) -> Self {
        OwnPlane {
            plane: SchemePlane::new(scheme, update, query),
            warmer: reads_hops(cfg).then(|| PairWarmer::new(workers.clone())),
        }
    }

    /// Run the plane over `ctx` and warm the distances its book will read.
    fn run(&mut self, ctx: &TickCtx<'_>) -> &SchemePlane {
        self.plane.run(ctx);
        if let Some(warmer) = &mut self.warmer {
            warmer.warm(ctx.graph, self.plane.pairs());
        }
        &self.plane
    }
}

/// The standalone update-plane slot: a plane of its own running only the
/// update half, then a [`HandoffBook`].
pub struct HandoffObserver {
    plane: OwnPlane,
    book: HandoffBook,
}

impl HandoffObserver {
    /// `scheme`'s update half, booked over the transport `cfg.backend`
    /// selects.
    pub fn new(scheme: Box<dyn Scheme>, cfg: &SimConfig) -> Self {
        let workers = WorkerPool::new(cfg.threads);
        HandoffObserver {
            plane: OwnPlane::new(scheme, true, false, cfg, &workers),
            book: HandoffBook::new(cfg, &workers),
        }
    }
}

impl Observer for HandoffObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer) {
        let plane = self.plane.run(ctx);
        self.book.book(ctx, pricer, plane.messages());
    }
}

impl HandoffAccounting for HandoffObserver {
    fn ledger(&self) -> &HandoffLedger {
        self.book.ledger()
    }
    fn take_ledger(&mut self) -> HandoffLedger {
        self.book.take_ledger()
    }
    fn packet_totals(&self) -> Option<PacketTotals> {
        self.book.packet_totals()
    }
}

/// Build the standalone handoff-accounting observer `cfg` selects: the
/// scheme picks the plane, the backend picks the book's transport.
pub fn make_accounting(cfg: &SimConfig) -> Box<dyn HandoffAccounting> {
    Box::new(HandoffObserver::new(make_scheme(cfg), cfg))
}

/// The standalone query-plane slot: a plane of its own running only the
/// query half, then a [`QueryBook`].
pub struct QueryObserver {
    plane: OwnPlane,
    book: QueryBook,
}

impl QueryObserver {
    /// `scheme`'s query half, booked over the transport `cfg.backend`
    /// selects.
    pub fn new(scheme: Box<dyn Scheme>, cfg: &SimConfig) -> Self {
        let workers = WorkerPool::new(cfg.threads);
        QueryObserver {
            plane: OwnPlane::new(scheme, false, true, cfg, &workers),
            book: QueryBook::new(cfg, &workers),
        }
    }
}

impl Observer for QueryObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer) {
        let (legs, outcomes) = self.plane.run(ctx).lookups();
        self.book.book(ctx, pricer, legs, outcomes);
    }
}

impl QueryAccounting for QueryObserver {
    fn stats(&self) -> &QueryStats {
        self.book.stats()
    }
    fn take_stats(&mut self) -> QueryStats {
        self.book.take_stats()
    }
    fn query_net(&self) -> Option<NetworkStats> {
        self.book.query_net()
    }
}

/// Build the standalone query-accounting observer `cfg` selects, or
/// `None` when the query plane is off (`query_rate == 0`).
pub fn make_query_accounting(cfg: &SimConfig) -> Option<Box<dyn QueryAccounting>> {
    if cfg.query_rate <= 0.0 {
        return None;
    }
    Some(Box::new(QueryObserver::new(make_scheme(cfg), cfg)))
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
        let mut w = HomeAgentScheme::new();
        let mut out = Vec::new();
        let tick = ctx(0, &old, &new, &changes);
        w.advance(&tick);
        w.messages(&tick, &mut out);
        // Only the level-1 change produces a message; the level-2 one is
        // CHLM-internal structure the home agent does not track.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, 1);
        assert_eq!(out[0].dst, w.home(1));
        assert_ne!(out[0].dst, 1, "home agent must not be the subject");
        assert_eq!(out[0].level, 1);
        assert_eq!(out[0].class, AddrChangeKind::Migration);
        assert_eq!(out[0].kind, MsgKind::Register);
    }

    #[test]
    fn home_agent_assignment_is_stable_across_ticks() {
        let old = line_world();
        let new = line_world();
        let mut w = HomeAgentScheme::new();
        let mut out = Vec::new();
        let mut homes = Vec::new();
        for t in 0..2 {
            let tick = ctx(t, &old, &new, &[]);
            w.advance(&tick);
            w.messages(&tick, &mut out);
            if t == 0 {
                homes = (0..4).map(|v| w.home(v)).collect();
            }
        }
        assert_eq!(homes, (0..4).map(|v| w.home(v)).collect::<Vec<_>>());
        assert!(out.is_empty());
    }

    #[test]
    fn gls_workload_static_world_goes_quiet() {
        // With nobody moving, after the first tick (which seeds anchors
        // and the first table) no transfers and no updates are emitted.
        let cfg = SimConfig::builder(4).duration(1.0).warmup(0.0).build();
        let mut w = GlsScheme::new(&cfg);
        let old = line_world();
        let new = line_world();
        let mut out = Vec::new();
        for t in 0..2 {
            out.clear();
            let tick = ctx(t, &old, &new, &[]);
            w.advance(&tick);
            w.messages(&tick, &mut out);
        }
        assert!(out.is_empty(), "static world still emitted {out:?}");
    }

    #[test]
    fn handoff_observer_books_messages() {
        struct OneMsg;
        impl Scheme for OneMsg {
            fn advance(&mut self, _ctx: &TickCtx<'_>) {}
            fn messages(&mut self, _ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
                out.push(SchemeMsg {
                    subject: 0,
                    src: 0,
                    dst: 3,
                    level: 2,
                    class: AddrChangeKind::Migration,
                    kind: MsgKind::Register,
                });
            }
            fn resolve(
                &self,
                _ctx: &TickCtx<'_>,
                _requester: NodeIdx,
                _target: NodeIdx,
                _legs: &mut Vec<LookupLeg>,
            ) -> Option<u16> {
                None
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
        let cfg = SimConfig::builder(4).duration(1.0).warmup(0.0).build();
        let mut obs = HandoffObserver::new(Box::new(OneMsg), &cfg);
        obs.on_tick(&ctx(0, &old, &new, &[]), &mut ConstPricer(3.0));
        obs.on_tick(&ctx(1, &old, &new, &[]), &mut ConstPricer(3.0));
        let ledger = obs.ledger();
        assert_eq!(ledger.per_level[2].migration_events, 2);
        assert!((ledger.per_level[2].migration_packets - 6.0).abs() < 1e-12);
        assert!((ledger.node_seconds - 8.0).abs() < 1e-12);
    }
}
