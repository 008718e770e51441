//! Location-management schemes as workloads.
//!
//! Everything upstream of the accounting slots — mobility, topology,
//! hierarchy, the LM assignment diff — is the *world*, shared by every
//! scheme. A scheme is two pure functions of that world:
//!
//! | [`LmScheme`]  | update plane ([`SchemeWorkload`]) | query plane ([`SchemeLookup`]) |
//! |---------------|-----------------------------------|--------------------------------|
//! | `Chlm`        | [`ChlmWorkload`]                  | [`ChlmLookup`]                 |
//! | `Gls`         | [`GlsSchemeWorkload`]             | [`GlsLookup`]                  |
//! | `HomeAgent`   | [`HomeAgentWorkload`]             | [`HomeAgentLookup`]            |
//!
//! * a [`SchemeWorkload`] maps one tick's [`TickCtx`] to the LM
//!   maintenance messages the scheme sends ([`SchemeMsg`]), in a canonical
//!   order;
//! * a [`SchemeLookup`] maps one lookup arrival (requester, target) to the
//!   route the scheme's resolution protocol takes — CHLM lowest-common-
//!   cluster descent ([`chlm_lm::query::resolve_route`]), GLS band walk to
//!   the order-k grid server ([`chlm_lm::gls::gls_resolve_route`]), or the
//!   home-agent detour requester → home → target — as a list of
//!   [`LookupLeg`]s plus the resolution level.
//!
//! What a message or a leg *costs* is the backend's business, and the
//! backend is a [`Transport`] (analytic pricing or packet execution; see
//! [`crate::transport`]). The two accounting observers are the same code
//! for every scheme × backend pair:
//!
//! * [`HandoffObserver`] — workload → transport → [`HandoffLedger::book`],
//!   one `book` per event, a two-leg event's costs summed first;
//! * [`QueryObserver`] — lookup → transport → `QueryStats::record`, one
//!   `record` per resolved arrival.
//!
//! [`make_accounting`] / [`make_query_accounting`] pick the workload or
//! lookup by scheme and let [`Transport`] pick itself by backend.
//!
//! Determinism: workloads and lookups are pure functions of the trace (no
//! RNG, no wall clock), message order is canonical (diff order; subjects
//! ascending, bands ascending within a subject), and packet execution
//! follows the three rules in [`crate::transport`], so every scheme
//! inherits the engine's bit-for-bit reproducibility and thread-invariance
//! contracts.

use crate::config::{LmScheme, SimConfig};
use crate::cost::HopPricer;
use crate::observe::{HandoffAccounting, Observer, QueryAccounting};
use crate::report::QueryStats;
use crate::stage::TickCtx;
use crate::transport::{PacketTotals, Transport, WireLeg, QUERY_LOSS_STREAM, UPDATE_LOSS_STREAM};
use chlm_cluster::address::AddrChangeKind;
use chlm_cluster::Hierarchy;
use chlm_geom::{Disk, Point, Rect};
use chlm_graph::NodeIdx;
use chlm_lm::gls::{gls_resolve_route, GlsIncremental, GlsSelect, GridHierarchy, NO_SERVER};
use chlm_lm::handoff::{for_each_handoff, HandoffLedger};
use chlm_lm::hash::hrw_select;
use chlm_lm::query::resolve_route;
use chlm_lm::server::LmAssignment;
use chlm_proto::message::{LmMessage, Packet};
use chlm_proto::network::NetworkStats;

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

/// What a [`SchemeMsg`] is on the wire, and how it is booked.
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
    /// Wire message type and booking rule.
    pub kind: MsgKind,
}

impl WireLeg for SchemeMsg {
    fn wire(&self) -> Packet {
        let (subject, level) = (self.subject, self.level);
        Packet {
            src: self.src,
            dst: self.dst,
            msg: match self.kind {
                MsgKind::Transfer => LmMessage::Transfer { subject, level },
                MsgKind::Register | MsgKind::RegisterWithTransfer => {
                    LmMessage::Register { subject, level }
                }
            },
            sent_at: 0.0,
        }
    }

    fn opens_event(&self) -> bool {
        self.kind != MsgKind::RegisterWithTransfer
    }
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

/// The paper's scheme: every LM entry whose server changed is TRANSFERred
/// old server → new server, and a subject whose own level-k address
/// changed also REGISTERs with the new server — the message set and its
/// φ/γ cascade attribution are [`chlm_lm::handoff::for_each_handoff`]'s,
/// in assignment-diff order.
pub struct ChlmWorkload;

impl SchemeWorkload for ChlmWorkload {
    fn name(&self) -> &'static str {
        "chlm"
    }

    fn messages(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<SchemeMsg>) {
        for_each_handoff(
            ctx.host_changes,
            ctx.addr_changes,
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
}

/// The update-plane accounting of every scheme × backend pair: the
/// workload's messages are carried by the transport and booked into the
/// ledger one event at a time, under each event's level and φ/γ class.
/// The exposure arithmetic matches [`HandoffLedger::record`] bit-for-bit,
/// so the auditor's ledger-vs-rates exposure check applies unchanged.
pub struct HandoffObserver {
    workload: Box<dyn SchemeWorkload>,
    transport: Transport,
    ledger: HandoffLedger,
    /// TRANSFER / REGISTER messages emitted so far.
    transfers: u64,
    registrations: u64,
    // Recycled per-tick scratch: the messages and their costs.
    msgs: Vec<SchemeMsg>,
    costs: Vec<f64>,
}

impl HandoffObserver {
    /// `workload` accounted over the transport `cfg.backend` selects.
    pub fn new(workload: Box<dyn SchemeWorkload>, cfg: &SimConfig) -> Self {
        HandoffObserver {
            workload,
            transport: Transport::new(cfg, UPDATE_LOSS_STREAM),
            ledger: HandoffLedger::new(),
            transfers: 0,
            registrations: 0,
            msgs: Vec::new(),
            costs: Vec::new(),
        }
    }
}

impl Observer for HandoffObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer) {
        self.msgs.clear();
        self.workload.messages(ctx, &mut self.msgs);
        self.transport
            .carry(ctx, pricer, &self.msgs, &mut self.costs);
        let mut legs = self.msgs.iter().zip(&self.costs).peekable();
        while let Some((m, &cost)) = legs.next() {
            // A REGISTER riding on this event is summed in before booking.
            let mut packets = cost;
            while let Some((_, &rider)) = legs.next_if(|(next, _)| !next.opens_event()) {
                packets += rider;
            }
            self.ledger.book(m.level as usize, m.class, packets);
        }
        self.ledger.add_exposure(ctx.n, ctx.dt);
        let transfers = self
            .msgs
            .iter()
            .filter(|m| m.kind == MsgKind::Transfer)
            .count() as u64;
        self.transfers += transfers;
        self.registrations += self.msgs.len() as u64 - transfers;
    }
}

impl HandoffAccounting for HandoffObserver {
    fn ledger(&self) -> &HandoffLedger {
        &self.ledger
    }
    fn take_ledger(&mut self) -> HandoffLedger {
        std::mem::take(&mut self.ledger)
    }
    fn packet_totals(&self) -> Option<PacketTotals> {
        self.transport.net().map(|net| PacketTotals {
            transfers: self.transfers,
            registrations: self.registrations,
            net,
        })
    }
}

/// Build the handoff-accounting observer `cfg` selects: the scheme picks
/// the workload, the backend picks the transport.
pub fn make_accounting(cfg: &SimConfig) -> Box<dyn HandoffAccounting> {
    let workload: Box<dyn SchemeWorkload> = match cfg.lm_scheme {
        LmScheme::Chlm => Box::new(ChlmWorkload),
        LmScheme::Gls => Box::new(GlsSchemeWorkload::new(cfg)),
        LmScheme::HomeAgent => Box::new(HomeAgentWorkload::new()),
    };
    Box::new(HandoffObserver::new(workload, cfg))
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

impl WireLeg for LookupLeg {
    fn wire(&self) -> Packet {
        let msg = if self.reply {
            LmMessage::Reply {
                requester: self.dst,
                target: self.src,
            }
        } else {
            LmMessage::Query {
                requester: self.src,
                target: self.dst,
            }
        };
        Packet {
            src: self.src,
            dst: self.dst,
            msg,
            sent_at: 0.0,
        }
    }

    /// Lookup legs shard one by one.
    fn opens_event(&self) -> bool {
        true
    }
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

/// The query-plane accounting of every scheme × backend pair: each
/// arrival in `ctx.query_arrivals` is routed by the [`SchemeLookup`], the
/// tick's legs are carried by the transport, and every resolved lookup is
/// booked at the sum of its legs, in arrival order. Self-legs cost 0 on
/// both transports, so lossless analytic-vs-packet parity holds leg for
/// leg (`tests/query_parity.rs`).
pub struct QueryObserver {
    lookup: Box<dyn SchemeLookup>,
    transport: Transport,
    stats: QueryStats,
    // Recycled per-tick scratch.
    legs: Vec<LookupLeg>,
    /// Per arrival: resolution level and leg count, or `None` (no route).
    outcomes: Vec<Option<(u16, u32)>>,
    costs: Vec<f64>,
}

impl QueryObserver {
    /// `lookup` accounted over the transport `cfg.backend` selects.
    pub fn new(lookup: Box<dyn SchemeLookup>, cfg: &SimConfig) -> Self {
        QueryObserver {
            lookup,
            transport: Transport::new(cfg, QUERY_LOSS_STREAM),
            stats: QueryStats::default(),
            legs: Vec::new(),
            outcomes: Vec::new(),
            costs: Vec::new(),
        }
    }
}

impl Observer for QueryObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, pricer: &mut dyn HopPricer) {
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
        self.transport
            .carry(ctx, pricer, &self.legs, &mut self.costs);
        let mut costs = self.costs.iter();
        let mut tick_packets = 0.0;
        for outcome in &self.outcomes {
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
}

impl QueryAccounting for QueryObserver {
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
    fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }
    fn query_net(&self) -> Option<NetworkStats> {
        self.transport.net()
    }
}

/// Build the query-accounting observer `cfg` selects, or `None` when the
/// query plane is off (`query_rate == 0`).
pub fn make_query_accounting(cfg: &SimConfig) -> Option<Box<dyn QueryAccounting>> {
    if cfg.query_rate <= 0.0 {
        return None;
    }
    Some(Box::new(QueryObserver::new(make_lookup(cfg), cfg)))
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
        assert_eq!(out[0].kind, MsgKind::Register);
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
    fn handoff_observer_books_messages() {
        struct OneMsg;
        impl SchemeWorkload for OneMsg {
            fn name(&self) -> &'static str {
                "one-msg"
            }
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
