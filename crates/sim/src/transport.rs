//! The backend as a transport.
//!
//! A [`Backend`] decides exactly one thing: how a tick's ordered *legs*
//! (one `src → dst` protocol message each) become packet-transmission
//! counts. [`Transport::Analytic`] asks the lent [`HopPricer`];
//! [`Transport::Packet`] *executes* the legs as packets on
//! [`chlm_proto::PacketNetwork`]s over the tick's real topology — per-hop
//! delay, optional loss and ARQ included — and reports the transmissions
//! each leg actually used. Which legs exist is the scheme's business
//! ([`crate::scheme`]); the two accounting observers there hold one
//! `Transport` each and never look at the backend again. On a lossless
//! connected network the two variants agree leg for leg under BFS pricing
//! (`tests/parity.rs`, `tests/query_parity.rs`).
//!
//! This file owns the only packet executor on the step path. Three rules
//! keep every report, digest and lossy draw independent of who calls it
//! and of the thread count:
//!
//! 1. **Fixed shards.** A tick's legs are cut into `PACKET_SHARDS`
//!    contiguous chunks — a constant, never the thread count — each run on
//!    its own network with its own per-`(seed, tick, shard)` loss stream
//!    (`shard_loss_seed`) and merged in shard order. Packets never
//!    interact, so concatenating the chunks reproduces the unsharded order.
//! 2. **Cuts fall between booked events.** Shards split the tick's
//!    *events* evenly, not its legs: a leg that is booked together with
//!    its predecessor (`WireLeg::opens_event` is `false`) stays in its
//!    predecessor's shard. CHLM therefore shards by host change, GLS and
//!    home-agent by message, the query plane by leg.
//! 3. **One loss stream per plane.** The update and query planes run
//!    shards at the same `(seed, tick, shard)`; each plane's transport is
//!    built with its own stream salt so their draws are uncorrelated.
//!
//! What the shards do *not* own is routing state. A packet reads one
//! distance, `ctx.graph.hop_row(src)[dst]`, from the snapshot's one memo
//! of BFS rows — the entry the BFS pricer reads for the same leg — so the
//! eight shards of a plane, both planes, every bank and the pricer compute
//! the row of a source once between them, which no result can see (a row
//! is a pure function of the graph; see [`chlm_proto::network`]). Hence a
//! fourth rule, about speed only:
//!
//! 4. **Rows are warmed per `carry`.** A transport sees a tick's legs as
//!    one batch and knows which rows they will read: `hop_row(src)` of
//!    every non-self leg, on both arms. So `carry` first hands those roots
//!    — on the analytic arm under [`HopMetric::Bfs`], and on the packet
//!    arm — to [`chlm_graph::Graph::fill_hop_rows`], which computes the
//!    missing ones 64 at a time. One root rule for both arms means a packet
//!    bank fills no row an analytic bank over the same legs would not. An
//!    analytic transport under any other metric asks the graph for
//!    nothing.
//!
//! The executor's networks, with their step and per-packet buffers, and
//! the root buffer are kept across ticks rather than rebuilt per `carry`.

use crate::config::{Backend, HopMetric, LossSpec, SimConfig};
use crate::cost::HopPricer;
use crate::stage::TickCtx;
use chlm_graph::NodeIdx;
use chlm_par::{split_ranges, WorkerPool};
use chlm_proto::message::Packet;
use chlm_proto::network::{NetworkStats, PacketNetwork};

/// Fixed shard count for each tick's packet stream. A constant — never
/// the thread count — so the per-shard loss RNG streams and the stats
/// merge order are identical for every pool width, including 1: sharding
/// is always on, parallelism only decides who runs the shards.
pub(crate) const PACKET_SHARDS: usize = 8;

/// Loss-stream seed for one (run seed, tick, shard) cell: mixes the three
/// with distinct odd constants so shards draw independent streams, and
/// depends on nothing that varies with the thread count.
pub(crate) fn shard_loss_seed(seed: u64, tick: u64, shard: u64) -> u64 {
    seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (shard + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Loss-stream salt of the update (handoff) plane: none — its shards draw
/// from the configured loss seed itself.
pub(crate) const UPDATE_LOSS_STREAM: u64 = 0;

/// Loss-stream salt of the query plane, separating its draws from the
/// update plane's at the same `(seed, tick, shard)`.
pub(crate) const QUERY_LOSS_STREAM: u64 = 0x5155_4552_594C_4F53; // "QUERYLOS"

/// Aggregate packet-execution counters of the update plane over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PacketTotals {
    /// TRANSFER packets sent (one per moved LM entry).
    pub transfers: u64,
    /// REGISTER packets sent (one per subject-side registration/update).
    pub registrations: u64,
    /// Network-level outcome counters summed over every tick.
    pub net: NetworkStats,
}

/// One leg of a tick's workload, as a transport needs to see it.
pub(crate) trait WireLeg: Sync {
    /// The leg as a protocol packet.
    fn wire(&self) -> Packet;
    /// Whether this leg starts a booked event. `false` means its cost is
    /// summed into its predecessor's event, so no packet shard may be cut
    /// in front of it.
    fn opens_event(&self) -> bool;
}

/// How one accounting plane turns legs into transmission counts; see the
/// module docs.
pub enum Transport {
    /// Price each leg with the lent pricer. Holds a row warmer iff that
    /// pricer reads the graph's BFS rows ([`HopMetric::Bfs`]).
    Analytic(Option<RowWarmer>),
    /// Execute each leg as a packet on the tick's topology.
    Packet(PacketExecutor),
}

impl Transport {
    /// The transport `cfg.backend` selects, for the plane whose loss
    /// draws are salted with `loss_stream`.
    pub(crate) fn new(cfg: &SimConfig, loss_stream: u64) -> Self {
        let rows = RowWarmer {
            workers: WorkerPool::new(cfg.threads),
            roots: Vec::new(),
        };
        match cfg.backend {
            Backend::Analytic => {
                Transport::Analytic((cfg.hop_metric == HopMetric::Bfs).then_some(rows))
            }
            Backend::Packet { hop_delay, loss } => {
                let shards = (0..PACKET_SHARDS)
                    .map(|index| {
                        let net = PacketNetwork::new(hop_delay);
                        let net = match loss {
                            Some(l) => net.with_loss(l.prob, l.max_retries, l.seed),
                            None => net,
                        };
                        Shard { index, net }
                    })
                    .collect();
                Transport::Packet(PacketExecutor {
                    loss,
                    loss_stream,
                    rows,
                    shards,
                    net: NetworkStats::default(),
                })
            }
        }
    }

    /// Network counters so far, when this transport runs a packet network.
    pub fn net(&self) -> Option<NetworkStats> {
        match self {
            Transport::Analytic(_) => None,
            Transport::Packet(executor) => Some(executor.net),
        }
    }

    /// Refill `costs` with the transmissions each of `legs` takes on this
    /// tick's snapshot, in leg order. Self-legs cost 0 on both variants;
    /// a packet dropped at a partition costs what it transmitted.
    pub(crate) fn carry<L: WireLeg>(
        &mut self,
        ctx: &TickCtx<'_>,
        pricer: &mut dyn HopPricer,
        legs: &[L],
        costs: &mut Vec<f64>,
    ) {
        costs.clear();
        match self {
            Transport::Analytic(bfs_rows) => {
                if let Some(rows) = bfs_rows {
                    rows.warm(ctx, legs);
                }
                costs.extend(legs.iter().map(|leg| {
                    let p = leg.wire();
                    pricer.hops(p.src, p.dst)
                }));
            }
            Transport::Packet(executor) => {
                executor.rows.warm(ctx, legs);
                executor.execute(ctx, legs, costs);
            }
        }
        debug_assert_eq!(costs.len(), legs.len(), "one cost per leg");
    }
}

/// Rule 4 of the module docs for one transport: the pool rows are
/// computed over, and the root buffer, kept across ticks.
pub struct RowWarmer {
    workers: WorkerPool,
    roots: Vec<NodeIdx>,
}

impl RowWarmer {
    /// Have the graph compute, together, the rows `legs` are about to
    /// read (`src`'s; self-legs read none) and does not hold yet.
    fn warm<L: WireLeg>(&mut self, ctx: &TickCtx<'_>, legs: &[L]) {
        self.roots.clear();
        self.roots.extend(
            legs.iter()
                .map(WireLeg::wire)
                .filter(|p| p.src != p.dst)
                .map(|p| p.src),
        );
        ctx.graph.fill_hop_rows(&self.roots, &self.workers);
    }
}

/// The sharded packet executor behind [`Transport::Packet`].
pub struct PacketExecutor {
    /// The loss settings, whose seed each tick's shard streams derive from.
    loss: Option<LossSpec>,
    /// XORed into the loss seed (rule 3 of the module docs).
    loss_stream: u64,
    /// Rule 4, over the pool the shards run on.
    rows: RowWarmer,
    /// One network per shard, kept with its buffers across ticks.
    shards: Vec<Shard>,
    /// Network counters merged over every tick so far.
    net: NetworkStats,
}

/// A packet shard: its place in the shard order and its network.
struct Shard {
    index: usize,
    net: PacketNetwork,
}

impl PacketExecutor {
    /// Run `legs` through the `PACKET_SHARDS` shard networks and append
    /// each leg's transmission count to `costs`, in leg order.
    fn execute<L: WireLeg>(&mut self, ctx: &TickCtx<'_>, legs: &[L], costs: &mut Vec<f64>) {
        let cuts = shard_cuts(legs);
        let (graph, tick) = (ctx.graph, ctx.tick as u64);
        let (loss, salt) = (self.loss, self.loss_stream);
        self.rows.workers.for_each_mut(&mut self.shards, |shard| {
            let index = shard.index;
            shard
                .net
                .restart(loss.map_or(0, |l| shard_loss_seed(l.seed ^ salt, tick, index as u64)));
            for leg in &legs[cuts[index]..cuts[index + 1]] {
                shard.net.send(graph, leg.wire());
            }
            shard.net.run();
        });
        // Merged per tick first, then into the run totals: the latency
        // sums are floats, so the grouping is part of the pinned results.
        let mut tick_net = NetworkStats::default();
        for shard in &self.shards {
            tick_net.merge(&shard.net.stats());
            costs.extend(
                shard
                    .net
                    .per_packet_transmissions()
                    .iter()
                    .map(|&t| t as f64),
            );
        }
        self.net.merge(&tick_net);
    }
}

/// Where each packet shard starts: shard `s` executes
/// `legs[cuts[s]..cuts[s + 1]]`. The tick's *events* are split as evenly
/// as [`split_ranges`] allows and every leg follows the event it is booked
/// with (rule 2 of the module docs).
fn shard_cuts<L: WireLeg>(legs: &[L]) -> [usize; PACKET_SHARDS + 1] {
    debug_assert!(legs.first().is_none_or(WireLeg::opens_event));
    let events = legs.iter().filter(|leg| leg.opens_event()).count();
    let ranges = split_ranges(events, PACKET_SHARDS);
    // Shards past the last event start (and end) at `legs.len()`.
    let mut cuts = [legs.len(); PACKET_SHARDS + 1];
    let (mut shard, mut event) = (0, 0);
    for (i, leg) in legs.iter().enumerate() {
        if leg.opens_event() {
            while shard < PACKET_SHARDS && ranges[shard].start == event {
                cuts[shard] = i;
                shard += 1;
            }
            event += 1;
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_proto::message::LmMessage;

    struct Leg(bool);

    impl WireLeg for Leg {
        fn wire(&self) -> Packet {
            Packet {
                src: 0,
                dst: 0,
                msg: LmMessage::Register {
                    subject: 0,
                    level: 0,
                },
                sent_at: 0.0,
            }
        }
        fn opens_event(&self) -> bool {
            self.0
        }
    }

    #[test]
    fn cuts_split_events_not_legs() {
        // 9 events, the first three carrying a second leg: 12 legs. Eight
        // shards take 2,1,1,1,1,1,1,1 events; cutting by leg would put the
        // boundary after leg 2 — inside event 1.
        let legs: Vec<Leg> = [
            true, false, true, false, true, false, true, true, true, true, true, true,
        ]
        .map(Leg)
        .into();
        assert_eq!(shard_cuts(&legs), [0, 4, 6, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn fewer_events_than_shards_leaves_trailing_shards_empty() {
        let legs = [Leg(true), Leg(false), Leg(true)];
        assert_eq!(shard_cuts(&legs), [0, 2, 3, 3, 3, 3, 3, 3, 3]);
        let none: [Leg; 0] = [];
        assert_eq!(shard_cuts(&none), [0; PACKET_SHARDS + 1]);
    }
}
