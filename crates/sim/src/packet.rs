//! Packet-executed CHLM handoff accounting.
//!
//! Where the analytic handoff observer *prices* the handoff workload with
//! a hop oracle, [`PacketHandoffObserver`] *executes* it: each tick's
//! TRANSFER/REGISTER stream is sent through [`chlm_proto::PacketNetwork`]'s
//! discrete-event queue over the tick's real topology, and the
//! [`HandoffLedger`] books the transmissions each packet actually used
//! (per-hop delay, optional loss and ARQ included). It is an observer, not
//! an engine: [`crate::scheme::make_accounting`] puts it in the handoff
//! slot when the config's backend is [`crate::config::Backend::Packet`],
//! and everything else — stages, tick loop, the other observers, the
//! auditor, the report schema — is the same code; on a lossless network
//! the two backends agree packet-for-packet (see `tests/parity.rs`).

use crate::cost::HopPricer;
use crate::observe::{HandoffAccounting, Observer};
use crate::stage::TickCtx;
use chlm_lm::handoff::HandoffLedger;
use chlm_par::{split_ranges, WorkerPool};
use chlm_proto::network::{NetworkStats, PacketNetwork};
use chlm_proto::protocol::send_handoff_with;

/// Fixed shard count for each tick's TRANSFER/REGISTER stream. A constant
/// — never the thread count — so the per-shard loss RNG streams and the
/// stats merge order are identical for every pool width, including 1:
/// sharding is always on, parallelism only decides who runs the shards.
pub(crate) const PACKET_SHARDS: usize = 8;

/// Loss-stream seed for one (run seed, tick, shard) cell: mixes the three
/// with distinct odd constants so shards draw independent streams, and
/// depends on nothing that varies with the thread count.
pub(crate) fn shard_loss_seed(seed: u64, tick: u64, shard: u64) -> u64 {
    seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (shard + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Aggregate packet-execution counters over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PacketTotals {
    /// TRANSFER packets sent (one per moved LM entry).
    pub transfers: u64,
    /// REGISTER packets sent (one per subject-side cluster change).
    pub registrations: u64,
    /// Network-level outcome counters summed over every tick.
    pub net: NetworkStats,
}

/// Handoff accounting that executes the workload as packets. The ledger's
/// attribution cascade is unchanged — only the per-entry price differs:
/// instead of an oracle estimate it is the transmission count the packet
/// network measured for that entry's TRANSFER (and REGISTER, when sent).
pub struct PacketHandoffObserver {
    ledger: HandoffLedger,
    hop_delay: f64,
    loss: Option<crate::config::LossSpec>,
    totals: PacketTotals,
    workers: WorkerPool,
    /// Concatenated per-shard per-packet transmission counts, reused
    /// across ticks.
    per_packet: Vec<u32>,
}

impl PacketHandoffObserver {
    pub fn new(hop_delay: f64, loss: Option<crate::config::LossSpec>, threads: usize) -> Self {
        assert!(hop_delay > 0.0 && hop_delay.is_finite());
        PacketHandoffObserver {
            ledger: HandoffLedger::new(),
            hop_delay,
            loss,
            totals: PacketTotals::default(),
            workers: WorkerPool::new(threads),
            per_packet: Vec::new(),
        }
    }
}

impl Observer for PacketHandoffObserver {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        // The tick's stream is cut into PACKET_SHARDS contiguous chunks of
        // the host-change diff; each shard executes its chunk on its own
        // event queue (packets never interact — every packet's path and
        // loss draws are independent of the others), and the shard results
        // are merged in shard order. Concatenating the chunks reproduces
        // the unsharded send order, so the ledger replay below is
        // unchanged.
        let addr_changes = ctx.addr_changes;
        // addr_changes ascends by (node, level) — see HandoffLedger::record
        // — so membership is a binary search on the diff slice itself.
        let changed_at = |node: chlm_graph::NodeIdx, level: u16| {
            addr_changes
                .binary_search_by_key(&(node, level), |c| (c.node, c.level))
                .is_ok()
        };
        let ranges = split_ranges(ctx.host_changes.len(), PACKET_SHARDS);
        let hop_delay = self.hop_delay;
        let loss = self.loss;
        let shards = self.workers.run_indexed(ranges.len(), |shard| {
            let mut net = PacketNetwork::new(ctx.graph, hop_delay);
            if let Some(l) = loss {
                // Independent loss stream per (seed, tick, shard) cell.
                net = net.with_loss(
                    l.prob,
                    l.max_retries,
                    shard_loss_seed(l.seed, ctx.tick as u64, shard as u64),
                );
            }
            let chunk = &ctx.host_changes[ranges[shard].start..ranges[shard].end];
            let (transfers, registrations) = send_handoff_with(&mut net, chunk, changed_at);
            let stats = net.run();
            (
                stats,
                net.into_per_packet_transmissions(),
                transfers,
                registrations,
            )
        });
        self.per_packet.clear();
        let mut stats = NetworkStats::default();
        let (mut transfers, mut registrations) = (0u64, 0u64);
        for (shard_stats, shard_packets, t, r) in shards {
            stats.merge(&shard_stats);
            self.per_packet.extend_from_slice(&shard_packets);
            transfers += t;
            registrations += r;
        }
        // The sharded send order equals the unsharded one, which is exactly
        // the order the ledger's cascade prices entries (TRANSFER per host
        // change, then REGISTER iff the subject's exact (node, level)
        // address changed), so the per-packet transmission counts replay
        // 1:1 into `record`'s hop calls.
        let per_packet = &self.per_packet;
        let mut next = 0usize;
        self.ledger.record(
            ctx.host_changes,
            ctx.addr_changes,
            |_a, _b| {
                let transmissions = per_packet.get(next).copied().unwrap_or(0) as f64;
                next += 1;
                transmissions
            },
            ctx.n,
            ctx.dt,
        );
        debug_assert_eq!(next, per_packet.len(), "packet/ledger streams misaligned");
        self.totals.transfers += transfers;
        self.totals.registrations += registrations;
        self.totals.net.merge(&stats);
    }
}

impl HandoffAccounting for PacketHandoffObserver {
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
