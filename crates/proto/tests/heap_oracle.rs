//! `PacketNetwork` against the event-queue executor it replaced.
//!
//! [`HeapNetwork`] is the previous `PacketNetwork`, kept verbatim but for
//! its name: a `(time, seq)`-ordered [`EventQueue`] of hop events (the
//! crate's own queue, which is private to its asynchronous LCA, copied
//! here), each at a node, forwarded to the first neighbour whose entry in the
//! destination's row is one less. The two-step, hop-count executor must
//! report the same `NetworkStats` — latency sum and maximum to the bit —
//! and the same per-packet transmission counts, built fresh or restarted
//! across graphs and runs.
//!
//! `PROPTEST_CASES` sets the case count (64 by default; CI runs 512).

use chlm_geom::{Disk, SimRng};
use chlm_graph::traversal::UNREACHABLE;
use chlm_graph::{Graph, NodeIdx};
use chlm_proto::network::{NetworkStats, PacketNetwork};
use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled entry, ordered by `(time, seq)`.
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Deterministic min-time event queue: events fire in `(time, seq)`
/// order, `seq` being the insertion sequence number.
struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// The time of the last popped event.
    fn now(&self) -> f64 {
        self.now
    }

    fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite() && time >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, event }));
    }

    fn pop(&mut self) -> Option<(f64, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }
}

/// The oracle's own record of a packet: its endpoints and the time it
/// entered the network.
#[derive(Debug, Clone, Copy)]
struct Packet {
    src: NodeIdx,
    dst: NodeIdx,
    sent_at: f64,
}

/// In-flight hop event.
#[derive(Debug, Clone, Copy)]
struct HopEvent {
    packet: Packet,
    at: NodeIdx,
    /// Failed attempts for the current hop so far.
    attempts: u32,
    /// Send-order index of the packet (slot in `per_packet`).
    seq: usize,
}

/// A packet network over one topology snapshot.
struct HeapNetwork<'a> {
    graph: &'a Graph,
    hop_delay: f64,
    /// Per-hop loss probability and the retransmission budget per hop.
    loss: Option<(f64, u32, SimRng)>,
    queue: EventQueue<HopEvent>,
    stats: NetworkStats,
    /// Per-packet transmission counts in send order (failed attempts
    /// included; self-delivered and dropped packets stay at 0).
    per_packet: Vec<u32>,
}

impl<'a> HeapNetwork<'a> {
    /// Create a network over `graph` with the given per-hop delay.
    fn new(graph: &'a Graph, hop_delay: f64) -> Self {
        assert!(hop_delay > 0.0 && hop_delay.is_finite());
        HeapNetwork {
            graph,
            hop_delay,
            loss: None,
            queue: EventQueue::new(),
            stats: NetworkStats::default(),
            per_packet: Vec::new(),
        }
    }

    /// Enable per-hop packet loss: each transmission independently fails
    /// with probability `loss_prob`; a failed hop is retried up to
    /// `max_retries` times before the packet is counted `lost`.
    fn with_loss(mut self, loss_prob: f64, max_retries: u32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&loss_prob));
        self.loss = Some((loss_prob, max_retries, SimRng::seed_from(seed)));
        self
    }

    /// The neighbour of `at` a packet bound for `dst` is forwarded to: the
    /// first, in sorted adjacency order, one hop closer to `dst`. `at` must
    /// be able to reach `dst` and differ from it.
    fn next_hop(&self, at: NodeIdx, dst: NodeIdx) -> NodeIdx {
        let closer = self.graph.hops(dst, at) - 1;
        self.graph
            .neighbors(at)
            .iter()
            .copied()
            .find(|&v| self.graph.hops(dst, v) == closer)
            .expect("routed packet lost its path")
    }

    /// Inject a packet at its source at the current simulation time.
    fn send(&mut self, mut packet: Packet) {
        packet.sent_at = self.queue.now();
        self.stats.sent += 1;
        let seq = self.per_packet.len();
        self.per_packet.push(0);
        if packet.src == packet.dst {
            // Local delivery: zero transmissions, zero latency.
            self.stats.delivered += 1;
            return;
        }
        if self.graph.hops(packet.dst, packet.src) == UNREACHABLE {
            self.stats.dropped += 1;
            return;
        }
        let at = packet.src;
        let t = self.queue.now() + self.hop_delay;
        self.queue.schedule(
            t,
            HopEvent {
                packet,
                at,
                attempts: 0,
                seq,
            },
        );
    }

    /// Run until all in-flight packets settle. Returns the final stats.
    fn run(&mut self) -> NetworkStats {
        while let Some((time, ev)) = self.queue.pop() {
            // The scheduled event is the *completion* of one transmission
            // attempt from `ev.at` to its next hop.
            self.stats.transmissions += 1;
            self.per_packet[ev.seq] += 1;
            if ev.attempts > 0 {
                self.stats.retransmissions += 1;
            }
            // Lossy medium: the attempt may fail.
            let failed = match &mut self.loss {
                Some((p, max_retries, rng)) => {
                    let dropped = rng.unit() < *p;
                    if dropped {
                        if ev.attempts >= *max_retries {
                            self.stats.lost += 1;
                            continue; // abandoned
                        }
                        self.queue.schedule(
                            time + self.hop_delay,
                            HopEvent {
                                packet: ev.packet,
                                at: ev.at,
                                attempts: ev.attempts + 1,
                                seq: ev.seq,
                            },
                        );
                    }
                    dropped
                }
                None => false,
            };
            if failed {
                continue;
            }
            let next = self.next_hop(ev.at, ev.packet.dst);
            if next == ev.packet.dst {
                let latency = time - ev.packet.sent_at;
                self.stats.delivered += 1;
                self.stats.total_latency += latency;
                self.stats.max_latency = self.stats.max_latency.max(latency);
            } else {
                self.queue.schedule(
                    time + self.hop_delay,
                    HopEvent {
                        packet: ev.packet,
                        at: next,
                        attempts: 0,
                        seq: ev.seq,
                    },
                );
            }
        }
        self.stats
    }
}

/// Case count: `PROPTEST_CASES` if set, else 64.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A unit-disk graph on `n` nodes: edgeless for small `rtx`, split for
/// middling ones, connected for large ones.
fn unit_disk(seed: u64, n: u32, rtx: f64) -> Graph {
    let mut rng = SimRng::seed_from(seed);
    let pts = chlm_geom::region::deploy_uniform(&Disk::centered(5.0), n as usize, &mut rng);
    chlm_graph::unit_disk::build_unit_disk(&pts, rtx)
}

fn packet(src: NodeIdx, dst: NodeIdx) -> Packet {
    Packet {
        src,
        dst,
        sent_at: 0.0,
    }
}

/// `NetworkStats` with the latencies as bit patterns, so `==` is bitwise.
fn bits(s: NetworkStats) -> [u64; 8] {
    [
        s.sent,
        s.delivered,
        s.dropped,
        s.lost,
        s.transmissions,
        s.retransmissions,
        s.total_latency.to_bits(),
        s.max_latency.to_bits(),
    ]
}

/// Per-hop loss probability, retransmission budget and loss seed.
type Loss = Option<(f64, u32, u64)>;

/// The oracle's stats and per-packet counts for `pairs` sent on `g`.
fn heap_run(
    g: &Graph,
    pairs: &[(NodeIdx, NodeIdx)],
    hop_delay: f64,
    loss: Loss,
) -> ([u64; 8], Vec<u32>) {
    let mut net = HeapNetwork::new(g, hop_delay);
    if let Some((p, retries, seed)) = loss {
        net = net.with_loss(p, retries, seed);
    }
    for &(s, t) in pairs {
        net.send(packet(s, t));
    }
    (bits(net.run()), net.per_packet.clone())
}

/// The same traffic on `net`, restarted at the loss seed first.
fn two_step_run(
    net: &mut PacketNetwork,
    g: &Graph,
    pairs: &[(NodeIdx, NodeIdx)],
    loss: Loss,
) -> ([u64; 8], Vec<u32>) {
    net.restart(loss.map_or(0, |(_, _, seed)| seed));
    for &(s, t) in pairs {
        net.send(g, s, t);
    }
    (bits(net.run()), net.per_packet_transmissions().to_vec())
}

/// A network built for one run, as the oracle is.
fn fresh(hop_delay: f64, loss: Loss) -> PacketNetwork {
    let net = PacketNetwork::new(hop_delay);
    match loss {
        Some((p, retries, seed)) => net.with_loss(p, retries, seed),
        None => net,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// One run, lossless and lossy, on a fresh network: the oracle's
    /// counters and per-packet counts exactly.
    #[test]
    fn two_steps_match_the_event_queue(
        (seed, n, rtx) in (0u64..1_000_000, 2u32..80, 0.3f64..4.0),
        pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 1..61),
        loss in 0.0f64..0.6,
        retries in 0u32..5,
        hop_delay in 0.0005f64..0.05,
    ) {
        let g = unit_disk(seed, n, rtx);
        let pairs: Vec<(NodeIdx, NodeIdx)> = pairs.into_iter().map(|(s, t)| (s % n, t % n)).collect();
        for loss in [None, Some((loss, retries, seed ^ 0x1055))] {
            let want = heap_run(&g, &pairs, hop_delay, loss);
            let got = two_step_run(&mut fresh(hop_delay, loss), &g, &pairs, loss);
            prop_assert_eq!(&got, &want, "loss {:?}: {:?} vs {:?}", loss, got, want);
        }
    }

    /// One network restarted across several graphs, each run twice, gives
    /// what a fresh network (and the oracle) gives for every run: nothing
    /// of an earlier run survives in its buffers or its loss stream.
    #[test]
    fn a_restarted_network_matches_fresh_ones(
        worlds in proptest::collection::vec(
            (0u64..1_000_000, 2u32..80, 0.3f64..4.0, proptest::collection::vec((0u32..1000, 0u32..1000), 1..61)),
            2..5,
        ),
        loss in 0.0f64..0.6,
        retries in 0u32..5,
        lossy in 0u32..2,
    ) {
        let hop_delay = 0.01;
        let setting = |seed: u64| (lossy == 1).then_some((loss, retries, seed));
        let mut reused = fresh(hop_delay, setting(0));
        for (seed, n, rtx, pairs) in worlds {
            let g = unit_disk(seed, n, rtx);
            let pairs: Vec<(NodeIdx, NodeIdx)> = pairs.into_iter().map(|(s, t)| (s % n, t % n)).collect();
            for run_seed in [seed, seed + 1] {
                let loss = setting(run_seed);
                let want = two_step_run(&mut fresh(hop_delay, loss), &g, &pairs, loss);
                prop_assert_eq!(&want, &heap_run(&g, &pairs, hop_delay, loss));
                prop_assert_eq!(two_step_run(&mut reused, &g, &pairs, loss), want);
            }
        }
    }
}
