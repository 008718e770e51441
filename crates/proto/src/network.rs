//! Hop-by-hop packet forwarding over the level-0 topology.
//!
//! Packets follow shortest paths (next-hop trees computed per destination
//! on demand and cached for the topology snapshot); each hop costs one
//! transmission and `hop_delay` seconds. Undeliverable packets (source and
//! destination in different components) are counted as dropped after zero
//! transmissions — matching the analytical ledger, which never prices
//! cross-partition handoff.

use crate::events::EventQueue;
use crate::message::Packet;
use chlm_geom::SimRng;
use chlm_graph::traversal::UNREACHABLE;
use chlm_graph::{Graph, NodeIdx};
use std::collections::{HashMap, VecDeque};

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

/// Outcome counters of a packet-network run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    /// Packets abandoned after exhausting per-hop retransmissions.
    pub lost: u64,
    /// Total per-hop transmissions (including failed attempts).
    pub transmissions: u64,
    /// Transmissions that were retransmissions of a failed hop.
    pub retransmissions: u64,
    /// Sum of delivery latencies (seconds) over delivered packets.
    pub total_latency: f64,
    /// Maximum delivery latency observed.
    pub max_latency: f64,
}

impl NetworkStats {
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency / self.delivered as f64
        }
    }

    /// Fold another run's counters into this one (counters sum; the
    /// latency maximum is the max of both).
    pub fn merge(&mut self, other: &NetworkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.lost += other.lost;
        self.transmissions += other.transmissions;
        self.retransmissions += other.retransmissions;
        self.total_latency += other.total_latency;
        self.max_latency = self.max_latency.max(other.max_latency);
    }
}

/// A packet network over one topology snapshot.
pub struct PacketNetwork<'a> {
    graph: &'a Graph,
    hop_delay: f64,
    /// Per-hop loss probability and the retransmission budget per hop.
    loss: Option<(f64, u32, SimRng)>,
    /// Per-destination next-hop maps (BFS trees rooted at the destination):
    /// `trees[dst][v]` = next hop from `v` toward `dst`.
    trees: HashMap<NodeIdx, Vec<NodeIdx>>,
    queue: EventQueue<HopEvent>,
    stats: NetworkStats,
    /// Delivered packets, with their delivery times.
    delivered_log: Vec<(Packet, f64)>,
    /// Per-packet transmission counts in send order (failed attempts
    /// included; self-delivered and dropped packets stay at 0).
    per_packet: Vec<u32>,
}

/// Sentinel in next-hop trees for "unreachable / is destination".
const NO_HOP: NodeIdx = NodeIdx::MAX;

impl<'a> PacketNetwork<'a> {
    /// Create a network over `graph` with the given per-hop delay.
    pub fn new(graph: &'a Graph, hop_delay: f64) -> Self {
        assert!(hop_delay > 0.0 && hop_delay.is_finite());
        PacketNetwork {
            graph,
            hop_delay,
            loss: None,
            trees: HashMap::new(),
            queue: EventQueue::new(),
            stats: NetworkStats::default(),
            delivered_log: Vec::new(),
            per_packet: Vec::new(),
        }
    }

    /// Enable per-hop packet loss: each transmission independently fails
    /// with probability `loss_prob`; a failed hop is retried up to
    /// `max_retries` times before the packet is counted `lost`. The
    /// expected transmission inflation is `1 / (1 - p)` per hop —
    /// robustness experiments use this to price the Θ-results under a
    /// lossy radio layer. Deterministic in `seed`.
    pub fn with_loss(mut self, loss_prob: f64, max_retries: u32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&loss_prob));
        self.loss = Some((loss_prob, max_retries, SimRng::seed_from(seed)));
        self
    }

    fn tree_for(&mut self, dst: NodeIdx) -> &Vec<NodeIdx> {
        let graph = self.graph;
        self.trees.entry(dst).or_insert_with(|| {
            // BFS from the destination; parent pointers double as next hops.
            let n = graph.node_count();
            let mut next = vec![NO_HOP; n];
            let mut dist = vec![UNREACHABLE; n];
            let mut q = VecDeque::new();
            dist[dst as usize] = 0;
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                for &v in graph.neighbors(u) {
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = dist[u as usize] + 1;
                        next[v as usize] = u;
                        q.push_back(v);
                    }
                }
            }
            next
        })
    }

    /// Inject a packet at its source at the current simulation time.
    pub fn send(&mut self, mut packet: Packet) {
        packet.sent_at = self.queue.now();
        self.stats.sent += 1;
        // Every sent packet gets a per-packet slot, in send order — even
        // the free/dropped ones, so callers can zip against their own
        // send sequence.
        let seq = self.per_packet.len();
        self.per_packet.push(0);
        if packet.src == packet.dst {
            // Local delivery: zero transmissions, zero latency.
            self.stats.delivered += 1;
            self.delivered_log.push((packet, self.queue.now()));
            return;
        }
        let reachable = self.tree_for(packet.dst)[packet.src as usize] != NO_HOP;
        if !reachable {
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
    pub fn run(&mut self) -> NetworkStats {
        while let Some((time, ev)) = self.queue.pop() {
            // The scheduled event is the *completion* of one transmission
            // attempt from `ev.at` to its next hop.
            let next = self.tree_for(ev.packet.dst)[ev.at as usize];
            debug_assert_ne!(next, NO_HOP, "routed packet lost its path");
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
            if next == ev.packet.dst {
                let latency = time - ev.packet.sent_at;
                self.stats.delivered += 1;
                self.stats.total_latency += latency;
                self.stats.max_latency = self.stats.max_latency.max(latency);
                self.delivered_log.push((ev.packet, time));
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

    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Delivered packets with delivery times, in delivery order.
    pub fn delivered(&self) -> &[(Packet, f64)] {
        &self.delivered_log
    }

    /// Transmission counts per sent packet, in send order (failed attempts
    /// included; self-delivered and dropped packets count 0). Call after
    /// [`PacketNetwork::run`].
    pub fn per_packet_transmissions(&self) -> &[u32] {
        &self.per_packet
    }

    /// Consume the network, handing the per-packet transmission counts
    /// out by move — for callers that merge several networks' streams
    /// (the sim's sharded packet transport).
    pub fn into_per_packet_transmissions(self) -> Vec<u32> {
        self.per_packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::LmMessage;

    fn packet(src: NodeIdx, dst: NodeIdx) -> Packet {
        Packet {
            src,
            dst,
            msg: LmMessage::Register {
                subject: src,
                level: 2,
            },
            sent_at: 0.0,
        }
    }

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(
            n,
            &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn delivers_along_shortest_path() {
        let g = path_graph(6);
        let mut net = PacketNetwork::new(&g, 0.001);
        net.send(packet(0, 5));
        let stats = net.run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.transmissions, 5);
        assert!((stats.mean_latency() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn self_delivery_free() {
        let g = path_graph(3);
        let mut net = PacketNetwork::new(&g, 0.001);
        net.send(packet(1, 1));
        let stats = net.run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.transmissions, 0);
        assert_eq!(stats.mean_latency(), 0.0);
    }

    #[test]
    fn unreachable_is_dropped_without_transmissions() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut net = PacketNetwork::new(&g, 0.001);
        net.send(packet(0, 3));
        let stats = net.run();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.transmissions, 0);
    }

    #[test]
    fn many_packets_counted_independently() {
        let g = path_graph(10);
        let mut net = PacketNetwork::new(&g, 0.01);
        for i in 0..9u32 {
            net.send(packet(0, i + 1));
        }
        let stats = net.run();
        assert_eq!(stats.delivered, 9);
        // Σ hops = 1+2+…+9 = 45.
        assert_eq!(stats.transmissions, 45);
        assert!((stats.max_latency - 0.09).abs() < 1e-12);
        assert_eq!(net.delivered().len(), 9);
    }

    #[test]
    fn latency_scales_with_hop_delay() {
        // Same traffic at ten times the per-hop delay: ten times the
        // latency, not one transmission more.
        let g = path_graph(10);
        let run_with = |hop_delay: f64| {
            let mut net = PacketNetwork::new(&g, hop_delay);
            for i in 0..9u32 {
                net.send(packet(i, 9 - i));
            }
            net.run()
        };
        let (fast, slow) = (run_with(0.001), run_with(0.01));
        assert!(fast.delivered > 0);
        let ratio = slow.mean_latency() / fast.mean_latency();
        assert!((ratio - 10.0).abs() < 1e-6, "ratio {ratio}");
        assert_eq!(fast.transmissions, slow.transmissions);
    }

    #[test]
    fn lossless_by_default() {
        let g = path_graph(4);
        let mut net = PacketNetwork::new(&g, 0.001);
        net.send(packet(0, 3));
        let stats = net.run();
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.retransmissions, 0);
    }

    #[test]
    fn loss_inflates_transmissions_by_expected_factor() {
        let g = path_graph(12);
        let run_with = |p: f64| {
            let mut net = PacketNetwork::new(&g, 0.001).with_loss(p, 50, 42);
            for _ in 0..80 {
                net.send(packet(0, 11)); // 11 hops each
            }
            net.run()
        };
        let clean = run_with(0.0);
        let lossy = run_with(0.3);
        assert_eq!(clean.transmissions, 80 * 11);
        assert_eq!(lossy.delivered, 80, "retries should save every packet");
        let inflation = lossy.transmissions as f64 / clean.transmissions as f64;
        // Expected 1/(1-0.3) ≈ 1.43; allow sampling slack.
        assert!(
            (inflation - 1.0 / 0.7).abs() < 0.15,
            "inflation {inflation}"
        );
        assert!(lossy.retransmissions > 0);
        assert!(lossy.mean_latency() > clean.mean_latency());
    }

    #[test]
    fn zero_retries_drops_under_heavy_loss() {
        let g = path_graph(8);
        let mut net = PacketNetwork::new(&g, 0.001).with_loss(0.5, 0, 7);
        for _ in 0..60 {
            net.send(packet(0, 7));
        }
        let stats = net.run();
        assert!(stats.lost > 0, "7-hop paths at 50% loss must lose packets");
        assert_eq!(stats.delivered + stats.lost + stats.dropped, stats.sent);
    }

    #[test]
    fn loss_is_deterministic_in_seed() {
        let g = path_graph(10);
        let run = |seed: u64| {
            let mut net = PacketNetwork::new(&g, 0.001).with_loss(0.2, 3, seed);
            for i in 0..40u32 {
                net.send(packet(i % 9, 9));
            }
            net.run()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).transmissions, run(6).transmissions);
    }

    #[test]
    fn per_packet_counts_align_with_send_order() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let mut net = PacketNetwork::new(&g, 0.001);
        net.send(packet(0, 3)); // 3 hops
        net.send(packet(2, 2)); // self-delivery: 0
        net.send(packet(0, 5)); // unreachable: 0
        net.send(packet(1, 3)); // 2 hops
        let stats = net.run();
        assert_eq!(net.per_packet_transmissions(), &[3, 0, 0, 2]);
        assert_eq!(stats.transmissions, 5);
    }

    #[test]
    fn per_packet_counts_include_retransmissions() {
        let g = path_graph(10);
        let mut net = PacketNetwork::new(&g, 0.001).with_loss(0.3, 50, 11);
        net.send(packet(0, 9));
        net.send(packet(0, 9));
        let stats = net.run();
        let per = net.per_packet_transmissions();
        assert_eq!(per.len(), 2);
        assert_eq!(
            per.iter().map(|&t| t as u64).sum::<u64>(),
            stats.transmissions
        );
        assert!(per.iter().all(|&t| t >= 9), "9 hops minimum each");
    }

    #[test]
    fn stats_merge_sums_counters() {
        let g = path_graph(5);
        let mut a = PacketNetwork::new(&g, 0.001);
        a.send(packet(0, 4));
        let sa = a.run();
        let mut b = PacketNetwork::new(&g, 0.001);
        b.send(packet(0, 2));
        b.send(packet(3, 4));
        let sb = b.run();
        let mut merged = sa;
        merged.merge(&sb);
        assert_eq!(merged.sent, 3);
        assert_eq!(merged.delivered, 3);
        assert_eq!(merged.transmissions, sa.transmissions + sb.transmissions);
        assert_eq!(merged.max_latency, sa.max_latency.max(sb.max_latency));
    }

    #[test]
    fn transmissions_match_bfs_distance_random_graph() {
        use chlm_geom::{Disk, SimRng};
        use chlm_graph::unit_disk::build_unit_disk;
        let mut rng = SimRng::seed_from(1);
        let region = Disk::centered(12.0);
        let pts = chlm_geom::region::deploy_uniform(&region, 150, &mut rng);
        let g = build_unit_disk(&pts, 2.5);
        let d0 = chlm_graph::traversal::bfs_distances(&g, 0);
        let mut net = PacketNetwork::new(&g, 0.001);
        let mut expect = 0u64;
        for t in 1..150u32 {
            if d0[t as usize] != UNREACHABLE {
                net.send(packet(0, t));
                expect += d0[t as usize] as u64;
            }
        }
        let stats = net.run();
        assert_eq!(stats.transmissions, expect);
        assert_eq!(stats.dropped, 0);
    }
}
