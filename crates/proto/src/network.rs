//! Hop-by-hop packet delivery over the level-0 topology.
//!
//! Packets follow shortest paths; each hop costs one transmission and
//! `hop_delay` seconds. Undeliverable packets (source and destination in
//! different components) are counted as dropped after zero transmissions —
//! matching the analytical ledger, which never prices cross-partition
//! handoff.
//!
//! A network holds no graph and no routing state, and one network serves
//! run after run ([`PacketNetwork::restart`]) on the last run's buffers.
//! Every packet of a run enters at t = 0 and packets never interact, so a
//! run is what a `(time, seq)`-ordered event queue would do (the oracle in
//! `tests/heap_oracle.rs`), done as hop-count arithmetic:
//!
//! - **(i) Two FIFO steps replace the queue.** Every event is scheduled at
//!   its predecessor's time plus `hop_delay`, so all events of hop step j
//!   carry one f64 time — `0.0 + hop_delay`, then `+ hop_delay` per step,
//!   the queue's own additions — and `(time, seq)` order is insertion
//!   order within a step. Two `Vec`s swapped per step reproduce the pop
//!   order, the loss-draw order and the latency sum order exactly.
//! - **(ii) An event carries its remaining hop count, not the node it is
//!   at.** Every shortest path has the same length, so the path taken
//!   cannot reach a result; no next hop is chosen, no neighbour scanned.
//! - **(iii) A packet reads one distance, [`Graph::hops`]`(src, dst)`**,
//!   from the topology's hop store: reachable iff finite. It is the
//!   distance the BFS pricer reads for the same leg.

use chlm_geom::SimRng;
use chlm_graph::traversal::UNREACHABLE;
use chlm_graph::{Graph, NodeIdx};

/// One transmission attempt of one packet, pending in a hop step.
#[derive(Debug, Clone, Copy)]
struct HopEvent {
    /// Hops from the packet to its destination, this one included.
    left: u32,
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

/// A reusable packet executor; see the module docs.
pub struct PacketNetwork {
    hop_delay: f64,
    /// Per-hop loss probability, the retransmission budget per hop and
    /// the stream losses are drawn from.
    loss: Option<(f64, u32, SimRng)>,
    /// The attempts of the hop step being run, in queue order (rule (i)).
    step: Vec<HopEvent>,
    /// The attempts the running step schedules for the next one.
    next: Vec<HopEvent>,
    stats: NetworkStats,
    /// Per-packet transmission counts in send order (failed attempts
    /// included; self-delivered and dropped packets stay at 0).
    per_packet: Vec<u32>,
}

impl PacketNetwork {
    /// Create a network with the given per-hop delay.
    pub fn new(hop_delay: f64) -> Self {
        assert!(hop_delay > 0.0 && hop_delay.is_finite());
        PacketNetwork {
            hop_delay,
            loss: None,
            step: Vec::new(),
            next: Vec::new(),
            stats: NetworkStats::default(),
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

    /// Forget every packet and counter, keeping the buffers, and draw
    /// losses from a fresh stream seeded with `loss_seed` (a lossless
    /// network ignores it): the network then behaves exactly like one
    /// built anew with the same delay and loss settings.
    pub fn restart(&mut self, loss_seed: u64) {
        if let Some((_, _, rng)) = &mut self.loss {
            *rng = SimRng::seed_from(loss_seed);
        }
        self.step.clear();
        // A step holds at most as many events as the one before it, so the
        // sends need the most room: give them the larger buffer.
        if self.step.capacity() < self.next.capacity() {
            std::mem::swap(&mut self.step, &mut self.next);
        }
        self.stats = NetworkStats::default();
        self.per_packet.clear();
    }

    /// Inject a packet `src → dst`; it enters at t = 0 of the next
    /// [`PacketNetwork::run`]. `graph` is the topology it crosses.
    pub fn send(&mut self, graph: &Graph, src: NodeIdx, dst: NodeIdx) {
        self.stats.sent += 1;
        // Every sent packet gets a per-packet slot, in send order — even
        // the free/dropped ones, so callers can zip against their own
        // send sequence.
        let seq = self.per_packet.len();
        self.per_packet.push(0);
        if src == dst {
            // Local delivery: zero transmissions, zero latency.
            self.stats.delivered += 1;
            return;
        }
        let left = graph.hops(src, dst);
        if left == UNREACHABLE {
            self.stats.dropped += 1;
            return;
        }
        self.step.push(HopEvent {
            left,
            attempts: 0,
            seq,
        });
    }

    /// Run until all in-flight packets settle. Returns the final stats.
    pub fn run(&mut self) -> NetworkStats {
        let mut time = 0.0;
        while !self.step.is_empty() {
            time += self.hop_delay;
            for ev in self.step.drain(..) {
                // The event is the *completion* of one transmission
                // attempt over the packet's next hop.
                self.stats.transmissions += 1;
                self.per_packet[ev.seq] += 1;
                if ev.attempts > 0 {
                    self.stats.retransmissions += 1;
                }
                // Lossy medium: the attempt may fail.
                if let Some((p, max_retries, rng)) = &mut self.loss {
                    if rng.unit() < *p {
                        if ev.attempts >= *max_retries {
                            self.stats.lost += 1; // abandoned
                        } else {
                            self.next.push(HopEvent {
                                attempts: ev.attempts + 1,
                                ..ev
                            });
                        }
                        continue;
                    }
                }
                if ev.left == 1 {
                    // Packets enter at t = 0: the latency is the time.
                    self.stats.delivered += 1;
                    self.stats.total_latency += time;
                    self.stats.max_latency = self.stats.max_latency.max(time);
                } else {
                    self.next.push(HopEvent {
                        left: ev.left - 1,
                        attempts: 0,
                        seq: ev.seq,
                    });
                }
            }
            std::mem::swap(&mut self.step, &mut self.next);
        }
        self.stats
    }

    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Transmission counts per sent packet, in send order (failed attempts
    /// included; self-delivered and dropped packets count 0). Call after
    /// [`PacketNetwork::run`].
    pub fn per_packet_transmissions(&self) -> &[u32] {
        &self.per_packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(
            n,
            &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn delivers_along_shortest_path() {
        let g = path_graph(6);
        let mut net = PacketNetwork::new(0.001);
        net.send(&g, 0, 5);
        let stats = net.run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.transmissions, 5);
        assert!((stats.mean_latency() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn self_delivery_free() {
        let g = path_graph(3);
        let mut net = PacketNetwork::new(0.001);
        net.send(&g, 1, 1);
        let stats = net.run();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.transmissions, 0);
        assert_eq!(stats.mean_latency(), 0.0);
    }

    #[test]
    fn unreachable_is_dropped_without_transmissions() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut net = PacketNetwork::new(0.001);
        net.send(&g, 0, 3);
        let stats = net.run();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.transmissions, 0);
    }

    #[test]
    fn many_packets_counted_independently() {
        let g = path_graph(10);
        let mut net = PacketNetwork::new(0.01);
        for i in 0..9u32 {
            net.send(&g, 0, i + 1);
        }
        let stats = net.run();
        assert_eq!(stats.delivered, 9);
        // Σ hops = 1+2+…+9 = 45.
        assert_eq!(stats.transmissions, 45);
        assert!((stats.max_latency - 0.09).abs() < 1e-12);
    }

    #[test]
    fn latency_scales_with_hop_delay() {
        // Same traffic at ten times the per-hop delay: ten times the
        // latency, not one transmission more.
        let g = path_graph(10);
        let run_with = |hop_delay: f64| {
            let mut net = PacketNetwork::new(hop_delay);
            for i in 0..9u32 {
                net.send(&g, i, 9 - i);
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
        let mut net = PacketNetwork::new(0.001);
        net.send(&g, 0, 3);
        let stats = net.run();
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.retransmissions, 0);
    }

    #[test]
    fn loss_inflates_transmissions_by_expected_factor() {
        let g = path_graph(12);
        let run_with = |p: f64| {
            let mut net = PacketNetwork::new(0.001).with_loss(p, 50, 42);
            for _ in 0..80 {
                net.send(&g, 0, 11); // 11 hops each
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
        let mut net = PacketNetwork::new(0.001).with_loss(0.5, 0, 7);
        for _ in 0..60 {
            net.send(&g, 0, 7);
        }
        let stats = net.run();
        assert!(stats.lost > 0, "7-hop paths at 50% loss must lose packets");
        assert_eq!(stats.delivered + stats.lost + stats.dropped, stats.sent);
    }

    #[test]
    fn loss_is_deterministic_in_seed() {
        let g = path_graph(10);
        let run = |seed: u64| {
            let mut net = PacketNetwork::new(0.001).with_loss(0.2, 3, seed);
            for i in 0..40u32 {
                net.send(&g, i % 9, 9);
            }
            net.run()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).transmissions, run(6).transmissions);
    }

    #[test]
    fn per_packet_counts_align_with_send_order() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let mut net = PacketNetwork::new(0.001);
        net.send(&g, 0, 3); // 3 hops
        net.send(&g, 2, 2); // self-delivery: 0
        net.send(&g, 0, 5); // unreachable: 0
        net.send(&g, 1, 3); // 2 hops
        let stats = net.run();
        assert_eq!(net.per_packet_transmissions(), &[3, 0, 0, 2]);
        assert_eq!(stats.transmissions, 5);
    }

    #[test]
    fn per_packet_counts_include_retransmissions() {
        let g = path_graph(10);
        let mut net = PacketNetwork::new(0.001).with_loss(0.3, 50, 11);
        net.send(&g, 0, 9);
        net.send(&g, 0, 9);
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
        let mut a = PacketNetwork::new(0.001);
        a.send(&g, 0, 4);
        let sa = a.run();
        let mut b = PacketNetwork::new(0.001);
        b.send(&g, 0, 2);
        b.send(&g, 3, 4);
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
        let mut net = PacketNetwork::new(0.001);
        let mut expect = 0u64;
        for t in 1..150u32 {
            if d0[t as usize] != UNREACHABLE {
                net.send(&g, 0, t);
                expect += d0[t as usize] as u64;
            }
        }
        let stats = net.run();
        assert_eq!(stats.transmissions, expect);
        assert_eq!(stats.dropped, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// On unit-disk graphs from edgeless (`rtx` small) through split to
        /// connected, what a lossless packet is charged is the length of a
        /// walk along edges that descends the destination row by one a hop
        /// (`bfs_distances(dst)[src]`, though the network read `hops(src, dst)`),
        /// an unreachable one is dropped having used none, and with loss on
        /// every sent packet is still delivered, dropped or lost.
        #[test]
        fn forwarding_descends_the_destination_row(
            seed in 0u64..1000,
            n in 2u32..80,
            rtx in 0.3f64..4.0,
            pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 1..30),
            loss in 0.0f64..0.6,
            retries in 0u32..4,
        ) {
            use chlm_geom::{Disk, SimRng};
            use proptest::{prop_assert, prop_assert_eq};
            let mut rng = SimRng::seed_from(seed);
            let pts = chlm_geom::region::deploy_uniform(&Disk::centered(5.0), n as usize, &mut rng);
            let g = chlm_graph::unit_disk::build_unit_disk(&pts, rtx);
            let pairs: Vec<(NodeIdx, NodeIdx)> =
                pairs.into_iter().map(|(s, t)| (s % n, t % n)).collect();
            let mut clean = PacketNetwork::new(0.001);
            let mut lossy = PacketNetwork::new(0.001).with_loss(loss, retries, seed);
            for &(s, t) in &pairs {
                clean.send(&g, s, t);
                lossy.send(&g, s, t);
            }
            let stats = clean.run();
            let mut unreachable = 0u64;
            for (&(s, t), &used) in pairs.iter().zip(clean.per_packet_transmissions()) {
                let row = chlm_graph::traversal::bfs_distances(&g, t);
                if row[s as usize] == UNREACHABLE {
                    prop_assert_eq!(used, 0);
                    unreachable += 1;
                    continue;
                }
                let (mut at, mut walked) = (s, 0);
                while at != t {
                    let next = g.neighbors(at).iter().copied().find(|&v| row[v as usize] + 1 == row[at as usize]);
                    prop_assert!(next.is_some(), "no neighbour of {} is closer to {}", at, t);
                    at = next.unwrap_or(t);
                    walked += 1;
                }
                prop_assert_eq!(used, walked);
            }
            prop_assert_eq!(stats.dropped, unreachable);
            prop_assert_eq!(stats.lost, 0);
            prop_assert_eq!(stats.sent, stats.delivered + stats.dropped);
            let stats = lossy.run();
            prop_assert_eq!(stats.dropped, unreachable);
            prop_assert_eq!(stats.sent, stats.delivered + stats.dropped + stats.lost);
        }
    }
}
