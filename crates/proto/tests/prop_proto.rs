//! Property-based tests for the packet network: conservation and
//! shortest-path pricing on arbitrary graphs.

use chlm_graph::traversal::{bfs_distances, UNREACHABLE};
use chlm_graph::{Graph, NodeIdx};
use chlm_proto::network::PacketNetwork;
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeIdx, 0..n as NodeIdx), 0..4 * n).prop_map(
            move |pairs| {
                let edges: Vec<_> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_exact_pricing(
        g in arb_graph(30),
        pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..40),
    ) {
        let n = g.node_count() as u32;
        let mut net = PacketNetwork::new(0.001);
        let mut expected_tx = 0u64;
        let mut expected_delivered = 0u64;
        let mut expected_dropped = 0u64;
        let mut sent = 0u64;
        for (s, t) in pairs {
            let (s, t) = (s % n, t % n);
            net.send(&g, s, t);
            sent += 1;
            if s == t {
                expected_delivered += 1;
            } else {
                let d = bfs_distances(&g, s)[t as usize];
                if d == UNREACHABLE {
                    expected_dropped += 1;
                } else {
                    expected_delivered += 1;
                    expected_tx += d as u64;
                }
            }
        }
        let stats = net.run();
        prop_assert_eq!(stats.sent, sent);
        prop_assert_eq!(stats.delivered, expected_delivered);
        prop_assert_eq!(stats.dropped, expected_dropped);
        prop_assert_eq!(stats.transmissions, expected_tx);
        prop_assert_eq!(stats.delivered + stats.dropped, stats.sent);
    }

    #[test]
    fn latency_equals_hops_times_delay(g in arb_graph(25), delay in 0.0005f64..0.05) {
        let n = g.node_count() as u32;
        let mut net = PacketNetwork::new(delay);
        let d0 = bfs_distances(&g, 0);
        let (mut sent, mut sum, mut max) = (0u64, 0.0f64, 0.0f64);
        for t in 1..n {
            if d0[t as usize] != UNREACHABLE {
                net.send(&g, 0, t);
                let latency = d0[t as usize] as f64 * delay;
                sent += 1;
                sum += latency;
                max = max.max(latency);
            }
        }
        let stats = net.run();
        prop_assert_eq!(stats.delivered, sent);
        let tolerance = 1e-9 * sent.max(1) as f64;
        prop_assert!((stats.total_latency - sum).abs() < tolerance);
        prop_assert!((stats.max_latency - max).abs() < 1e-9);
    }
}
