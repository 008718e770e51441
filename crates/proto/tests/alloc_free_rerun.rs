//! Tier-1 pin: a warmed `PacketNetwork` executes traffic without the
//! allocator.
//!
//! The simulator keeps one network per packet shard across ticks and
//! restarts it every tick. After one run has sized its step and
//! per-packet buffers, and with the graph already holding the distance
//! rows the packets read, running the same traffic again — lossless, and
//! lossy with its retransmissions — must make no allocator call at all.
//!
//! One `#[test]` in its own binary, counting only the test's own thread,
//! so nothing the harness does beside it lands in the window.

use chlm_geom::{Disk, SimRng};
use chlm_graph::NodeIdx;
use chlm_proto::network::PacketNetwork;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[test]
fn rerun_on_a_warm_graph_makes_no_allocator_call() {
    // A 300-node unit-disk world with a few islands, and 600 packets
    // between random pairs: self-deliveries, drops at the partition and
    // paths of many hops.
    let mut rng = SimRng::seed_from(3);
    let pts = chlm_geom::region::deploy_uniform(&Disk::centered(10.0), 300, &mut rng);
    let world = chlm_graph::unit_disk::build_unit_disk(&pts, 1.3);
    let random: Vec<(NodeIdx, NodeIdx)> = (0..600)
        .map(|_| (rng.index(300) as NodeIdx, rng.index(300) as NodeIdx))
        .collect();
    // A burst of one-hop packets and one of three hops (plus a drop): the
    // run ends after an odd number of steps, on the buffer that held only
    // the long packet, so the next sends need the other one.
    let path = chlm_graph::Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
    let mut burst = vec![(0, 1); 500];
    burst.extend([(0, 3), (0, 4)]);
    for (graph, traffic) in [(&world, &random), (&path, &burst)] {
        let run = |net: &mut PacketNetwork| {
            net.restart(17);
            for &(src, dst) in traffic {
                net.send(graph, src, dst);
            }
            net.run()
        };
        for (label, mut net) in [
            ("lossless", PacketNetwork::new(0.01)),
            ("lossy", PacketNetwork::new(0.01).with_loss(0.3, 3, 17)),
        ] {
            let warm = run(&mut net);
            assert!(warm.delivered > 0 && warm.dropped > 0, "{label}: {warm:?}");
            let before = counting_alloc::thread_calls();
            let again = run(&mut net);
            let calls = counting_alloc::thread_calls() - before;
            assert_eq!(calls, 0, "{label}: the rerun made {calls} allocator calls");
            assert_eq!(again, warm, "{label}");
        }
    }
    // A reading of zero above would be meaningless without the counter.
    let before = counting_alloc::thread_calls();
    drop(std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert!(
        counting_alloc::thread_calls() > before,
        "the counting allocator saw nothing"
    );
}
