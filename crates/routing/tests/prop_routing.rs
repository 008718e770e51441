//! Property-based tests for hierarchical routing.

mod common;

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::SimRng;
use chlm_graph::traversal::{connected_components, hop_distance};
use chlm_graph::NodeIdx;
use chlm_routing::forward::hierarchical_path;
use chlm_routing::tables::{compare_tables, hierarchical_table_sizes};
use common::arb_graph;
use proptest::prelude::*;

fn random_network(n: usize, seed: u64) -> Hierarchy {
    common::random_network(n, seed, HierarchyOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn routes_exist_iff_connected(g in arb_graph(35), seed in 0u64..300) {
        let mut rng = SimRng::seed_from(seed);
        let ids = rng.permutation(g.node_count());
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let (comp, _) = connected_components(&g);
        for s in 0..g.node_count().min(5) as NodeIdx {
            for t in 0..g.node_count().min(5) as NodeIdx {
                let route = hierarchical_path(&h, s, t);
                prop_assert_eq!(route.is_some(), comp[s as usize] == comp[t as usize]);
                if let Some(out) = route {
                    // Walk validity, endpoints, stretch ≥ 1 and legs bound.
                    prop_assert_eq!(*out.path.first().unwrap(), s);
                    prop_assert_eq!(*out.path.last().unwrap(), t);
                    for w in out.path.windows(2) {
                        prop_assert!(g.has_edge(w[0], w[1]));
                    }
                    prop_assert!(out.stretch >= 1.0 - 1e-12);
                    prop_assert!(out.legs as usize <= h.depth());
                    prop_assert_eq!(Some(out.shortest), hop_distance(&g, s, t));
                }
            }
        }
    }

    #[test]
    fn table_sizes_bounded_by_flat(g in arb_graph(40), seed in 0u64..300) {
        let mut rng = SimRng::seed_from(seed);
        let ids = rng.permutation(g.node_count());
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let cmp = compare_tables(&h);
        for &size in &cmp.hierarchical {
            prop_assert!(size <= cmp.flat);
        }
    }

    #[test]
    fn table_entries_cover_level1_cluster(seed in 0u64..50) {
        // A node's table must at least cover its level-1 cluster peers.
        let h = random_network(120, seed);
        let sizes = hierarchical_table_sizes(&h);
        for v in 0..120u32 {
            let peers = h.members(1, h.address(v).nth(1).unwrap()).len();
            prop_assert!(sizes[v as usize] + 1 >= peers,
                "node {} table {} < cluster size {}", v, sizes[v as usize], peers);
        }
    }
}

#[test]
fn stretch_reasonable_on_realistic_networks() {
    for seed in 0..3 {
        let h = random_network(300, seed);
        let mut rng = SimRng::seed_from(100 + seed);
        let mut total = 0.0;
        let mut count = 0;
        for _ in 0..30 {
            let s = rng.index(300) as NodeIdx;
            let t = rng.index(300) as NodeIdx;
            if let Some(out) = hierarchical_path(&h, s, t) {
                total += out.stretch;
                count += 1;
            }
        }
        assert!(count > 0);
        let mean = total / count as f64;
        assert!(mean < 1.8, "seed {seed}: mean stretch {mean}");
    }
}
