//! Network generators shared by the routing test files.

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::{Graph, NodeIdx};
use proptest::prelude::*;

/// Uniform unit-disk deployment at the simulator's density and degree.
pub fn random_network(n: usize, seed: u64, opts: HierarchyOptions) -> Hierarchy {
    let density = 1.25;
    let rtx = chlm_geom::rtx_for_degree(9.0, density);
    let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
    let mut rng = SimRng::seed_from(seed);
    let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
    let g = build_unit_disk(&pts, rtx);
    let ids = rng.permutation(n);
    Hierarchy::build(&ids, &g, opts)
}

/// Arbitrary graphs on `2..max_n` nodes — disconnected and edgeless ones
/// included.
pub fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeIdx, 0..n as NodeIdx), n..4 * n).prop_map(
            move |pairs| {
                let edges: Vec<_> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            },
        )
    })
}
