//! Property tests for the query plane's route seams.
//!
//! The simulator prices lookups through [`chlm_lm::query::resolve_route`]
//! (CHLM) and [`chlm_lm::gls::gls_resolve_route`] (GLS); these properties
//! pin the route contracts every backend relies on: CHLM answers at the
//! *true* lowest common cluster with a server inside it, GLS contacts the
//! same band server HRW placed the target's update on, and both routes
//! are pure functions of their inputs (deterministic across calls).

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Point, Region, SimRng};
use chlm_graph::{Graph, NodeIdx};
use chlm_lm::gls::{gls_resolve_route, GlsAssignment, GridHierarchy, NO_SERVER};
use chlm_lm::query::resolve_route;
use chlm_lm::server::{LmAssignment, SelectionRule};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeIdx, 0..n as NodeIdx), n..4 * n).prop_map(
            move |pairs| {
                let edges: Vec<_> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            },
        )
    })
}

fn hierarchy_for(g: &Graph, seed: u64) -> (Hierarchy, LmAssignment) {
    let mut rng = SimRng::seed_from(seed);
    let ids = rng.permutation(g.node_count());
    let h = Hierarchy::build(&ids, g, HierarchyOptions::default());
    let a = LmAssignment::compute(&h, SelectionRule::Hrw);
    (h, a)
}

/// Uniform deployment + grid + assignment for the GLS properties.
fn gls_world(n: usize, seed: u64) -> (GridHierarchy, GlsAssignment, Vec<Point>, Vec<u64>) {
    let mut rng = SimRng::seed_from(seed);
    let radius = chlm_geom::disk_radius_for_density(n, 1.0);
    let region = chlm_geom::Disk::centered(radius);
    let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
    let rtx = chlm_geom::rtx_for_degree(9.0, 1.0);
    let bounds = region.bounding_box();
    let grid = GridHierarchy::covering(chlm_geom::Rect::new(bounds.0, bounds.1), rtx);
    let ids: Vec<u64> = rng.permutation(n).to_vec();
    let a = GlsAssignment::compute(&grid, &pts, &ids);
    (grid, a, pts, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CHLM: `resolve_route` reports the *lowest* level at which the two
    /// addresses agree, bounded by the hierarchy depth, and any server it
    /// names lives inside that common cluster.
    #[test]
    fn chlm_route_is_lowest_common_cluster(g in arb_graph(40), seed in 0u64..500) {
        let (h, a) = hierarchy_for(&g, seed);
        let addrs = h.addresses();
        let n = g.node_count() as NodeIdx;
        for s in 0..n.min(6) {
            for t in 0..n.min(6) {
                let Some(route) = resolve_route(&h, &a, s, t) else { continue };
                prop_assert!(route.level < h.depth());
                // Recompute the lowest common level directly from the
                // materialized address rows.
                let expect = addrs[s as usize]
                    .iter()
                    .zip(&addrs[t as usize])
                    .position(|(x, y)| x == y)
                    .expect("route exists => common level exists");
                prop_assert_eq!(route.level, expect);
                match route.server {
                    None => prop_assert!(route.level <= 1),
                    Some(srv) => {
                        prop_assert!(route.level >= 2);
                        prop_assert_eq!(
                            addrs[srv as usize][route.level],
                            addrs[t as usize][route.level],
                            "server outside the common cluster"
                        );
                    }
                }
            }
        }
    }

    /// CHLM: a lookup costs packets (a request to a server and the reply)
    /// exactly when it resolves above level 1; at level ≤ 1 the route names
    /// no server, so every transport prices it at zero.
    #[test]
    fn chlm_packets_nonnegative(g in arb_graph(40), seed in 0u64..500) {
        let (h, a) = hierarchy_for(&g, seed);
        let n = g.node_count() as NodeIdx;
        for s in 0..n.min(6) {
            for t in 0..n.min(6) {
                let Some(route) = resolve_route(&h, &a, s, t) else { continue };
                prop_assert_eq!(route.server.is_none(), route.level <= 1);
            }
        }
    }

    /// CHLM: routing is a pure function of (hierarchy, assignment, pair) —
    /// repeated calls agree exactly.
    #[test]
    fn chlm_route_deterministic(g in arb_graph(40), seed in 0u64..500) {
        let (h, a) = hierarchy_for(&g, seed);
        let n = g.node_count() as NodeIdx;
        for s in 0..n.min(5) {
            for t in 0..n.min(5) {
                prop_assert_eq!(resolve_route(&h, &a, s, t), resolve_route(&h, &a, s, t));
            }
        }
    }

    /// GLS: the lookup contacts a server HRW placed an update on — the
    /// route's server is always a member of `assignment.servers(target,
    /// band)` for the band covering the shared order, i.e. the lookup and
    /// update planes agree on server placement.
    #[test]
    fn gls_lookup_hits_update_server(n in 24usize..96, seed in 0u64..200) {
        let (grid, a, pts, _ids) = gls_world(n, seed);
        let mut rng = SimRng::seed_from(seed ^ 0xA5A5);
        for _ in 0..12 {
            let s = rng.index(n) as NodeIdx;
            let t = rng.index(n) as NodeIdx;
            let Some(route) = gls_resolve_route(&grid, &a, &pts, s, t) else { continue };
            match route.server {
                None => prop_assert!(route.level <= 1),
                Some(srv) => {
                    prop_assert!(srv != NO_SERVER);
                    prop_assert!(route.level >= 2);
                    let band = route.level - 2;
                    prop_assert!(band < a.band_count());
                    prop_assert!(
                        a.servers(t, band).contains(&srv),
                        "lookup server {} not among the update-plane servers {:?} \
                         of target {} in band {}",
                        srv, a.servers(t, band), t, band
                    );
                }
            }
        }
    }

    /// GLS: routing is deterministic and self-queries are free.
    #[test]
    fn gls_route_deterministic(n in 24usize..96, seed in 0u64..200) {
        let (grid, a, pts, _ids) = gls_world(n, seed);
        let mut rng = SimRng::seed_from(seed ^ 0x5A5A);
        for _ in 0..12 {
            let s = rng.index(n) as NodeIdx;
            let t = rng.index(n) as NodeIdx;
            prop_assert_eq!(
                gls_resolve_route(&grid, &a, &pts, s, t),
                gls_resolve_route(&grid, &a, &pts, s, t)
            );
        }
        let s = rng.index(n) as NodeIdx;
        let route = gls_resolve_route(&grid, &a, &pts, s, s).expect("self-query resolves");
        prop_assert_eq!(route.level, 0);
        prop_assert!(route.server.is_none());
    }
}
