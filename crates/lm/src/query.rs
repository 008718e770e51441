//! Location query resolution.
//!
//! To open a session with node `t`, a requester `s` must learn `t`'s
//! hierarchical address. CHLM resolves the query inside the *lowest common
//! cluster* of `s` and `t`: `s` walks up its own hierarchy until it reaches
//! a level `k` whose cluster also contains `t`, asks the level-k LM server
//! of `t` there (locatable by the same hash that placed it), and the server
//! answers with `t`'s address. The paper argues (§6) that query cost is
//! `O(hop(s, t))` and is absorbed into the session that follows; the
//! simulator's query plane prices every route on its own transport
//! (experiments E13 and E27).

use crate::server::LmAssignment;
use chlm_cluster::Hierarchy;
use chlm_graph::NodeIdx;

/// The route one lookup takes, before any pricing: the level it resolved
/// at, and which server (if any) has to be contacted. Both resolution
/// code paths return it — CHLM's [`resolve_route`] and GLS's
/// [`crate::gls::gls_resolve_route`] — and a priced lookup is the request
/// `requester → server` plus the reply back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Resolution level: CHLM's lowest common cluster level of requester
    /// and target, GLS's lowest shared grid order (`0` for a self-query).
    pub level: usize,
    /// Server to ask, or `None` when the answer is free (a self-query, or
    /// complete knowledge inside a level-1 cluster / order-1 square).
    pub server: Option<NodeIdx>,
}

/// Route the location query for `target` from `requester`: find the lowest
/// common cluster and the server to ask there. Returns `None` only if the
/// two nodes share no cluster at any level (disconnected components).
pub fn resolve_route(
    h: &Hierarchy,
    assignment: &LmAssignment,
    requester: NodeIdx,
    target: NodeIdx,
) -> Option<Route> {
    // Lowest level whose cluster contains both: walk both clusterhead
    // chains in lockstep (no address materialization).
    let common = h
        .address(requester)
        .zip(h.address(target))
        .position(|(a, b)| a == b)?;
    if common <= 1 {
        // Same node, or same level-1 cluster: complete intra-cluster
        // knowledge, answer is free; the session itself costs hop(s, t).
        return Some(Route {
            level: common,
            server: None,
        });
    }
    // Ask the level-`common` server of the target. If the assignment does
    // not cover that level (degenerate hierarchies), fall back to the
    // target's level-`common` clusterhead, which always knows its members.
    let server = assignment
        .host(target, common)
        // audit: infallible because `common` came from position() over
        // zipped address iterators, so both addresses have > common levels.
        .unwrap_or_else(|| h.address(target).nth(common).expect("level in range"));
    Some(Route {
        level: common,
        server: Some(server),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SelectionRule;
    use chlm_cluster::HierarchyOptions;
    use chlm_geom::SimRng;
    use chlm_graph::traversal::bfs_distances;
    use chlm_graph::unit_disk::build_unit_disk;

    fn random_net(n: usize, seed: u64) -> (Hierarchy, LmAssignment) {
        let mut rng = SimRng::seed_from(seed);
        let radius = chlm_geom::disk_radius_for_density(n, 1.0);
        let region = chlm_geom::Disk::centered(radius);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, chlm_geom::rtx_for_degree(9.0, 1.0));
        let ids = rng.permutation(n);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        (h, a)
    }

    /// Packets a lookup spends under the hop oracle `hop`: request to the
    /// server plus the reply, nothing when the answer is free.
    fn packets(
        route: Route,
        requester: NodeIdx,
        mut hop: impl FnMut(NodeIdx, NodeIdx) -> f64,
    ) -> f64 {
        route.server.map_or(0.0, |server| {
            hop(requester, server) + hop(server, requester)
        })
    }

    #[test]
    fn self_query_is_free() {
        let (h, a) = random_net(100, 1);
        let route = resolve_route(&h, &a, 5, 5).unwrap();
        assert_eq!(route.level, 0);
        assert_eq!(packets(route, 5, |_, _| 1.0), 0.0);
    }

    #[test]
    fn query_resolves_for_connected_pairs() {
        let (h, a) = random_net(200, 2);
        let g0 = &h.levels[0].graph;
        let dist0 = bfs_distances(g0, 0);
        for t in 1..50u32 {
            if dist0[t as usize] == chlm_graph::traversal::UNREACHABLE {
                continue;
            }
            let route = resolve_route(&h, &a, 0, t).expect("connected pair must resolve");
            let cost = packets(route, 0, |x, y| bfs_distances(g0, x)[y as usize] as f64);
            assert!(cost >= 0.0);
            assert!(route.level < h.depth());
        }
    }

    #[test]
    fn server_is_in_common_cluster() {
        let (h, a) = random_net(300, 3);
        let addrs = h.addresses();
        for (s, t) in [(0u32, 200u32), (10, 150), (42, 99)] {
            if let Some(Route {
                level,
                server: Some(server),
            }) = resolve_route(&h, &a, s, t)
            {
                assert!(level >= 2);
                assert_eq!(
                    addrs[server as usize][level], addrs[t as usize][level],
                    "server outside common cluster"
                );
            }
        }
    }

    #[test]
    fn query_cost_comparable_to_session_cost() {
        // §6: query overhead is the same order as hop(s, t). Check the mean
        // ratio is modest on a real topology.
        let (h, a) = random_net(400, 4);
        let g0 = h.levels[0].graph.clone();
        let mut rng = SimRng::seed_from(5);
        let mut pairs = Vec::new();
        for _ in 0..60 {
            pairs.push((rng.index(400) as u32, rng.index(400) as u32));
        }
        let mut ratio_sum = 0.0;
        let mut count = 0;
        for &(s, t) in &pairs {
            if s == t {
                continue;
            }
            let d = bfs_distances(&g0, s);
            if d[t as usize] == chlm_graph::traversal::UNREACHABLE {
                continue;
            }
            let route = resolve_route(&h, &a, s, t).unwrap();
            let cost = packets(route, s, |x, y| bfs_distances(&g0, x)[y as usize] as f64);
            let session = d[t as usize] as f64;
            if session > 0.0 {
                ratio_sum += cost / session;
                count += 1;
            }
        }
        assert!(count > 10);
        let mean_ratio = ratio_sum / count as f64;
        assert!(
            mean_ratio < 6.0,
            "query cost {mean_ratio}x session cost — not absorbed"
        );
    }

    #[test]
    fn disconnected_pairs_unresolvable() {
        // Two isolated nodes never share a cluster.
        let ids = vec![1u64, 2];
        let g = chlm_graph::Graph::with_nodes(2);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        assert!(resolve_route(&h, &a, 0, 1).is_none());
    }
}
