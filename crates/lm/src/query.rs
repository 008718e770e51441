//! Location query resolution.
//!
//! To open a session with node `t`, a requester `s` must learn `t`'s
//! hierarchical address. CHLM resolves the query inside the *lowest common
//! cluster* of `s` and `t`: `s` walks up its own hierarchy until it reaches
//! a level `k` whose cluster also contains `t`, asks the level-k LM server
//! of `t` there (locatable by the same hash that placed it), and the server
//! answers with `t`'s address. The paper argues (§6) that query cost is
//! `O(hop(s, t))` and is absorbed into the session that follows; experiment
//! E13 measures it.

use crate::server::LmAssignment;
use chlm_cluster::Hierarchy;
use chlm_graph::NodeIdx;

/// Result of one resolved query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// Level of the lowest common cluster of requester and target.
    pub common_level: usize,
    /// Server that answered (the target itself when resolved at level ≤ 1).
    pub server: NodeIdx,
    /// Packet transmissions spent: request to the server plus the reply.
    pub packets: f64,
}

/// The route one query takes, before any pricing: which level it resolved
/// at, and which server (if any) has to be contacted. This is the single
/// resolution code path — [`resolve`] and every simulator-side lookup
/// backend (analytic or packet) price exactly this route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRoute {
    /// Level of the lowest common cluster of requester and target.
    pub common_level: usize,
    /// Server to ask, or `None` when the answer is free (resolved at
    /// level ≤ 1: same node or complete intra-cluster knowledge).
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
) -> Option<QueryRoute> {
    // Lowest level whose cluster contains both: walk both clusterhead
    // chains in lockstep (no address materialization).
    let common = h
        .address(requester)
        .zip(h.address(target))
        .position(|(a, b)| a == b)?;
    if common <= 1 {
        // Same node, or same level-1 cluster: complete intra-cluster
        // knowledge, answer is free; the session itself costs hop(s, t).
        return Some(QueryRoute {
            common_level: common,
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
    Some(QueryRoute {
        common_level: common,
        server: Some(server),
    })
}

/// Resolve the location of `target` for `requester`.
///
/// `hop` is the hop-distance oracle. Returns `None` only if the two nodes
/// share no cluster at any level (disconnected components).
pub fn resolve<H: FnMut(NodeIdx, NodeIdx) -> f64>(
    h: &Hierarchy,
    assignment: &LmAssignment,
    requester: NodeIdx,
    target: NodeIdx,
    mut hop: H,
) -> Option<QueryOutcome> {
    let route = resolve_route(h, assignment, requester, target)?;
    Some(match route.server {
        None => QueryOutcome {
            common_level: route.common_level,
            server: target,
            packets: 0.0,
        },
        Some(server) => QueryOutcome {
            common_level: route.common_level,
            server,
            packets: hop(requester, server) + hop(server, requester),
        },
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

    #[test]
    fn self_query_is_free() {
        let (h, a) = random_net(100, 1);
        let q = resolve(&h, &a, 5, 5, |_, _| 1.0).unwrap();
        assert_eq!(q.common_level, 0);
        assert_eq!(q.packets, 0.0);
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
            let q = resolve(&h, &a, 0, t, |x, y| {
                let d = bfs_distances(g0, x);
                d[y as usize] as f64
            });
            let q = q.expect("connected pair must resolve");
            assert!(q.packets >= 0.0);
            assert!(q.common_level < h.depth());
        }
    }

    #[test]
    fn server_is_in_common_cluster() {
        let (h, a) = random_net(300, 3);
        let addrs = h.addresses();
        for (s, t) in [(0u32, 200u32), (10, 150), (42, 99)] {
            if let Some(q) = resolve(&h, &a, s, t, |_, _| 1.0) {
                if q.common_level >= 2 {
                    assert_eq!(
                        addrs[q.server as usize][q.common_level], addrs[t as usize][q.common_level],
                        "server outside common cluster"
                    );
                }
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
            let q = resolve(&h, &a, s, t, |x, y| {
                bfs_distances(&g0, x)[y as usize] as f64
            })
            .unwrap();
            let session = d[t as usize] as f64;
            if session > 0.0 {
                ratio_sum += q.packets / session;
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
        assert!(resolve(&h, &a, 0, 1, |_, _| 1.0).is_none());
    }
}
