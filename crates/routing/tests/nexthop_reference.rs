//! `NextHopTable` against the builder it replaced.
//!
//! [`reference_tables`] is the previous `NextHopTable::build` body, kept
//! verbatim (hash maps swapped for `BTreeMap`s): one whole-graph BFS per
//! node for the level-0 entries, one `n`-wide confined BFS plus an
//! `n`-wide install scan per cluster. The flat, scope-confined table must
//! hold exactly the same entries and walk exactly the same routes.

mod common;

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::SimRng;
use chlm_graph::traversal::{bfs_distances, UNREACHABLE};
use chlm_graph::{Graph, NodeIdx};
use chlm_routing::nexthop::NextHopTable;
use common::{arb_graph, random_network};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

type RefTables = Vec<BTreeMap<(u16, NodeIdx), NodeIdx>>;

fn reference_tables(h: &Hierarchy) -> RefTables {
    let n = h.node_count();
    let g0 = &h.levels[0].graph;
    let addresses = h.addresses();
    let mut tables: RefTables = vec![BTreeMap::new(); n];

    // For every cluster (level k ≥ 1, head H): gradient next hops toward
    // the cluster's level-0 member set, installed at the nodes that need
    // an entry for it (members of the parent cluster outside H's).
    for k in 1..h.depth() {
        // Member sets at level k, grouped by head.
        let mut members: BTreeMap<NodeIdx, Vec<NodeIdx>> = BTreeMap::new();
        for v in 0..n as NodeIdx {
            members.entry(addresses[v as usize][k]).or_default().push(v);
        }
        for (&head, mem) in &members {
            // The parent of cluster (k, head) is the head's *vote at
            // level k* — NOT the head's own level-0 address chain (a
            // head need not be a member of its own cluster; cf. the
            // paper's node 68).
            let parent = if k + 1 < h.depth() {
                let level = &h.levels[k];
                level.local(head).map(|local| level.head_of(local))
            } else {
                None // top level: no parent
            };
            // Multi-source BFS from the member set, CONFINED to the
            // parent cluster's membership.
            let in_scope = |v: NodeIdx| -> bool {
                match parent {
                    Some(p) => addresses[v as usize].get(k + 1) == Some(&p),
                    None => true, // top level: whole graph
                }
            };
            let mut dist = vec![UNREACHABLE; n];
            let mut next = vec![NodeIdx::MAX; n];
            let mut q = VecDeque::new();
            for &s in mem {
                dist[s as usize] = 0;
                q.push_back(s);
            }
            while let Some(u) = q.pop_front() {
                for &v in g0.neighbors(u) {
                    if dist[v as usize] == UNREACHABLE && in_scope(v) {
                        dist[v as usize] = dist[u as usize] + 1;
                        next[v as usize] = u;
                        q.push_back(v);
                    }
                }
            }
            // Install entries at nodes in the same level-(k+1) cluster
            // but a different level-k cluster (the siblings that §2.1
            // says keep an entry for this cluster). For the top level,
            // everyone connected keeps an entry.
            for u in 0..n as NodeIdx {
                let au = &addresses[u as usize];
                if au[k] == head {
                    continue; // own cluster: routed at a lower level
                }
                let same_parent = match (au.get(k + 1), parent) {
                    (Some(&p), Some(cluster_parent)) => p == cluster_parent,
                    _ => k + 1 >= h.depth(),
                };
                if same_parent && next[u as usize] != NodeIdx::MAX {
                    tables[u as usize].insert((k as u16, head), next[u as usize]);
                }
            }
        }
    }
    // Level-0 entries: routes to every member of the node's level-1
    // cluster (complete intra-cluster knowledge).
    if h.depth() >= 2 {
        let mut members1: BTreeMap<NodeIdx, Vec<NodeIdx>> = BTreeMap::new();
        for v in 0..n as NodeIdx {
            members1
                .entry(addresses[v as usize][1])
                .or_default()
                .push(v);
        }
        for mem in members1.values() {
            for &dst in mem {
                let dist = bfs_distances(g0, dst);
                for &u in mem {
                    if u == dst {
                        continue;
                    }
                    // First hop from u toward dst: any neighbor one step
                    // closer.
                    if dist[u as usize] == UNREACHABLE {
                        continue;
                    }
                    let hop = g0
                        .neighbors(u)
                        .iter()
                        .copied()
                        .find(|&w| dist[w as usize] + 1 == dist[u as usize]);
                    if let Some(hop) = hop {
                        tables[u as usize].insert((0, dst), hop);
                    }
                }
            }
        }
    }
    tables
}

/// The previous `route_hops`: a walk over the reference maps. The tables
/// can loop (a level-0 entry may step out of the level-1 cluster, whose
/// gradient leads back in); the hop cap turns that into "no route".
fn reference_route_hops(
    tables: &RefTables,
    addresses: &[Vec<NodeIdx>],
    s: NodeIdx,
    t: NodeIdx,
) -> Option<u32> {
    let addr_t = &addresses[t as usize];
    let mut cur = s;
    let mut hops = 0u32;
    while cur != t {
        let addr_c = &addresses[cur as usize];
        let common = (0..addr_t.len()).find(|&k| addr_c[k] == addr_t[k])?;
        let key = if common == 1 {
            (0u16, t)
        } else {
            ((common - 1) as u16, addr_t[common - 1])
        };
        cur = *tables[cur as usize].get(&key)?;
        hops += 1;
        if hops as usize > 4 * tables.len() + 16 {
            return None;
        }
    }
    Some(hops)
}

/// Same entry set, same routes: every pair when `n ≤ 60`, else 2 000
/// sampled ones.
fn assert_matches_reference(h: &Hierarchy, pair_seed: u64) {
    let n = h.node_count();
    let table = NextHopTable::build(h);
    let reference = reference_tables(h);
    for u in 0..n as NodeIdx {
        for (&(level, head), &next) in &reference[u as usize] {
            assert_eq!(
                table.debug_lookup(h, u, level, head),
                Some(next),
                "entry ({level}, {head}) at node {u}"
            );
        }
        assert_eq!(
            table.entries(h, u),
            reference[u as usize].len(),
            "entry count at node {u}"
        );
    }
    let addresses = h.addresses();
    let check = |s: NodeIdx, t: NodeIdx| {
        assert_eq!(
            table.route_hops(s, t),
            reference_route_hops(&reference, &addresses, s, t),
            "route {s} -> {t}"
        );
    };
    if n <= 60 {
        for s in 0..n as NodeIdx {
            for t in 0..n as NodeIdx {
                check(s, t);
            }
        }
    } else {
        let mut rng = SimRng::seed_from(pair_seed);
        for _ in 0..2000 {
            check(rng.index(n) as NodeIdx, rng.index(n) as NodeIdx);
        }
    }
}

/// Default options, and the simulator's `min_reduction` (which can stop
/// the recursion with several top-level clusters).
fn both_options() -> [HierarchyOptions; 2] {
    [
        HierarchyOptions::default(),
        HierarchyOptions {
            min_reduction: 1.25,
            ..HierarchyOptions::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_reference_on_arbitrary_graphs(g in arb_graph(40), seed in 0u64..300) {
        let ids = SimRng::seed_from(seed).permutation(g.node_count());
        for opts in both_options() {
            assert_matches_reference(&Hierarchy::build(&ids, &g, opts), seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn matches_reference_on_unit_disk_networks(seed in 0u64..10_000) {
        for n in [60, 200, 400] {
            for opts in both_options() {
                assert_matches_reference(&random_network(n, seed, opts), seed ^ 0x5eed);
            }
        }
    }
}

/// A rebuilt table is the table built fresh: nothing of the previous
/// snapshot (a larger one, then a smaller one) survives in the buffers.
#[test]
fn rebuild_in_place_equals_fresh_build() {
    let mut table = NextHopTable::default();
    let empty = Hierarchy::build(&[], &Graph::with_nodes(0), HierarchyOptions::default());
    let snapshots = [(200, 1), (60, 2), (300, 3)]
        .map(|(n, seed)| random_network(n, seed, both_options()[1]))
        .into_iter()
        .chain([empty]);
    for h in snapshots {
        let n = h.node_count();
        table.rebuild(&h);
        let fresh = NextHopTable::build(&h);
        for s in 0..n as NodeIdx {
            assert_eq!(table.entries(&h, s), fresh.entries(&h, s));
            for t in 0..n as NodeIdx {
                assert_eq!(table.route_hops(s, t), fresh.route_hops(s, t));
            }
        }
    }
}

/// Off the diagonal a route is either absent or a walk along edges that
/// ends at `t`; on it, zero hops.
fn assert_routes_sane(g: &Graph, ids: &[u64]) {
    for opts in both_options() {
        let h = Hierarchy::build(ids, g, opts);
        let table = NextHopTable::build(&h);
        assert_matches_reference(&h, 0);
        for s in 0..g.node_count() as NodeIdx {
            for t in 0..g.node_count() as NodeIdx {
                match (table.route_hops(s, t), table.route(&h, s, t)) {
                    (Some(hops), Some(out)) => {
                        assert_eq!(hops, out.hops);
                        assert_eq!(hops == 0, s == t);
                        assert_eq!((out.path[0], out.path[hops as usize]), (s, t));
                        assert!(out.path.windows(2).all(|w| g.has_edge(w[0], w[1])));
                    }
                    (None, None) => assert_ne!(s, t),
                    (a, b) => panic!("{s} -> {t}: route_hops {a:?}, route {b:?}"),
                }
            }
        }
    }
}

#[test]
fn degenerate_graphs_never_panic() {
    // n = 0, 1, 2 (with and without the edge).
    assert_routes_sane(&Graph::with_nodes(0), &[]);
    assert_routes_sane(&Graph::with_nodes(1), &[7]);
    assert_routes_sane(&Graph::with_nodes(2), &[1, 2]);
    assert_routes_sane(&Graph::from_edges(2, &[(0, 1)]), &[2, 1]);
    // Edgeless: depth 1, no cluster above the nodes themselves.
    let ids: Vec<u64> = (0..9).collect();
    assert_routes_sane(&Graph::with_nodes(9), &ids);
    // Two components (a path and a triangle).
    let two = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]);
    assert_routes_sane(&two, &[3, 9, 4, 1, 8, 2, 7]);
}

/// A level-1 cluster can only be split across components by hand: LCA
/// members are adjacent to their head. Cut every edge of a member after
/// the election and the tables built over the mutilated graph must leave
/// it without entries — and still route the others.
#[test]
fn cluster_member_unreachable_from_the_others() {
    let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)]);
    let mut h = Hierarchy::build(&[9, 1, 2, 3, 4], &g, HierarchyOptions::default());
    assert!(h.depth() >= 2);
    let cluster_of_1 = h.address(1).nth(1);
    assert_eq!(cluster_of_1, h.address(2).nth(1), "1 and 2 share a cluster");
    h.levels[0].graph.remove_edge(0, 1);
    let table = NextHopTable::build(&h);
    assert_matches_reference(&h, 0);
    assert_eq!(table.entries(&h, 1), 0);
    for other in [0, 2, 3] {
        assert_eq!(table.route_hops(1, other), None);
        assert_eq!(table.route_hops(other, 1), None);
        assert_eq!(table.route_hops(other, other), Some(0));
    }
    assert_eq!(table.route_hops(2, 3), Some(1));
}

/// `PROPTEST_CASES`, else 48: `ci.sh` runs the edited-graph property at
/// 512.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Edit the level-0 graph after the election: an even `pick` cuts the
/// edge from `u` to one of its neighbours, an odd one links `u` to another
/// node. Cuts put co-members more than two hops apart or out of reach
/// and split scopes internally; links add shortcuts no cluster was
/// elected over.
fn edit_level0(h: &mut Hierarchy, edits: &[(u32, u32)]) {
    let g = &mut h.levels[0].graph;
    let n = g.node_count() as u32;
    for &(u, pick) in edits {
        let u = u % n;
        if pick % 2 == 0 {
            let nbrs = g.neighbors(u);
            if !nbrs.is_empty() {
                let v = nbrs[(pick / 2) as usize % nbrs.len()];
                g.remove_edge(u, v);
            }
        } else {
            let v = (pick / 2) % n;
            if v != u {
                g.add_edge(u, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The fallback path: level-0 rows whose members the destination's
    /// one-hop ring does not decide, and gradients over scopes the edits
    /// left internally disconnected.
    #[test]
    fn matches_reference_after_level0_edits(
        g in arb_graph(40),
        n in 20usize..160,
        seed in 0u64..10_000,
        edits in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..24),
    ) {
        let ids = SimRng::seed_from(seed).permutation(g.node_count());
        for opts in both_options() {
            for mut h in [Hierarchy::build(&ids, &g, opts), random_network(n, seed, opts)] {
                edit_level0(&mut h, &edits);
                assert_matches_reference(&h, seed);
            }
        }
    }
}
