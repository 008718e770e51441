//! Breadth-first search, connected components, and hop-count utilities.
//!
//! Hop counts are the paper's unit of communication cost: a handoff message
//! between two level-0 nodes costs one packet transmission per hop on the
//! level-0 shortest path.

use crate::{Graph, NodeIdx};
use std::collections::VecDeque;

/// Sentinel for "unreachable" in distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS hop distances from `src` to every node (`UNREACHABLE` if disconnected).
pub fn bfs_distances(g: &Graph, src: NodeIdx) -> Vec<u32> {
    let mut dist = Vec::new();
    bfs_distances_into(g, src, &mut dist);
    dist
}

/// [`bfs_distances`] writing into a caller-provided buffer (cleared and
/// resized here), so a distance vector can be reused across calls instead
/// of reallocated.
pub fn bfs_distances_into(g: &Graph, src: NodeIdx, dist: &mut Vec<u32>) {
    dist.clear();
    dist.resize(g.node_count(), UNREACHABLE);
    // Every node enters the queue at most once, so a flat FIFO (write at
    // `tail`, read at `head`) sized for the graph never grows or wraps. The
    // inner loop does not branch on whether `v` is new — on a unit-disk
    // graph that is a coin the predictor loses: the slot at `tail` and
    // `dist[v]` are written on every visit, and only a new `v` moves `tail`
    // and changes `dist[v]`. Hence one slot more than there are nodes.
    let mut queue: Vec<NodeIdx> = vec![0; g.node_count() + 1];
    dist[src as usize] = 0;
    queue[0] = src;
    let (mut head, mut tail) = (0, 1);
    while head < tail {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            let d = dist[v as usize];
            let unseen = d == UNREACHABLE;
            queue[tail] = v;
            tail += unseen as usize;
            dist[v as usize] = if unseen { du + 1 } else { d };
        }
    }
}

/// Hop distance between `src` and `dst`, early-exiting once `dst` is settled.
/// Returns `None` if disconnected.
pub fn hop_distance(g: &Graph, src: NodeIdx, dst: NodeIdx) -> Option<u32> {
    if src == dst {
        return Some(0);
    }
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                if v == dst {
                    return Some(du + 1);
                }
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    None
}

/// One shortest path from `src` to `dst` (inclusive of both endpoints), or
/// `None` if disconnected.
pub fn shortest_path(g: &Graph, src: NodeIdx, dst: NodeIdx) -> Option<Vec<NodeIdx>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent: Vec<NodeIdx> = vec![NodeIdx::MAX; g.node_count()];
    let mut seen = vec![false; g.node_count()];
    let mut q = VecDeque::new();
    seen[src as usize] = true;
    q.push_back(src);
    'outer: while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                parent[v as usize] = u;
                if v == dst {
                    break 'outer;
                }
                q.push_back(v);
            }
        }
    }
    if !seen[dst as usize] {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Connected components: returns `(component_id_per_node, component_count)`.
/// Component ids are dense in `0..count` in order of first discovery.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut q = VecDeque::new();
    for s in 0..n as NodeIdx {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = next;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = next;
                    q.push_back(v);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Multi-source BFS: hop distance from each node to its nearest source.
/// Used to compute distances to clusterheads.
pub fn multi_source_bfs(g: &Graph, sources: &[NodeIdx]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            q.push_back(s);
        }
    }
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeIdx - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn hop_distance_and_unreachable() {
        let mut g = path_graph(4);
        assert_eq!(hop_distance(&g, 0, 3), Some(3));
        assert_eq!(hop_distance(&g, 2, 2), Some(0));
        g.remove_edge(1, 2);
        assert_eq!(hop_distance(&g, 0, 3), None);
    }

    #[test]
    fn shortest_path_is_valid_and_shortest() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]);
        let p = shortest_path(&g, 0, 5).unwrap();
        assert_eq!(p.len() as u32 - 1, hop_distance(&g, 0, 5).unwrap());
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 5);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_disconnected_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(shortest_path(&g, 0, 3).is_none());
        assert_eq!(shortest_path(&g, 1, 1).unwrap(), vec![1]);
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
        assert_eq!(connected_components(&path_graph(6)).1, 1);
        assert_eq!(connected_components(&Graph::with_nodes(0)).1, 0);
    }

    #[test]
    fn multi_source_distances() {
        let g = path_graph(7);
        let d = multi_source_bfs(&g, &[0, 6]);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
        let none = multi_source_bfs(&g, &[]);
        assert!(none.iter().all(|&x| x == UNREACHABLE));
    }
}
