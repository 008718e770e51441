//! Weighted shortest paths (Dijkstra).
//!
//! The routing crate compares hierarchical forwarding against true shortest
//! paths; unit-disk links can be weighted by Euclidean length to approximate
//! transmission cost, so a weighted solver is provided alongside BFS.
//! Kept although the simulator never calls it: `prop_graph`'s
//! `dijkstra_unit_weights_equal_bfs` is the only independent reference for
//! [`crate::traversal::bfs_distances`].

use crate::{Graph, NodeIdx};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeIdx,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; distances are finite by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `src` with per-edge weights given by `weight(u, v)`.
///
/// Returns `(dist, parent)`; unreachable nodes have `f64::INFINITY` distance
/// and `NodeIdx::MAX` parent.
///
/// # Panics
/// Debug-asserts that weights are non-negative and finite.
pub fn dijkstra<W: Fn(NodeIdx, NodeIdx) -> f64>(
    g: &Graph,
    src: NodeIdx,
    weight: W,
) -> (Vec<f64>, Vec<NodeIdx>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NodeIdx::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: du, node: u }) = heap.pop() {
        if du > dist[u as usize] {
            continue; // stale entry
        }
        for &v in g.neighbors(u) {
            let w = weight(u, v);
            debug_assert!(w >= 0.0 && w.is_finite(), "bad edge weight");
            let alt = du + w;
            if alt < dist[v as usize] {
                dist[v as usize] = alt;
                parent[v as usize] = u;
                heap.push(HeapItem { dist: alt, node: v });
            }
        }
    }
    (dist, parent)
}

/// Reconstruct the path `src -> dst` from a Dijkstra parent vector.
pub fn path_from_parents(parent: &[NodeIdx], src: NodeIdx, dst: NodeIdx) -> Option<Vec<NodeIdx>> {
    if src == dst {
        return Some(vec![src]);
    }
    if parent[dst as usize] == NodeIdx::MAX {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
        if path.len() > parent.len() {
            return None; // cycle guard; cannot happen with valid parents
        }
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs_distances;

    #[test]
    fn unit_weights_match_bfs() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3), (3, 6)]);
        let (d, _) = dijkstra(&g, 0, |_, _| 1.0);
        let b = bfs_distances(&g, 0);
        for i in 0..7 {
            assert_eq!(d[i] as u32, b[i]);
        }
    }

    #[test]
    fn weighted_prefers_cheap_detour() {
        // 0-1 expensive direct; 0-2-1 cheap detour.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        let w = |u: NodeIdx, v: NodeIdx| {
            if (u.min(v), u.max(v)) == (0, 1) {
                10.0
            } else {
                1.0
            }
        };
        let (d, parent) = dijkstra(&g, 0, w);
        assert!((d[1] - 2.0).abs() < 1e-12);
        assert_eq!(path_from_parents(&parent, 0, 1).unwrap(), vec![0, 2, 1]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let (d, parent) = dijkstra(&g, 0, |_, _| 1.0);
        assert!(d[3].is_infinite());
        assert!(path_from_parents(&parent, 0, 3).is_none());
        assert_eq!(path_from_parents(&parent, 0, 0).unwrap(), vec![0]);
    }
}
