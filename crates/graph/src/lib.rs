//! # chlm-graph
//!
//! Graph substrate for the CHLM MANET simulator.
//!
//! The paper models the network as an undirected graph `G = (V, E)` where an
//! edge exists between two nodes iff they are within `R_TX` of one another
//! (the *unit-disk* model, §1.2). This crate provides:
//!
//! * [`Graph`] — a compact undirected adjacency structure,
//! * [`unit_disk::build_unit_disk`] — `O(n·d)` unit-disk construction over a
//!   spatial grid,
//! * BFS / Dijkstra / connected components ([`traversal`], [`dijkstra`]),
//! * [`UnionFind`] — disjoint sets for fast connectivity,
//! * [`dynamics::LinkDiff`] — link up/down event extraction between
//!   consecutive topology snapshots (the level-0 link-state change events of
//!   eq. (4)).

//!
//! ## Example
//!
//! ```
//! use chlm_geom::{Disk, SimRng};
//! use chlm_graph::unit_disk::build_unit_disk;
//! use chlm_graph::traversal::{bfs_distances, is_connected};
//!
//! let region = Disk::centered(8.0);
//! let mut rng = SimRng::seed_from(7);
//! let points = chlm_geom::region::deploy_uniform(&region, 100, &mut rng);
//! let graph = build_unit_disk(&points, 2.5);
//! assert_eq!(graph.node_count(), 100);
//! let dist = bfs_distances(&graph, 0);
//! assert_eq!(dist[0], 0);
//! let _ = is_connected(&graph);
//! ```

pub mod dijkstra;
pub mod dynamics;
pub mod fasthash;
pub mod incremental;
pub mod traversal;
pub mod union_find;
pub mod unit_disk;

pub use dynamics::LinkDiff;
pub use incremental::{EdgeFlip, UnitDiskMaintainer};
pub use union_find::UnionFind;

/// Node index type. Graphs in this workspace are dense and index nodes by
/// position `0..n`, with any stable external identity (e.g. the random node
/// ID used by the LCA election) kept alongside.
pub type NodeIdx = u32;

/// A compact undirected graph over nodes `0..n`.
///
/// Neighbor lists are kept sorted so that adjacency checks are `O(log d)`
/// and diffing two graphs is a linear merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeIdx>>,
    n_edges: usize,
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            n_edges: 0,
        }
    }

    /// Build from an edge list. Self-loops are rejected; duplicate edges are
    /// ignored.
    pub fn from_edges(n: usize, edges: &[(NodeIdx, NodeIdx)]) -> Self {
        let mut g = Graph::with_nodes(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    pub fn degree(&self, u: NodeIdx) -> usize {
        self.adj[u as usize].len()
    }

    /// Sorted neighbor list of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeIdx) -> &[NodeIdx] {
        &self.adj[u as usize]
    }

    pub fn has_edge(&self, u: NodeIdx, v: NodeIdx) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Insert the undirected edge `(u, v)`. Returns `true` if it was new.
    ///
    /// # Panics
    /// On self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeIdx, v: NodeIdx) -> bool {
        assert_ne!(u, v, "self-loop");
        assert!((u as usize) < self.adj.len() && (v as usize) < self.adj.len());
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(iu) => {
                self.adj[u as usize].insert(iu, v);
                let iv = self.adj[v as usize]
                    .binary_search(&u)
                    .expect_err("asymmetric adjacency");
                self.adj[v as usize].insert(iv, u);
                self.n_edges += 1;
                true
            }
        }
    }

    /// Remove the undirected edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeIdx, v: NodeIdx) -> bool {
        match self.adj[u as usize].binary_search(&v) {
            Err(_) => false,
            Ok(iu) => {
                self.adj[u as usize].remove(iu);
                // audit: infallible because add_edge inserts both directions
                let iv = self.adj[v as usize]
                    .binary_search(&u)
                    .expect("asymmetric adjacency");
                self.adj[v as usize].remove(iv);
                self.n_edges -= 1;
                true
            }
        }
    }

    /// Clear to `n` isolated nodes, keeping the per-node neighbor-list
    /// allocations so a refilled graph of similar shape allocates nothing.
    pub fn reset(&mut self, n: usize) {
        for nbrs in &mut self.adj {
            nbrs.clear();
        }
        self.adj.resize_with(n, Vec::new);
        self.n_edges = 0;
    }

    /// Overwrite `self` with `other`'s structure, reusing this graph's
    /// per-node neighbor-list allocations (unlike `clone()`, which allocates
    /// every list afresh).
    pub fn copy_from(&mut self, other: &Graph) {
        self.adj.truncate(other.adj.len());
        let keep = self.adj.len();
        for (dst, src) in self.adj.iter_mut().zip(&other.adj) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.adj
            .extend(other.adj[keep..].iter().map(|src| src.to_vec()));
        self.n_edges = other.n_edges;
    }

    /// Iterate every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeIdx;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Mean degree `2|E| / |V|` (0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.n_edges as f64 / self.adj.len() as f64
        }
    }

    /// Closed neighborhood of `u`: `u` plus its neighbors, sorted.
    ///
    /// This is the set over which the LCA election rule operates: a node `v`
    /// is elected clusterhead by `u` when `v` has the largest node ID in
    /// `u ∪ N(u)`.
    pub fn closed_neighborhood(&self, u: NodeIdx) -> Vec<NodeIdx> {
        let nbrs = &self.adj[u as usize];
        let mut out = Vec::with_capacity(nbrs.len() + 1);
        // audit: infallible because the graph is simple (no self-loops)
        let pos = nbrs.binary_search(&u).expect_err("self-loop in adjacency");
        out.extend_from_slice(&nbrs[..pos]);
        out.push(u);
        out.extend_from_slice(&nbrs[pos..]);
        out
    }

    /// Debug-only structural invariant check: adjacency symmetric, sorted,
    /// deduplicated, loop-free, and the edge count consistent.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "unsorted/dup adjacency"
            );
            for &v in nbrs {
                assert_ne!(v as usize, u, "self-loop");
                assert!(
                    self.adj[v as usize].binary_search(&(u as NodeIdx)).is_ok(),
                    "asymmetric edge ({u}, {v})"
                );
                count += 1;
            }
        }
        assert_eq!(count, 2 * self.n_edges, "edge count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::with_nodes(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        g.check_invariants();
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::with_nodes(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate, either orientation
        assert!(g.add_edge(1, 2));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        g.check_invariants();
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        Graph::with_nodes(2).add_edge(1, 1);
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 4), (1, 2), (3, 4)]);
    }

    #[test]
    fn closed_neighborhood_sorted_with_self() {
        let g = Graph::from_edges(6, &[(3, 1), (3, 5), (3, 0)]);
        assert_eq!(g.closed_neighborhood(3), vec![0, 1, 3, 5]);
        assert_eq!(g.closed_neighborhood(2), vec![2]);
    }

    #[test]
    fn copy_from_matches_clone() {
        let a = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        for mut dst in [
            Graph::with_nodes(0),
            Graph::with_nodes(9),
            Graph::from_edges(3, &[(0, 2)]),
        ] {
            dst.copy_from(&a);
            assert_eq!(dst, a);
            dst.check_invariants();
        }
    }

    #[test]
    fn mean_degree_matches_formula() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }
}
