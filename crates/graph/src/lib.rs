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
//! * [`Graph::hop_row`] — the one shortest-path row store of a topology
//!   snapshot: the BFS distance row of a root, computed by whoever asks
//!   first and shared by every later reader of the same `&Graph` until
//!   the adjacency next changes,
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
//! // The memoised row is the same row, computed once per snapshot.
//! assert_eq!(graph.hop_row(0), dist.as_slice());
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

use std::sync::OnceLock;

/// Node index type. Graphs in this workspace are dense and index nodes by
/// position `0..n`, with any stable external identity (e.g. the random node
/// ID used by the LCA election) kept alongside.
pub type NodeIdx = u32;

/// A compact undirected graph over nodes `0..n`.
///
/// Neighbor lists are kept sorted so that adjacency checks are `O(log d)`
/// and diffing two graphs is a linear merge.
///
/// A graph also memoises the BFS distance rows asked of it
/// ([`Graph::hop_row`]). The memo is invisible in the value: clones start
/// without it, and equality and `Debug` ignore it.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeIdx>>,
    n_edges: usize,
    rows: HopRows,
}

/// The [`Graph::hop_row`] memo: one write-once cell per root, the table
/// itself allocated by the first request so that a graph nobody asks for
/// rows pays one empty check per mutation and nothing else.
#[derive(Default)]
struct HopRows {
    // AUDIT: write-once cache of a pure function of (adjacency, root).
    // Every initializer of a cell computes the same row, so whichever
    // thread wins the race publishes identical bytes, and every mutator of
    // the adjacency takes `&mut Graph` and empties the memo first.
    cells: OnceLock<Box<[OnceLock<Vec<u32>>]>>,
}

impl Clone for HopRows {
    /// A clone answers from its own BFS: rows are neither shared nor
    /// copied.
    fn clone(&self) -> Self {
        HopRows::default()
    }
}

impl PartialEq for HopRows {
    /// How much of the memo is filled is not part of a graph's value.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for HopRows {}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("adj", &self.adj)
            .field("n_edges", &self.n_edges)
            .finish()
    }
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            n_edges: 0,
            rows: HopRows::default(),
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
                self.forget_rows();
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
                self.forget_rows();
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
        self.forget_rows();
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
        self.forget_rows();
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

    /// Overwrite `self` with the graph [`Graph::from_edges`]`(n, edges)`
    /// builds, reusing this graph's per-node neighbor-list allocations and
    /// appending to each list instead of paying a sorted insert on both
    /// rows of every edge. Duplicates and either orientation are accepted;
    /// `edges` is left normalized (`u < v`, sorted, deduplicated).
    ///
    /// # Panics
    /// On self-loops or out-of-range endpoints.
    pub fn assign_edges(&mut self, n: usize, edges: &mut Vec<(NodeIdx, NodeIdx)>) {
        for e in edges.iter_mut() {
            assert_ne!(e.0, e.1, "self-loop");
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
            assert!((e.1 as usize) < n, "endpoint out of range");
        }
        edges.sort_unstable();
        edges.dedup();
        self.reset(n);
        // Appending keeps every list sorted: in lexicographic edge order
        // node `x` first meets its smaller neighbors, ascending (the
        // `(a, x)` edges, `a < x`), then its larger ones, ascending (the
        // `(x, b)` edges).
        for &(u, v) in edges.iter() {
            self.adj[u as usize].push(v);
            self.adj[v as usize].push(u);
        }
        self.n_edges = edges.len();
    }

    /// BFS hop distances from `root` to every node
    /// ([`traversal::UNREACHABLE`] across a partition): the row
    /// [`traversal::bfs_distances`] returns, computed on the first request
    /// and kept until the adjacency next changes. Whoever asks first pays
    /// for the BFS — the hop pricer, a packet network forwarding toward
    /// `root`, another thread of either — and every later reader of this
    /// `&Graph` gets the same slice; the next [`Graph::add_edge`],
    /// [`Graph::remove_edge`], [`Graph::reset`], [`Graph::copy_from`] or
    /// [`Graph::assign_edges`] frees all rows at once.
    ///
    /// # Panics
    /// If `root` is out of range.
    pub fn hop_row(&self, root: NodeIdx) -> &[u32] {
        // AUDIT: see `HopRows::cells` — write-once, and each cell's value is
        // a pure function of (adjacency, root), so neither which thread
        // fills a cell nor the order cells are filled in reaches a reader.
        let cells = self.rows.cells.get_or_init(|| {
            // AUDIT: as above; the table starts as `n` empty cells.
            (0..self.adj.len()).map(|_| OnceLock::new()).collect()
        });
        cells[root as usize].get_or_init(|| traversal::bfs_distances(self, root))
    }

    /// How many roots currently have a memoised [`Graph::hop_row`]
    /// (diagnostics and tests only — nothing may branch on it).
    pub fn hop_rows_cached(&self) -> usize {
        self.memoised_rows().count()
    }

    fn memoised_rows(&self) -> impl Iterator<Item = (NodeIdx, &[u32])> + '_ {
        let cells = self.rows.cells.get().map_or(&[][..], |cells| &cells[..]);
        cells
            .iter()
            .enumerate()
            .filter_map(|(root, cell)| Some((root as NodeIdx, cell.get()?.as_slice())))
    }

    /// Empty the [`Graph::hop_row`] memo; every adjacency mutator calls
    /// this before it writes.
    #[inline]
    fn forget_rows(&mut self) {
        self.rows.cells.take();
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
    /// deduplicated, loop-free, the edge count consistent, and (in debug
    /// builds) the first memoised [`Graph::hop_row`] equal to a fresh BFS.
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
        if cfg!(debug_assertions) {
            if let Some((root, row)) = self.memoised_rows().next() {
                assert_eq!(
                    row,
                    traversal::bfs_distances(self, root),
                    "stale hop row for root {root}"
                );
            }
        }
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
    fn hop_row_is_the_bfs_row_until_the_next_mutation() {
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.hop_rows_cached(), 0);
        assert_eq!(g.hop_row(0), [0, 1, 2, u32::MAX, u32::MAX]);
        assert!(std::ptr::eq(g.hop_row(0), g.hop_row(0)));
        assert_eq!(g.hop_rows_cached(), 1);
        // A duplicate insert and a missing removal change nothing.
        assert!(!g.add_edge(1, 0) && !g.remove_edge(0, 4));
        assert_eq!(g.hop_rows_cached(), 1);
        assert!(g.add_edge(2, 3));
        assert_eq!(g.hop_rows_cached(), 0);
        assert_eq!(g.hop_row(0), [0, 1, 2, 3, 4]);
        g.check_invariants();
    }

    /// What `check_invariants` is for: a write to the adjacency that skipped
    /// `forget_rows` (only possible inside this module) is caught.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale hop row")]
    fn check_invariants_catches_a_stale_row() {
        let mut g = Graph::from_edges(3, &[(0, 1)]);
        g.hop_row(0);
        g.adj[1].push(2);
        g.adj[2].push(1);
        g.n_edges += 1;
        g.check_invariants();
    }

    #[test]
    fn mean_degree_matches_formula() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }
}
