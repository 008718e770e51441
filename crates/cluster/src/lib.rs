//! # chlm-cluster
//!
//! Clustering substrate: the Linked Cluster Algorithm (LCA) election rule of
//! Baker & Ephremides \[1\], applied recursively to produce the multi-level
//! clustered hierarchy the paper analyzes (§2), plus the machinery to *diff*
//! consecutive hierarchies and classify the reorganization events (i)–(vii)
//! of §5.2.
//!
//! ## Election rule (§2.2)
//!
//! A level-k node `v` is elected level-k clusterhead by a node `u` when `v`
//! has the largest node ID in the closed neighborhood of `u` (that is,
//! `u ∪ N_k(u)`). Every node therefore casts exactly one *vote* — for the
//! largest-ID node it can hear (possibly itself) — and the level-(k+1) node
//! set is the image of the vote map. This matches the paper's Fig. 1: node
//! 97 is a head because it is the largest in its own neighborhood; node 68
//! is a head because it is the largest in node 63's neighborhood even
//! though 68 is not the largest in its own.
//!
//! ## Recursion
//!
//! Level-(k+1) nodes are the elected level-k heads; two level-(k+1) nodes
//! are adjacent iff their level-k clusters contain adjacent level-k nodes
//! (cluster adjacency). Recursion continues until no further aggregation
//! occurs; for a connected graph it always reaches a single top-level node
//! because the minimum-ID node of any non-trivial component is never
//! elected, so the node set strictly shrinks.
//!
//! The paper's *asynchronous* LCA (ALCA) reacts to individual link-state
//! changes. Because the LCA fixed point is a pure function of the current
//! topology and the node IDs, recomputing it each simulation tick and
//! diffing consecutive hierarchies reproduces exactly the event stream an
//! asynchronous implementation observes at tick granularity (see
//! DESIGN.md, "Asynchrony").
//!
//! There is one construction path, [`Hierarchy::rebuild`]: it overwrites
//! whatever hierarchy it is handed, level by level and buffer by buffer,
//! so the tick loop recomputes each tick's fixed point straight into a
//! snapshot it has retired; [`Hierarchy::build`] is the same function run
//! on an empty hierarchy.
//!
//! ## Example
//!
//! ```
//! use chlm_cluster::{Hierarchy, HierarchyOptions};
//! use chlm_geom::{Disk, SimRng};
//! use chlm_graph::unit_disk::build_unit_disk;
//!
//! let region = Disk::centered(10.0);
//! let mut rng = SimRng::seed_from(63);
//! let points = chlm_geom::region::deploy_uniform(&region, 150, &mut rng);
//! let graph = build_unit_disk(&points, 2.0);
//! let ids = rng.permutation(150);
//! let h = Hierarchy::build(&ids, &graph, HierarchyOptions::default());
//! // Every node has a hierarchical address up the clusterhead chain.
//! let addr: Vec<u32> = h.address(0).collect();
//! assert_eq!(addr[0], 0);
//! assert_eq!(addr.len(), h.depth());
//! ```

pub mod address;
pub mod audit;
pub mod digest;
pub mod events;
pub mod maintenance;
pub mod maxmin;
pub mod metrics;
mod rebuild;
pub mod render;
pub mod state;

pub use address::{AddrChangeKind, AddressBook};
pub use audit::{audit_address_book, audit_hierarchy, ClusterViolation};
pub use digest::hierarchy_digest;
pub use events::{classify_events, level_diffs, EventCounts, LevelDiff, ReorgEvent};
pub use metrics::LevelStats;
pub use rebuild::RebuildScratch;
pub use state::StateTracker;

use chlm_graph::{Graph, NodeIdx};

/// Sentinel in a level's physical→local slot table: "not at this level".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Stable election identity of a physical node. The LCA elects the largest.
/// IDs are assigned as a random permutation so they are independent of
/// geometry.
pub type ElectionId = u64;

/// One level of the clustered hierarchy.
///
/// `nodes[i]` is the *physical* index of the i-th level-k node; the other
/// per-node vectors but the tree-order columns are indexed by this local
/// index `i`. Node lists ascend by physical index at every level (level 0
/// is `0..n`; each next level collects heads in ascending local — hence
/// physical — order), which the event classifier relies on.
///
/// Storage is struct-of-arrays: the physical→local map is a dense slot
/// table (`slots`, sized to the physical population, `NO_SLOT` sentinel),
/// and cluster membership is the hierarchy's one numbering, *tree order*,
/// which [`Hierarchy::rebuild`] publishes after the last election. The top
/// level keeps its local order; every level below is sorted stably by the
/// tree number of its cluster one level up. The members of a level-(k+1)
/// cluster are therefore one run of level-k tree numbers, ascending by
/// physical index, and every cluster's subtree is one run at every level
/// below it. The four tree-order columns (`rank`, `tree_nodes`, `parent`,
/// `start`) are empty at the top level, where no cluster is above.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Level {
    /// Physical indices of the level-k nodes, ascending.
    pub nodes: Vec<NodeIdx>,
    /// Physical index → local index slot table (`NO_SLOT` = absent);
    /// length is the *physical* node count at every level.
    pub(crate) slots: Vec<u32>,
    /// Level-k topology over local indices.
    pub graph: Graph,
    /// Vote of each level-k node: the local index of the largest-ID node in
    /// its closed neighborhood. The vote target is this node's level-(k+1)
    /// clusterhead.
    pub vote: Vec<u32>,
    /// Number of *neighbors* (excluding self) voting for each node — the
    /// ALCA state of Fig. 3.
    pub elector_count: Vec<u32>,
    /// Whether each node received at least one vote (i.e. is a level-(k+1)
    /// node).
    pub is_head: Vec<bool>,
    /// Local index → tree number.
    pub rank: Vec<u32>,
    /// Tree number → physical index.
    pub tree_nodes: Vec<NodeIdx>,
    /// Tree number → tree number of the node's cluster one level up.
    pub parent: Vec<u32>,
    /// Membership CSR keyed by the level-(k+1) tree number `t`: the tree
    /// numbers `start[t]..start[t + 1]` are the members of that cluster.
    pub start: Vec<u32>,
}

impl Level {
    /// Number of level-k nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Local index of the given physical node at this level, if present.
    #[inline]
    pub fn local(&self, phys: NodeIdx) -> Option<u32> {
        match self.slots.get(phys as usize) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Physical index of the head this node votes for.
    #[inline]
    pub fn head_of(&self, local: u32) -> NodeIdx {
        self.nodes[self.vote[local as usize] as usize]
    }

    /// Iterate `(local, physical)` pairs of the heads elected at this level.
    pub fn heads(&self) -> impl Iterator<Item = (u32, NodeIdx)> + '_ {
        self.is_head
            .iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(i, _)| (i as u32, self.nodes[i]))
    }
}

/// Options controlling hierarchy construction.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyOptions {
    /// Hard cap on the number of clustering levels (counting level 0).
    /// `usize::MAX` means "until convergence".
    pub max_levels: usize,
    /// Stop recursing when a level fails to shrink the node count by at
    /// least this factor (`|V_k| / |V_{k+1}| < min_reduction` ⇒ stop).
    ///
    /// `1.0` (the default) disables the check: recursion runs to the
    /// per-component LCA fixpoint. The paper assumes a *connected* graph
    /// with arity `α_k = Θ(1) > 1`; on momentarily-disconnected mobile
    /// networks, isolated fringe components otherwise inflate the
    /// hierarchy with degenerate near-unit-arity levels that aggregate
    /// nothing. Deployments cap levels when aggregation stalls; the
    /// simulator uses `1.25` (see `chlm-sim`).
    pub min_reduction: f64,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions {
            max_levels: usize::MAX,
            min_reduction: 1.0,
        }
    }
}

/// The full clustered hierarchy over a physical topology.
///
/// The `Default` value has no levels at all: it is only a target for
/// [`Hierarchy::rebuild`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hierarchy {
    /// `levels[0]` is the physical level; `levels[k].nodes` are the level-k
    /// nodes (the heads elected at level k-1).
    pub levels: Vec<Level>,
    /// Election IDs of the physical nodes (index = physical index).
    pub ids: Vec<ElectionId>,
}

impl Hierarchy {
    /// Number of levels, counting level 0. The paper's `L` (highest cluster
    /// level) is `depth() - 1`.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of physical nodes.
    pub fn node_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The hierarchical address of physical node `v`: the k-th yielded item
    /// is the physical index of the head of the level-k cluster containing
    /// `v` (the first is `v` itself). Yields exactly `depth()` items,
    /// walking the clusterhead chain lazily — no allocation per call.
    pub fn address(&self, v: NodeIdx) -> AddressIter<'_> {
        AddressIter {
            h: self,
            cur: v,
            k: 0,
        }
    }

    /// All addresses, as an `n × depth()` row-major matrix (test/analysis
    /// convenience; step paths should iterate [`Hierarchy::address`]).
    pub fn addresses(&self) -> Vec<Vec<NodeIdx>> {
        (0..self.node_count() as NodeIdx)
            .map(|v| self.address(v).collect())
            .collect()
    }

    /// Tree number of the level-k node at local index `i` (the top level,
    /// whose `rank` is empty, keeps its local order).
    fn tree_number(&self, k: usize, i: u32) -> u32 {
        self.levels[k].rank.get(i as usize).map_or(i, |&r| r)
    }

    /// The level-(k-1) member clusters of the level-k cluster headed by
    /// physical node `head`, for `1 ≤ k < depth()`.
    ///
    /// Returns the physical indices of the level-(k-1) nodes whose vote
    /// target is `head`, ascending — one run of level k-1's tree order,
    /// borrowed (no allocation).
    ///
    /// # Panics
    /// If `k == 0` (a level-0 node has no members) or `k >= depth()` (no
    /// level exists there), or if `head` is not a level-k node.
    pub fn members(&self, k: usize, head: NodeIdx) -> &[NodeIdx] {
        assert!(
            k >= 1 && k < self.depth(),
            "level {k} out of range 1..{}",
            self.depth()
        );
        let local = self.levels[k]
            .local(head)
            .unwrap_or_else(|| panic!("{head} is not a level-{k} node"));
        let t = self.tree_number(k, local) as usize;
        let below = &self.levels[k - 1];
        &below.tree_nodes[below.start[t] as usize..below.start[t + 1] as usize]
    }

    /// Check internal invariants (test helper): every level's graph, and
    /// an empty [`audit::audit_hierarchy`] (votes, head flags, elector
    /// counts, slot table, level sets and tree order).
    ///
    /// # Panics
    /// On any violation, listing them all.
    pub fn check_invariants(&self) {
        for level in &self.levels {
            level.graph.check_invariants();
        }
        let violations = audit::audit_hierarchy(self);
        let list: String = violations.iter().map(|v| format!("\n  {v}")).collect();
        assert!(
            violations.is_empty(),
            "hierarchy invariants violated:{list}"
        );
    }
}

/// Lazily walks a node's clusterhead chain; see [`Hierarchy::address`].
#[derive(Clone)]
pub struct AddressIter<'a> {
    h: &'a Hierarchy,
    cur: NodeIdx,
    k: usize,
}

impl Iterator for AddressIter<'_> {
    type Item = NodeIdx;

    #[inline]
    fn next(&mut self) -> Option<NodeIdx> {
        if self.k >= self.h.depth() {
            return None;
        }
        if self.k > 0 {
            let level = &self.h.levels[self.k - 1];
            // audit: infallible because build() inserts every head into the next level
            let local = level.local(self.cur).expect("address chain broken");
            self.cur = level.head_of(local);
        }
        self.k += 1;
        Some(self.cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.h.depth() - self.k;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for AddressIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny helper: hierarchy over an explicit edge list with ids equal to
    /// the node index (so "largest index wins").
    fn h(n: usize, edges: &[(NodeIdx, NodeIdx)]) -> Hierarchy {
        let ids: Vec<u64> = (0..n as u64).collect();
        let g = Graph::from_edges(n, edges);
        Hierarchy::build(&ids, &g, HierarchyOptions::default())
    }

    #[test]
    fn single_node() {
        let hy = h(1, &[]);
        assert_eq!(hy.depth(), 1);
        assert!(hy.levels[0].is_head[0]); // self-vote
        assert_eq!(hy.address(0).collect::<Vec<_>>(), vec![0]);
        hy.check_invariants();
    }

    #[test]
    fn triangle_elects_max() {
        let hy = h(3, &[(0, 1), (1, 2), (0, 2)]);
        // Everyone votes for 2; single head; depth 2.
        assert_eq!(hy.depth(), 2);
        assert_eq!(hy.levels[1].nodes, vec![2]);
        assert_eq!(hy.address(0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(hy.address(2).collect::<Vec<_>>(), vec![2, 2]);
        hy.check_invariants();
    }

    #[test]
    fn paper_style_two_heads() {
        // Path 3-1-2 by id: node ids = indices. Edges (3,1),(1,2):
        // 3 votes 3; 1 votes 3; 2 votes 2 → heads {3, 2}.
        let hy = h(4, &[(3, 1), (1, 2)]); // node 0 isolated
        let l0 = &hy.levels[0];
        assert!(l0.is_head[3] && l0.is_head[2]);
        assert!(!l0.is_head[1]);
        assert!(l0.is_head[0]); // isolated node is its own head
                                // Level 1: nodes {0,2,3}; edge (2,3) via 1∈cluster(3) adjacent to 2.
        let l1 = &hy.levels[1];
        let mut nodes = l1.nodes.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 2, 3]);
        let (a, b) = (l1.local(2).unwrap(), l1.local(3).unwrap());
        assert!(l1.graph.has_edge(a, b));
        hy.check_invariants();
    }

    #[test]
    fn connected_graph_converges_to_single_top() {
        // A 10-node path.
        let edges: Vec<_> = (0..9u32).map(|i| (i, i + 1)).collect();
        let hy = h(10, &edges);
        assert_eq!(hy.levels.last().unwrap().len(), 1);
        hy.check_invariants();
        // All addresses end at the same top head.
        let top = hy.levels.last().unwrap().nodes[0];
        for v in 0..10 {
            let a: Vec<_> = hy.address(v).collect();
            assert_eq!(a.len(), hy.depth());
            assert_eq!(hy.address(v).len(), hy.depth());
            assert_eq!(*a.last().unwrap(), top);
        }
    }

    #[test]
    fn disconnected_components_each_keep_a_head() {
        let hy = h(6, &[(0, 1), (2, 3)]); // components {0,1}, {2,3}, {4}, {5}
        let top = hy.levels.last().unwrap();
        // Top level: one head per component; 4 components.
        assert_eq!(top.len(), 4);
        hy.check_invariants();
    }

    #[test]
    fn min_id_node_never_head_in_component() {
        let edges: Vec<_> = (0..19u32).map(|i| (i, i + 1)).collect();
        let hy = h(20, &edges);
        assert!(!hy.levels[0].is_head[0], "min-ID node elected?!");
    }

    #[test]
    fn members_partition_level() {
        let edges: Vec<_> = (0..29u32).map(|i| (i, i + 1)).collect();
        let hy = h(30, &edges);
        for k in 1..hy.depth() {
            let mut all: Vec<NodeIdx> = Vec::new();
            for &head in &hy.levels[k].nodes {
                // NB: a head is not necessarily a member of its own cluster
                // (paper Fig. 1: node 68 is a head elected by 63 while 68's
                // own vote goes to a larger neighbor).
                all.extend(hy.members(k, head));
            }
            all.sort_unstable();
            let mut expect = hy.levels[k - 1].nodes.clone();
            expect.sort_unstable();
            assert_eq!(all, expect, "level {k} members don't partition");
        }
    }

    #[test]
    #[should_panic(expected = "level 0 out of range")]
    fn members_at_level_zero_panics() {
        let hy = h(3, &[(0, 1), (1, 2)]);
        hy.members(0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn members_at_depth_panics() {
        let hy = h(3, &[(0, 1), (1, 2)]);
        let top = hy.levels.last().unwrap().nodes[0];
        hy.members(hy.depth(), top);
    }

    #[test]
    fn max_levels_cap_respected() {
        let edges: Vec<_> = (0..63u32).map(|i| (i, i + 1)).collect();
        let ids: Vec<u64> = (0..64).collect();
        let g = Graph::from_edges(64, &edges);
        let hy = Hierarchy::build(
            &ids,
            &g,
            HierarchyOptions {
                max_levels: 3,
                ..Default::default()
            },
        );
        assert_eq!(hy.depth(), 3);
        hy.check_invariants();
    }

    #[test]
    fn min_reduction_stops_degenerate_tail() {
        // Two far components: a 9-node path and an isolated node. Without
        // the stall check the isolated node rides up every level.
        let edges: Vec<_> = (0..8u32).map(|i| (i, i + 1)).collect();
        let ids: Vec<u64> = (0..10).collect();
        let g = Graph::from_edges(10, &edges);
        let free = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let capped = Hierarchy::build(
            &ids,
            &g,
            HierarchyOptions {
                max_levels: usize::MAX,
                min_reduction: 1.5,
            },
        );
        capped.check_invariants();
        assert!(capped.depth() <= free.depth());
        // Every retained level actually aggregated by ≥ 1.5x.
        for w in capped.levels.windows(2) {
            assert!(w[0].len() as f64 / w[1].len() as f64 >= 1.5);
        }
    }

    #[test]
    fn elector_count_matches_fig3_extremes() {
        // Star: center 5 with leaves 0..5 (ids = indices). Center is max:
        // every leaf votes center; center votes itself.
        let edges: Vec<_> = (0..5u32).map(|i| (i, 5)).collect();
        let hy = h(6, &edges);
        let l0 = &hy.levels[0];
        assert_eq!(l0.elector_count[5], 5); // highest ID: state = n_{k,v}
        assert_eq!(l0.elector_count[0], 0); // lowest ID: state = 0 always
    }

    #[test]
    #[should_panic]
    fn id_count_mismatch_panics() {
        let g = Graph::with_nodes(3);
        Hierarchy::build(&[1, 2], &g, HierarchyOptions::default());
    }
}
