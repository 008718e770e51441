//! Hierarchical addresses and the migration/reorganization dichotomy.
//!
//! A node's hierarchical address is the chain of clusterheads above it:
//! `addr[k]` is the head of the level-k cluster containing the node. The
//! paper splits handoff triggers into two classes (§1):
//!
//! * **node migration** (§4, overhead `φ_k`) — the node itself crosses a
//!   level-k cluster boundary, and
//! * **cluster reorganization** (§5, overhead `γ_k`) — the node's cluster
//!   is re-parented or its head churns, dragging every member along.
//!
//! Because the level-1 head of a node is a pure function of the node's own
//! neighborhood, any `addr[1]` change is caused by the node's own relative
//! motion. At level `k ≥ 2`, an address change either *cascades from a
//! migration below* (`addr[k-1]` changed and was itself a migration → the
//! node crossed the level-k boundary in person) or is *inherited
//! reorganization* (`addr[k-1]` unchanged, or changed only because the
//! cluster below was re-parented). The root cause propagates upward, so
//! this local rule implements the paper's dichotomy exactly.

use crate::Hierarchy;
use chlm_graph::NodeIdx;

/// Why a node's level-k address component changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrChangeKind {
    /// The node itself crossed a level-k cluster boundary (its level-(k-1)
    /// component changed as well). Contributes to `φ_k`.
    Migration,
    /// The node's level-(k-1) cluster was re-parented while the node stayed
    /// put inside it. Contributes to `γ_k`.
    Reorganization,
}

/// One address-component change for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrChange {
    /// Physical node whose address changed.
    pub node: NodeIdx,
    /// Hierarchy level of the changed component (`1..depth`).
    pub level: u16,
    /// Previous head at that level.
    pub old_head: NodeIdx,
    /// New head at that level.
    pub new_head: NodeIdx,
    pub kind: AddrChangeKind,
}

/// Snapshot of all node addresses, with depth padding so snapshots of
/// different hierarchy depths can be diffed (a node "at the top" keeps its
/// top head for the missing levels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressBook {
    /// Row-major `n × depth`.
    addr: Vec<NodeIdx>,
    n: usize,
    depth: usize,
}

impl AddressBook {
    /// Capture the addresses of every node in `h`.
    pub fn capture(h: &Hierarchy) -> Self {
        let mut book = AddressBook {
            addr: Vec::new(),
            n: 0,
            depth: 0,
        };
        book.capture_into(h, &mut Vec::new());
        book
    }

    /// Re-capture in place, reusing this snapshot's address buffer and the
    /// caller's `scratch` (any size; it is resized as needed). Produces
    /// exactly the same snapshot as [`AddressBook::capture`] — the tick loop
    /// uses this with two swapped books to make address capture
    /// allocation-free.
    ///
    /// Addresses are computed level-by-level: `scratch[phys]` holds the
    /// level-(k-1) head of each level-(k-1) node, so each node's level-k
    /// component is one array lookup from its level-(k-1) component — no
    /// per-node chain walk, no hash lookups.
    pub fn capture_into(&mut self, h: &Hierarchy, scratch: &mut Vec<NodeIdx>) {
        let n = h.node_count();
        let depth = h.depth();
        self.n = n;
        self.depth = depth;
        self.addr.clear();
        self.addr.resize(n * depth, 0);
        for v in 0..n {
            self.addr[v * depth] = v as NodeIdx;
        }
        scratch.resize(n, 0);
        for k in 1..depth {
            let level = &h.levels[k - 1];
            for (local, &phys) in level.nodes.iter().enumerate() {
                scratch[phys as usize] = level.head_of(local as u32);
            }
            for v in 0..n {
                let below = self.addr[v * depth + k - 1];
                self.addr[v * depth + k] = scratch[below as usize];
            }
        }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Address component of `node` at `level`, clamped to the top for
    /// levels beyond this snapshot's depth.
    #[inline]
    pub fn component(&self, node: NodeIdx, level: usize) -> NodeIdx {
        let l = level.min(self.depth - 1);
        self.addr[node as usize * self.depth + l]
    }

    /// Full address row of `node`.
    pub fn row(&self, node: NodeIdx) -> &[NodeIdx] {
        &self.addr[node as usize * self.depth..(node as usize + 1) * self.depth]
    }

    /// Diff two snapshots, producing every per-node per-level address
    /// change, classified by the cascade rule.
    ///
    /// Levels are compared up to `max(depth_a, depth_b)`; missing levels are
    /// top-clamped, so a depth change alone (e.g. the whole network gaining
    /// a level) registers as changes only where heads actually differ.
    ///
    /// # Panics
    /// If the snapshots cover different node counts.
    pub fn diff(&self, new: &AddressBook) -> Vec<AddrChange> {
        // Counted first, so the list is one allocation of the exact size,
        // not a doubling series.
        let mut count = 0;
        self.for_each_change(new, |_| count += 1);
        let mut out = Vec::with_capacity(count);
        self.diff_into(new, &mut out);
        out
    }

    /// [`diff`](Self::diff) into `out`, replacing its contents and keeping
    /// its allocation — the list runs to megabytes a tick at paper scale,
    /// so a caller that diffs every tick keeps one buffer for all of them.
    ///
    /// # Panics
    /// If the snapshots cover different node counts.
    pub fn diff_into(&self, new: &AddressBook, out: &mut Vec<AddrChange>) {
        out.clear();
        self.for_each_change(new, |c| out.push(c));
    }

    /// Feed every change between `self` and `new` to `emit`, ascending by
    /// `(node, level)`.
    fn for_each_change(&self, new: &AddressBook, mut emit: impl FnMut(AddrChange)) {
        assert_eq!(self.n, new.n, "address books over different node sets");
        let depth = self.depth.max(new.depth);
        for v in 0..self.n as NodeIdx {
            // Kind of the change one level below, if any. The root cause
            // propagates upward: a level-k change is Migration only when it
            // cascades from a *Migration* at level k-1 (level-1 changes are
            // always the node's own relative motion, since the level-1 head
            // is a pure function of the node's neighborhood). A change
            // inherited from a reorganized lower cluster stays
            // Reorganization all the way up.
            let mut below: Option<AddrChangeKind> = None; // addr[0] never changes
            for k in 1..depth {
                let old_head = self.component(v, k);
                let new_head = new.component(v, k);
                if old_head != new_head {
                    let kind = if k == 1 || below == Some(AddrChangeKind::Migration) {
                        AddrChangeKind::Migration
                    } else {
                        AddrChangeKind::Reorganization
                    };
                    emit(AddrChange {
                        node: v,
                        level: k as u16,
                        old_head,
                        new_head,
                        kind,
                    });
                    below = Some(kind);
                } else {
                    below = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyOptions;
    use chlm_graph::Graph;

    fn hierarchy(n: usize, edges: &[(NodeIdx, NodeIdx)]) -> Hierarchy {
        let ids: Vec<u64> = (0..n as u64).collect();
        Hierarchy::build(
            &ids,
            &Graph::from_edges(n, edges),
            HierarchyOptions::default(),
        )
    }

    #[test]
    fn capture_shape() {
        let h = hierarchy(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = AddressBook::capture(&h);
        assert_eq!(b.node_count(), 5);
        assert_eq!(b.depth(), h.depth());
        assert_eq!(b.row(3)[0], 3);
        assert_eq!(b.component(0, 99), h.address(0).last().unwrap());
    }

    #[test]
    fn capture_into_matches_capture_across_reuse() {
        // Reuse one book across hierarchies of different shapes/depths; it
        // must always equal a fresh capture, and agree with h.address().
        let hierarchies = [
            hierarchy(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            hierarchy(8, &[(0, 7), (1, 7), (2, 6), (3, 6), (6, 7)]),
            hierarchy(3, &[]),
        ];
        let mut book = AddressBook::capture(&hierarchies[0]);
        let mut scratch = Vec::new();
        for h in &hierarchies {
            book.capture_into(h, &mut scratch);
            assert_eq!(book, AddressBook::capture(h));
            for v in 0..h.node_count() as NodeIdx {
                assert_eq!(book.row(v), h.address(v).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn identical_snapshots_no_changes() {
        let h = hierarchy(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]);
        let a = AddressBook::capture(&h);
        let b = AddressBook::capture(&h);
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn diff_into_replaces_the_reused_buffer() {
        let a = AddressBook::capture(&hierarchy(8, &[(0, 7), (1, 7), (2, 6), (3, 6), (6, 7)]));
        let b = AddressBook::capture(&hierarchy(8, &[(0, 7), (1, 6), (2, 6), (3, 5), (5, 6)]));
        let d = a.diff(&b);
        assert!(!d.is_empty());
        let mut out = d.clone();
        a.diff_into(&a, &mut out);
        assert!(out.is_empty());
        a.diff_into(&b, &mut out);
        assert_eq!(out, d);
    }

    #[test]
    fn level1_change_is_migration() {
        // Node 0 hangs off 4 first, then off 5 (5 > 4 so head differs).
        let before = hierarchy(6, &[(0, 4), (4, 5)]);
        let after = hierarchy(6, &[(0, 5), (4, 5)]);
        let d = AddressBook::capture(&before).diff(&AddressBook::capture(&after));
        assert_eq!(d.capacity(), d.len(), "diff output sized exactly");
        let lvl1: Vec<_> = d.iter().filter(|c| c.node == 0 && c.level == 1).collect();
        assert_eq!(lvl1.len(), 1);
        assert_eq!(lvl1[0].kind, AddrChangeKind::Migration);
        assert_eq!(lvl1[0].old_head, 4);
        assert_eq!(lvl1[0].new_head, 5);
    }

    #[test]
    fn inherited_change_is_reorganization() {
        // Two-level scenario: node 0 is member of head 2's cluster; head 2's
        // level-1 parent flips between 4 and 5 while 0 keeps head 2.
        //
        // ids = indices. Edges: 0-2 (0 votes 2), and 2's level-1 adjacency
        // changes: before 2-4 at level 0 => level-1 cluster edges lead 2 to
        // vote 4; after 2-5 => vote 5.
        let before = hierarchy(6, &[(0, 2), (2, 4), (4, 1)]);
        let after = hierarchy(6, &[(0, 2), (2, 5), (5, 1)]);
        let a = AddressBook::capture(&before);
        let b = AddressBook::capture(&after);
        // Sanity: node 0's level-1 head is 2 in both snapshots.
        assert_eq!(a.component(0, 1), 2);
        assert_eq!(b.component(0, 1), 2);
        let d = a.diff(&b);
        let c0: Vec<_> = d.iter().filter(|c| c.node == 0 && c.level >= 2).collect();
        assert!(!c0.is_empty(), "expected an inherited change for node 0");
        assert!(c0.iter().all(|c| c.kind == AddrChangeKind::Reorganization));
    }

    #[test]
    fn cascade_rule_marks_upper_levels_migration() {
        // Node 0 moves from head 2's cluster (parent 9 side) to head 3's
        // cluster (other parent side): both level 1 and level 2 change, and
        // both must be Migration.
        //
        // Build two separate multi-level islands and flip 0's attachment.
        let edges_before = [(0u32, 2u32), (2, 9), (9, 8), (3, 7), (7, 6)];
        let edges_after = [(0u32, 3u32), (2, 9), (9, 8), (3, 7), (7, 6)];
        let before = hierarchy(10, &edges_before);
        let after = hierarchy(10, &edges_after);
        let d = AddressBook::capture(&before).diff(&AddressBook::capture(&after));
        let mine: Vec<_> = d.iter().filter(|c| c.node == 0).collect();
        assert!(mine.iter().any(|c| c.level == 1));
        for c in &mine {
            assert_eq!(c.kind, AddrChangeKind::Migration, "level {}", c.level);
        }
    }

    #[test]
    #[should_panic]
    fn diff_mismatched_sizes_panics() {
        let a = AddressBook::capture(&hierarchy(3, &[(0, 1)]));
        let b = AddressBook::capture(&hierarchy(4, &[(0, 1)]));
        a.diff(&b);
    }
}
