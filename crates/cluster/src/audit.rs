//! Non-panicking structural audits of the clustered hierarchy.
//!
//! An audited simulation must *report* every violation it finds and keep
//! running, so the functions here return structured [`ClusterViolation`]
//! values instead of panicking: [`audit_hierarchy`] for the hierarchy
//! itself (which [`Hierarchy::check_invariants`] asserts empty in tests),
//! [`audit_address_book`] for the `AddressBook` ↔ [`Hierarchy`]
//! consistency the book's `capture` promises.
//!
//! The checks encode the election rule of §2.2: every level-k node casts
//! exactly one vote — for the largest-ID node in its closed neighborhood —
//! so each node has **exactly one** level-(k+1) clusterhead, the vote
//! image is exactly the head set, and the head set is exactly the next
//! level's node set.

use crate::address::AddressBook;
use crate::Hierarchy;
use chlm_graph::NodeIdx;
use std::fmt;

/// One structural inconsistency found in a hierarchy or address book.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterViolation {
    /// Per-node vectors of a level disagree in length, or a vote/index is
    /// out of range; the level cannot be audited further.
    LevelShape { level: usize, detail: String },
    /// `index_of` does not invert `nodes` for this entry.
    IndexDesync { level: usize, node: NodeIdx },
    /// A node's vote does not go to the largest-ID member of its closed
    /// neighborhood (the LCA election rule).
    VoteNotMaxNeighbor {
        level: usize,
        node: NodeIdx,
        voted: NodeIdx,
        expected: NodeIdx,
    },
    /// A node's vote target is not flagged as a clusterhead — the node has
    /// no level-(k+1) clusterhead.
    MissingClusterhead {
        level: usize,
        node: NodeIdx,
        target: NodeIdx,
    },
    /// `is_head` disagrees with the vote image.
    HeadFlagMismatch {
        level: usize,
        node: NodeIdx,
        flagged: bool,
        voted_for: bool,
    },
    /// Recorded elector count differs from the number of neighbors actually
    /// voting for the node (the ALCA state of Fig. 3).
    ElectorCountMismatch {
        level: usize,
        node: NodeIdx,
        recorded: u32,
        actual: u32,
    },
    /// The heads elected at `level` are not exactly the node set of
    /// `level + 1`.
    LevelSetMismatch { level: usize },
    /// The tree-order columns of `level` (`rank`, `tree_nodes`, `parent`,
    /// `start`) do not number its nodes cluster by cluster.
    TreeOrder { level: usize, detail: String },
    /// The address book's depth differs from the hierarchy's.
    DepthMismatch { book: usize, hierarchy: usize },
    /// The address book covers a different node count than the hierarchy.
    NodeCountMismatch { book: usize, hierarchy: usize },
    /// A node's clusterhead chain cannot be resolved at `level` (the node
    /// or its head is missing from the level's index).
    AddressChainBroken { node: NodeIdx, level: usize },
    /// The book's recorded component differs from the hierarchy's actual
    /// clusterhead for `(node, level)`.
    AddressComponentMismatch {
        node: NodeIdx,
        level: usize,
        book: NodeIdx,
        hierarchy: NodeIdx,
    },
}

impl fmt::Display for ClusterViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterViolation::LevelShape { level, detail } => {
                write!(f, "level {level}: malformed level ({detail})")
            }
            ClusterViolation::IndexDesync { level, node } => {
                write!(f, "level {level}: index_of desynced for node {node}")
            }
            ClusterViolation::VoteNotMaxNeighbor {
                level,
                node,
                voted,
                expected,
            } => write!(
                f,
                "level {level}: node {node} votes {voted}, expected max-ID neighbor {expected}"
            ),
            ClusterViolation::MissingClusterhead {
                level,
                node,
                target,
            } => write!(
                f,
                "level {level}: node {node} votes {target}, which is not a head (no clusterhead)"
            ),
            ClusterViolation::HeadFlagMismatch {
                level,
                node,
                flagged,
                voted_for,
            } => write!(
                f,
                "level {level}: node {node} head flag {flagged} but voted-for status {voted_for}"
            ),
            ClusterViolation::ElectorCountMismatch {
                level,
                node,
                recorded,
                actual,
            } => write!(
                f,
                "level {level}: node {node} elector count {recorded} recorded, {actual} actual"
            ),
            ClusterViolation::LevelSetMismatch { level } => write!(
                f,
                "heads elected at level {level} are not level {} node set",
                level + 1
            ),
            ClusterViolation::TreeOrder { level, detail } => {
                write!(f, "level {level}: tree order broken ({detail})")
            }
            ClusterViolation::DepthMismatch { book, hierarchy } => {
                write!(
                    f,
                    "address book depth {book} != hierarchy depth {hierarchy}"
                )
            }
            ClusterViolation::NodeCountMismatch { book, hierarchy } => {
                write!(f, "address book covers {book} nodes, hierarchy {hierarchy}")
            }
            ClusterViolation::AddressChainBroken { node, level } => {
                write!(
                    f,
                    "node {node}: clusterhead chain unresolvable at level {level}"
                )
            }
            ClusterViolation::AddressComponentMismatch {
                node,
                level,
                book,
                hierarchy,
            } => write!(
                f,
                "node {node} level {level}: book says head {book}, hierarchy says {hierarchy}"
            ),
        }
    }
}

/// Audit the internal structure of a hierarchy. Returns every violation
/// found (empty for a well-formed hierarchy). Never panics.
pub fn audit_hierarchy(h: &Hierarchy) -> Vec<ClusterViolation> {
    let mut out = Vec::new();
    for (k, level) in h.levels.iter().enumerate() {
        let m = level.nodes.len();
        let live_slots = level.slots.iter().filter(|&&s| s != crate::NO_SLOT).count();
        let shape_ok = level.vote.len() == m
            && level.is_head.len() == m
            && level.elector_count.len() == m
            && level.slots.len() == h.ids.len()
            && live_slots == m
            && level.graph.node_count() == m
            && level.vote.iter().all(|&t| (t as usize) < m)
            && level.nodes.iter().all(|&p| (p as usize) < h.ids.len());
        if !shape_ok {
            out.push(ClusterViolation::LevelShape {
                level: k,
                detail: format!(
                    "nodes {m}, vote {}, is_head {}, elector_count {}, slots {} ({} live), graph {}",
                    level.vote.len(),
                    level.is_head.len(),
                    level.elector_count.len(),
                    level.slots.len(),
                    live_slots,
                    level.graph.node_count()
                ),
            });
            continue; // indices below would be out of bounds
        }
        let mut votes_received = vec![0u32; m];
        let mut voted_for = vec![false; m];
        for (i, &phys) in level.nodes.iter().enumerate() {
            if level.local(phys) != Some(i as u32) {
                out.push(ClusterViolation::IndexDesync {
                    level: k,
                    node: phys,
                });
            }
            // The vote must go to the largest-ID member of the closed
            // neighborhood (self included).
            let mut best = i as u32;
            let mut best_id = h.ids[phys as usize];
            for &nb in level.graph.neighbors(i as u32) {
                let nb_id = h.ids[level.nodes[nb as usize] as usize];
                if nb_id > best_id {
                    best_id = nb_id;
                    best = nb;
                }
            }
            let t = level.vote[i];
            if t != best {
                out.push(ClusterViolation::VoteNotMaxNeighbor {
                    level: k,
                    node: phys,
                    voted: level.nodes[t as usize],
                    expected: level.nodes[best as usize],
                });
            }
            if t as usize != i {
                votes_received[t as usize] += 1;
            }
            voted_for[t as usize] = true;
        }
        for i in 0..m {
            let phys = level.nodes[i];
            if level.elector_count[i] != votes_received[i] {
                out.push(ClusterViolation::ElectorCountMismatch {
                    level: k,
                    node: phys,
                    recorded: level.elector_count[i],
                    actual: votes_received[i],
                });
            }
            if level.is_head[i] != voted_for[i] {
                out.push(ClusterViolation::HeadFlagMismatch {
                    level: k,
                    node: phys,
                    flagged: level.is_head[i],
                    voted_for: voted_for[i],
                });
            }
            // Exactly-one-clusterhead: the (unique) vote target must be a
            // head, otherwise this node has no level-(k+1) clusterhead.
            let t = level.vote[i] as usize;
            if !level.is_head[t] {
                out.push(ClusterViolation::MissingClusterhead {
                    level: k,
                    node: phys,
                    target: level.nodes[t],
                });
            }
        }
        if k + 1 < h.levels.len() {
            let mut heads: Vec<NodeIdx> = level.heads().map(|(_, p)| p).collect();
            heads.sort_unstable();
            let mut next: Vec<NodeIdx> = h.levels[k + 1].nodes.clone();
            next.sort_unstable();
            if heads != next {
                out.push(ClusterViolation::LevelSetMismatch { level: k });
            }
        }
        if let Some(detail) = tree_order_fault(h, k) {
            out.push(ClusterViolation::TreeOrder { level: k, detail });
        }
    }
    out
}

/// Why level `k`'s tree-order columns are wrong, if they are. Below the
/// top, `rank` numbers every node into `tree_nodes`, each node's `parent`
/// is its cluster's tree number one level up, and `start` cuts the tree
/// numbers into one run per parent, ascending by physical index; the top
/// level has no columns. Assumes level `k` passed the shape check.
fn tree_order_fault(h: &Hierarchy, k: usize) -> Option<String> {
    let level = &h.levels[k];
    let columns = [&level.rank, &level.tree_nodes, &level.parent, &level.start];
    let lens = columns.map(|c| c.len());
    let Some(above) = h.levels.get(k + 1) else {
        return (lens != [0; 4]).then(|| format!("columns {lens:?} at the top level"));
    };
    let (m, up) = (level.len(), above.len());
    if lens != [m, m, m, up + 1] {
        return Some(format!(
            "column lengths {lens:?}, want [{m}, {m}, {m}, {}]",
            up + 1
        ));
    }
    let start = &level.start;
    if start[0] != 0 || start[up] != m as u32 || start.windows(2).any(|w| w[0] > w[1]) {
        return Some(format!("start {start:?} does not cut 0..{m}"));
    }
    for (t, run) in start.windows(2).enumerate() {
        let (lo, hi) = (run[0] as usize, run[1] as usize);
        if level.parent[lo..hi].iter().any(|&p| p as usize != t) {
            return Some(format!("run {t} has a foreign parent"));
        }
        if level.tree_nodes[lo..hi].windows(2).any(|w| w[0] >= w[1]) {
            return Some(format!("run {t} is not ascending"));
        }
    }
    for (i, &phys) in level.nodes.iter().enumerate() {
        let r = level.rank[i] as usize;
        if level.tree_nodes.get(r) != Some(&phys) {
            return Some(format!("rank of node {phys} desynced"));
        }
        let head = above.local(level.head_of(i as u32));
        if head.map(|head| h.tree_number(k + 1, head)) != Some(level.parent[r]) {
            return Some(format!(
                "parent of node {phys} is not its head's tree number"
            ));
        }
    }
    None
}

/// Resolve node `v`'s clusterhead chain without panicking. Returns the
/// address (as [`Hierarchy::address`] would) or the level at which the
/// chain breaks.
pub fn safe_address(h: &Hierarchy, v: NodeIdx) -> Result<Vec<NodeIdx>, usize> {
    let depth = h.depth();
    let mut addr = Vec::with_capacity(depth);
    addr.push(v);
    let mut cur = v;
    for (k, level) in h.levels.iter().enumerate() {
        if addr.len() == depth {
            break;
        }
        let local = level.local(cur).ok_or(k)?;
        let vote = level.vote.get(local as usize).copied().ok_or(k)?;
        cur = *level.nodes.get(vote as usize).ok_or(k)?;
        addr.push(cur);
    }
    Ok(addr)
}

/// Audit an address book against the hierarchy it claims to snapshot:
/// every `(node, level)` component must equal the node's actual level-k
/// clusterhead. Never panics.
pub fn audit_address_book(book: &AddressBook, h: &Hierarchy) -> Vec<ClusterViolation> {
    let mut out = Vec::new();
    if book.node_count() != h.node_count() {
        out.push(ClusterViolation::NodeCountMismatch {
            book: book.node_count(),
            hierarchy: h.node_count(),
        });
        return out;
    }
    if book.depth() != h.depth() {
        out.push(ClusterViolation::DepthMismatch {
            book: book.depth(),
            hierarchy: h.depth(),
        });
    }
    let depth = book.depth().max(h.depth());
    for v in 0..h.node_count() as NodeIdx {
        let addr = match safe_address(h, v) {
            Ok(a) => a,
            Err(level) => {
                out.push(ClusterViolation::AddressChainBroken { node: v, level });
                continue;
            }
        };
        for k in 0..depth {
            // Both sides clamp to their own top level, so depth changes
            // alone do not produce spurious component mismatches.
            let expected = addr[k.min(addr.len() - 1)];
            let got = book.component(v, k);
            if got != expected {
                out.push(ClusterViolation::AddressComponentMismatch {
                    node: v,
                    level: k,
                    book: got,
                    hierarchy: expected,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyOptions;
    use chlm_graph::Graph;

    fn h(n: usize, edges: &[(NodeIdx, NodeIdx)]) -> Hierarchy {
        let ids: Vec<u64> = (0..n as u64).collect();
        Hierarchy::build(
            &ids,
            &Graph::from_edges(n, edges),
            HierarchyOptions::default(),
        )
    }

    #[test]
    fn clean_hierarchy_has_no_violations() {
        let edges: Vec<_> = (0..19u32).map(|i| (i, i + 1)).collect();
        let hy = h(20, &edges);
        assert!(audit_hierarchy(&hy).is_empty());
        let book = AddressBook::capture(&hy);
        assert!(audit_address_book(&book, &hy).is_empty());
    }

    #[test]
    fn corrupted_vote_detected() {
        let mut hy = h(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        // Node 0's correct vote is its max neighbor; redirect it to itself
        // regardless.
        hy.levels[0].vote[0] = 0;
        let vs = audit_hierarchy(&hy);
        assert!(
            vs.iter().any(|v| matches!(
                v,
                ClusterViolation::VoteNotMaxNeighbor {
                    level: 0,
                    node: 0,
                    ..
                }
            )),
            "violations: {vs:?}"
        );
    }

    #[test]
    fn orphaned_node_detected() {
        // Clear the head flag of a node that receives votes: every elector
        // of that head loses its clusterhead.
        let mut hy = h(5, &[(0, 4), (1, 4), (2, 4), (3, 4)]);
        let head_local = hy.levels[0].local(4).unwrap() as usize;
        hy.levels[0].is_head[head_local] = false;
        let vs = audit_hierarchy(&hy);
        assert!(
            vs.iter()
                .any(|v| matches!(v, ClusterViolation::MissingClusterhead { level: 0, .. })),
            "violations: {vs:?}"
        );
        assert!(vs
            .iter()
            .any(|v| matches!(v, ClusterViolation::HeadFlagMismatch { .. })));
    }

    #[test]
    fn desynced_book_detected() {
        let before = h(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let after = h(6, &[(0, 5), (1, 2), (2, 3), (4, 5)]);
        let stale = AddressBook::capture(&before);
        let vs = audit_address_book(&stale, &after);
        assert!(
            vs.iter()
                .any(|v| matches!(v, ClusterViolation::AddressComponentMismatch { .. })),
            "violations: {vs:?}"
        );
        // The fresh capture is clean.
        assert!(audit_address_book(&AddressBook::capture(&after), &after).is_empty());
    }

    #[test]
    fn elector_count_tamper_detected() {
        let mut hy = h(4, &[(0, 3), (1, 3), (2, 3)]);
        let head_local = hy.levels[0].local(3).unwrap() as usize;
        hy.levels[0].elector_count[head_local] += 1;
        let vs = audit_hierarchy(&hy);
        assert!(vs.iter().any(|v| matches!(
            v,
            ClusterViolation::ElectorCountMismatch {
                recorded: 4,
                actual: 3,
                ..
            }
        )));
    }

    #[test]
    fn tree_order_corruption_detected() {
        let edges: Vec<_> = (0..19u32).map(|i| (i, i + 1)).collect();
        let clean = h(20, &edges);
        let tree_order = |hy: &Hierarchy| {
            let vs = audit_hierarchy(hy);
            vs.iter()
                .any(|v| matches!(v, ClusterViolation::TreeOrder { level: 0, .. }))
        };
        let mut swapped = clean.clone();
        swapped.levels[0].rank.swap(0, 19);
        assert!(tree_order(&swapped));
        let mut reparented = clean.clone();
        let last = reparented.levels[0].parent.len() - 1;
        reparented.levels[0].parent[last] += 1;
        assert!(tree_order(&reparented));
        let mut short = clean;
        short.levels[0].start.pop();
        assert!(tree_order(&short));
    }

    #[test]
    fn shape_corruption_reported_not_panicking() {
        let mut hy = h(4, &[(0, 1), (1, 2), (2, 3)]);
        hy.levels[0].vote.pop();
        let vs = audit_hierarchy(&hy);
        assert!(vs
            .iter()
            .any(|v| matches!(v, ClusterViolation::LevelShape { level: 0, .. })));
    }
}
