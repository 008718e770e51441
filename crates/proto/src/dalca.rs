//! Distributed asynchronous LCA (ALCA) — the election protocol as actual
//! message passing.
//!
//! The simulator elsewhere *recomputes* the LCA fixpoint each tick and
//! argues (DESIGN.md, "Asynchrony") that this reproduces what the paper's
//! asynchronous protocol computes. This module removes the argument's
//! leap of faith by implementing the protocol: nodes exchange HELLO and
//! VOTE messages over a delayed medium, maintain only local state, and
//! react to link-state changes — and the quiescent outcome is checked
//! against the centralized election (they must agree exactly).
//!
//! ## Protocol
//!
//! * On start (and whenever told a link came up) a node sends `Hello(id)`
//!   to the new neighbor(s).
//! * Receiving `Hello` inserts the sender into the local neighbor table.
//! * A link-down event removes the neighbor on both sides.
//! * Whenever the neighbor table changes, the node recomputes its vote —
//!   the largest ID in its closed neighborhood (the §2.2 rule) — and, if
//!   changed, sends `Vote` to the new target and `Unvote` to the old one.
//! * A node is a clusterhead iff its elector set is non-empty or it votes
//!   for itself.
//!
//! Every delivery costs one message; experiment E22 measures messages per
//! link-state change (the protocol is local: `O(1)` expected, independent
//! of `|V|`).

use crate::events::EventQueue;
use chlm_cluster::{ElectionId, Hierarchy, HierarchyOptions};
use chlm_graph::{Graph, NodeIdx};
use std::collections::BTreeSet;

/// A protocol message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Hello,
    Vote,
    Unvote,
}

#[derive(Debug, Clone, Copy)]
struct Delivery {
    from: NodeIdx,
    to: NodeIdx,
    msg: Msg,
}

/// Per-node protocol state — strictly local information.
#[derive(Debug, Clone, Default)]
struct NodeState {
    neighbors: BTreeSet<NodeIdx>,
    /// Current vote target (`None` before the first computation).
    vote: Option<NodeIdx>,
    electors: BTreeSet<NodeIdx>,
}

/// The distributed ALCA simulation.
pub struct Dalca {
    ids: Vec<ElectionId>,
    state: Vec<NodeState>,
    queue: EventQueue<Delivery>,
    delay: f64,
    /// Total messages delivered.
    pub messages: u64,
}

impl Dalca {
    /// Start the protocol over `graph`: every node greets its neighbors.
    pub fn new(ids: &[ElectionId], graph: &Graph, delay: f64) -> Self {
        assert!(delay > 0.0 && delay.is_finite());
        let n = ids.len();
        assert_eq!(n, graph.node_count());
        let mut sim = Dalca {
            ids: ids.to_vec(),
            state: vec![NodeState::default(); n],
            queue: EventQueue::new(),
            delay,
            messages: 0,
        };
        for u in 0..n as NodeIdx {
            for &v in graph.neighbors(u) {
                sim.send(u, v, Msg::Hello);
            }
        }
        sim
    }

    fn send(&mut self, from: NodeIdx, to: NodeIdx, msg: Msg) {
        let t = self.queue.now() + self.delay;
        self.queue.schedule(t, Delivery { from, to, msg });
    }

    /// Recompute `u`'s vote from local state; emit Vote/Unvote on change.
    fn revote(&mut self, u: NodeIdx) {
        let s = &self.state[u as usize];
        let mut best = u;
        let mut best_id = self.ids[u as usize];
        for &v in &s.neighbors {
            if self.ids[v as usize] > best_id {
                best_id = self.ids[v as usize];
                best = v;
            }
        }
        let old = self.state[u as usize].vote;
        if old == Some(best) {
            return;
        }
        self.state[u as usize].vote = Some(best);
        if let Some(old_target) = old {
            if old_target != u {
                self.send(u, old_target, Msg::Unvote);
            }
        }
        if best != u {
            self.send(u, best, Msg::Vote);
        }
    }

    /// Notify the protocol of a link-state change (both endpoints react,
    /// as their radios would).
    pub fn link_change(&mut self, u: NodeIdx, v: NodeIdx, up: bool) {
        assert_ne!(u, v);
        if up {
            // Each side greets the other.
            self.send(u, v, Msg::Hello);
            self.send(v, u, Msg::Hello);
        } else {
            // Loss is detected locally (missed beacons); no packets cross
            // the (now dead) link.
            for (a, b) in [(u, v), (v, u)] {
                self.state[a as usize].neighbors.remove(&b);
                self.state[a as usize].electors.remove(&b);
                self.revote(a);
            }
        }
    }

    /// Deliver messages until quiescence. Returns the number of messages
    /// delivered during this call.
    pub fn run_until_quiescent(&mut self) -> u64 {
        let mut delivered = 0u64;
        while let Some((_, d)) = self.queue.pop() {
            delivered += 1;
            self.messages += 1;
            match d.msg {
                Msg::Hello => {
                    let inserted = self.state[d.to as usize].neighbors.insert(d.from);
                    if inserted {
                        self.revote(d.to);
                    }
                }
                Msg::Vote => {
                    self.state[d.to as usize].electors.insert(d.from);
                }
                Msg::Unvote => {
                    self.state[d.to as usize].electors.remove(&d.from);
                }
            }
        }
        delivered
    }

    /// Current vote of each node (`None` only for nodes that never had a
    /// neighbor table update — isolated nodes vote for themselves lazily).
    pub fn votes(&self) -> Vec<NodeIdx> {
        (0..self.state.len() as NodeIdx)
            .map(|u| self.state[u as usize].vote.unwrap_or(u))
            .collect()
    }

    /// Current clusterhead set: voted-for nodes (self-votes included).
    pub fn head_set(&self) -> BTreeSet<NodeIdx> {
        let mut heads = BTreeSet::new();
        for (u, s) in self.state.iter().enumerate() {
            match s.vote {
                Some(t) if t != u as NodeIdx => {
                    heads.insert(t);
                }
                _ => {
                    // Self-vote (explicit or lazy isolated default).
                    heads.insert(u as NodeIdx);
                }
            }
        }
        heads
    }

    /// Check agreement with the centralized election on `graph`:
    /// votes and head sets must match exactly.
    ///
    /// # Panics
    /// On any disagreement (with a diagnostic).
    pub fn assert_matches_centralized(&self, graph: &Graph) {
        let h = Hierarchy::build(&self.ids, graph, HierarchyOptions::default());
        let level0 = &h.levels[0];
        let votes = self.votes();
        for u in 0..graph.node_count() {
            let central = level0.nodes[level0.vote[u] as usize];
            assert_eq!(
                votes[u], central,
                "node {u}: distributed vote {} != centralized {central}",
                votes[u]
            );
        }
        let central_heads: BTreeSet<NodeIdx> = level0.heads().map(|(_, p)| p).collect();
        assert_eq!(self.head_set(), central_heads, "head sets differ");
        // Elector counts agree too (excluding self-votes on both sides).
        for u in 0..graph.node_count() {
            assert_eq!(
                self.state[u].electors.len() as u32,
                level0.elector_count[u],
                "node {u}: elector count mismatch"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::unit_disk::build_unit_disk;

    fn random_net(n: usize, seed: u64) -> (Vec<ElectionId>, Graph) {
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let mut rng = SimRng::seed_from(seed);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        (rng.permutation(n), build_unit_disk(&pts, rtx))
    }

    #[test]
    fn converges_to_centralized_fixpoint() {
        for seed in 0..5 {
            let (ids, g) = random_net(150, seed);
            let mut d = Dalca::new(&ids, &g, 0.001);
            d.run_until_quiescent();
            d.assert_matches_centralized(&g);
        }
    }

    #[test]
    fn isolated_nodes_self_head() {
        let ids = vec![5u64, 9, 1];
        let g = Graph::with_nodes(3);
        let mut d = Dalca::new(&ids, &g, 0.001);
        d.run_until_quiescent();
        assert_eq!(d.head_set(), (0..3).collect());
        d.assert_matches_centralized(&g);
    }

    #[test]
    fn link_up_reconverges() {
        let (ids, mut g) = random_net(100, 7);
        let mut d = Dalca::new(&ids, &g, 0.001);
        d.run_until_quiescent();
        // Bring up a new link between two currently-distant nodes.
        let (u, v) = (0u32, 99u32);
        if !g.has_edge(u, v) {
            g.add_edge(u, v);
            d.link_change(u, v, true);
            d.run_until_quiescent();
        }
        d.assert_matches_centralized(&g);
    }

    #[test]
    fn link_down_reconverges() {
        let (ids, mut g) = random_net(100, 8);
        let mut d = Dalca::new(&ids, &g, 0.001);
        d.run_until_quiescent();
        let (u, v) = g.edges().next().expect("non-empty graph");
        g.remove_edge(u, v);
        d.link_change(u, v, false);
        d.run_until_quiescent();
        d.assert_matches_centralized(&g);
    }

    #[test]
    fn reaction_to_change_is_local() {
        // Messages per single link change must not scale with n.
        let mut per_change = Vec::new();
        for &n in &[100usize, 400] {
            let (ids, mut g) = random_net(n, 9);
            let mut d = Dalca::new(&ids, &g, 0.001);
            d.run_until_quiescent();
            let mut total = 0u64;
            let mut changes = 0u64;
            let edges: Vec<_> = g.edges().take(20).collect();
            for (u, v) in edges {
                g.remove_edge(u, v);
                d.link_change(u, v, false);
                total += d.run_until_quiescent();
                changes += 1;
                g.add_edge(u, v);
                d.link_change(u, v, true);
                total += d.run_until_quiescent();
                changes += 1;
            }
            d.assert_matches_centralized(&g);
            per_change.push(total as f64 / changes as f64);
        }
        let ratio = per_change[1] / per_change[0];
        assert!(
            ratio < 2.0,
            "messages per change scaled with n: {per_change:?}"
        );
    }

    #[test]
    fn long_churn_sequence_stays_consistent() {
        let (ids, mut g) = random_net(120, 10);
        let mut d = Dalca::new(&ids, &g, 0.001);
        d.run_until_quiescent();
        let mut rng = SimRng::seed_from(11);
        for _ in 0..60 {
            let u = rng.index(120) as NodeIdx;
            let v = rng.index(120) as NodeIdx;
            if u == v {
                continue;
            }
            if g.has_edge(u, v) {
                g.remove_edge(u, v);
                d.link_change(u, v, false);
            } else {
                g.add_edge(u, v);
                d.link_change(u, v, true);
            }
            d.run_until_quiescent();
        }
        d.assert_matches_centralized(&g);
    }
}
