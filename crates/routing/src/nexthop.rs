//! Table-driven strict hierarchical forwarding.
//!
//! [`crate::forward::hierarchical_path`] computes each leg with a global
//! BFS — fine for measurement, but a real node holds a **routing table**
//! and makes a per-packet decision from it. This module builds exactly the
//! table §2.1 describes for every node:
//!
//! * one entry per level-0 member of the node's level-1 cluster, and
//! * one entry per *sibling member cluster* of each ancestor cluster
//!   (keyed by the sibling's head),
//!
//! each entry holding the next hop toward the nearest level-0 node of the
//! target cluster. Forwarding then uses only the destination's
//! hierarchical address and the local table. Every entry of level `k ≥ 1`
//! follows a BFS gradient toward its target set that is confined to the
//! common parent cluster, so such a leg strictly decreases the distance to
//! the set and never leaves the cluster it descends into. The level-0
//! entries follow whole-graph distance instead; see `NextHopTable::walk`
//! for what that costs.
//!
//! # Layout
//!
//! The table is rebuilt every tick by `HopMetric::HierRouting` pricing, so
//! it is stored at the size the paper says it has — `Θ(α · log |V|)`
//! entries per node — in flat arrays, and walked with array reads only.
//!
//! Clusters get dense ids, numbered level by level with heads ascending (a
//! level-0 "cluster" is the node itself); one further id is a virtual root
//! that contains every node, so that the top real level has a parent like
//! any other. With `D = depth`, two row-major `n × (D + 1)` arrays hold,
//! for node `v` and level `k`, `cid[v][k]` — the id of `v`'s level-`k`
//! cluster — and `pos[v][k]` — `v`'s rank in that cluster's ascending
//! level-0 member list; one member CSR lists every cluster's members.
//!
//! Every cluster `c` below the top level owns one *row* of `hop`, as long
//! as `c`'s parent cluster and indexed by `pos[u][k + 1]`: the next hop
//! from each member `u` of the parent toward `c` ([`NodeIdx::MAX`] = no
//! entry; that is what `c`'s own members hold). Rows of level-0 clusters
//! are the intra-cluster routes, rows of level `k ≥ 1` the sibling-cluster
//! gradients. Total storage is `Σ_c |parent(c)|` over those clusters,
//! about `n · (α·(L − 1) + |C₁|)` words.
//!
//! # Top-level entries
//!
//! The gradients toward the *top* real level's clusters span the virtual
//! root, i.e. the whole graph: one whole-graph BFS each. Forwarding never
//! consults them — two nodes that share no real cluster have no strict
//! hierarchical route, and [`NextHopTable::route`] answers `None` — so the
//! table stores no row for them. They are still part of the table a node
//! would hold: [`NextHopTable::entries`] counts them (one per other
//! top-level cluster with a member in the node's component) and
//! [`NextHopTable::debug_lookup`] answers one by a one-off BFS, both over
//! the level-0 graph of the hierarchy they are handed.

use crate::forward::PathOutcome;
use chlm_cluster::Hierarchy;
use chlm_graph::traversal::{bfs_distances, hop_distance, UNREACHABLE};
use chlm_graph::{Graph, NodeIdx};

/// "No entry" in a `hop` row.
const NO_HOP: NodeIdx = NodeIdx::MAX;

/// A gradient search's sources in their own row, while it runs.
const SOURCE: NodeIdx = NodeIdx::MAX - 1;

/// Row `c` of a CSR. A free function, so that the build can hold a row of
/// `members` while it writes the table's other fields.
fn csr_row<'a>(start: &[u32], items: &'a [NodeIdx], c: u32) -> &'a [NodeIdx] {
    &items[start[c as usize] as usize..start[c as usize + 1] as usize]
}

/// All nodes' routing tables for one hierarchy snapshot (layout in the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct NextHopTable {
    n: usize,
    depth: usize,
    /// `cid[v * (depth + 1) + k]`; column `depth` is the virtual root.
    cid: Vec<u32>,
    /// `pos[v * (depth + 1) + k]`, parallel to `cid`.
    pos: Vec<u32>,
    /// First cluster id of each level; entry `depth` is the root's id.
    level_start: Vec<u32>,
    /// Physical head of every cluster below the root, by cluster id.
    heads: Vec<NodeIdx>,
    /// Member CSR by cluster id, root included: ascending level-0 members.
    member_start: Vec<u32>,
    members: Vec<NodeIdx>,
    /// Parent cluster id and first `hop` index of every cluster below the
    /// top level. Both empty when `depth < 2` (no routes at all).
    parent: Vec<u32>,
    row_start: Vec<usize>,
    hop: Vec<NodeIdx>,
    /// Search scratch, kept so that [`NextHopTable::rebuild`] does not
    /// allocate once the buffers have grown. A level-0 search marks a node
    /// by `stamp[v] = epoch`; each takes the next epoch.
    stamp: Vec<u32>,
    epoch: u32,
    dist: Vec<u32>,
    queue: Vec<NodeIdx>,
    /// The induced subgraph of the scope whose gradients are being filled:
    /// a CSR over scope-local indices (`pos` one level up), each list in
    /// the level-0 graph's neighbour order.
    sub_start: Vec<u32>,
    sub_adj: Vec<u32>,
    /// Level-0 rows of the last rebuild that the one-hop ring could not
    /// fill (see [`NextHopTable::fill_level0_rows`]).
    level0_fallbacks: usize,
}

impl NextHopTable {
    /// Build every node's table.
    ///
    /// `O(n · L · α · deg)`: every search stays inside the cluster whose
    /// members need its result, so a level costs `Σ_c |parent(c)| · deg ≈
    /// n · α · deg`, and a level-0 row reads only the one-hop rings of
    /// its destination and members.
    pub fn build(h: &Hierarchy) -> Self {
        let mut table = NextHopTable::default();
        table.rebuild(h);
        table
    }

    /// [`NextHopTable::build`] in place, reusing every buffer.
    pub fn rebuild(&mut self, h: &Hierarchy) {
        let hop_len = self.index_clusters(h);
        self.hop.clear();
        // The row lengths move by a few percent from snapshot to snapshot:
        // grow with a quarter of headroom, so that the next, slightly
        // larger table fits the same buffer.
        if hop_len > self.hop.capacity() {
            self.hop.reserve_exact(hop_len + hop_len / 4);
        }
        self.hop.resize(hop_len, NO_HOP);
        // Zero is "never": the epochs of this rebuild's searches count up
        // from one.
        self.stamp.clear();
        self.stamp.resize(self.n, 0);
        self.epoch = 0;
        self.dist.resize(self.n, 0);
        self.level0_fallbacks = 0;
        let g0 = &h.levels[0].graph;
        if self.depth >= 2 {
            self.fill_level0_rows(g0);
            self.fill_gradient_rows(g0);
        }
    }

    /// Cluster ids, ranks, the member CSR and the row offsets; returns the
    /// total row length.
    fn index_clusters(&mut self, h: &Hierarchy) -> usize {
        let n = h.node_count();
        let depth = h.depth();
        let stride = depth + 1;
        self.n = n;
        self.depth = depth;

        self.level_start.clear();
        self.heads.clear();
        for level in &h.levels {
            self.level_start.push(self.heads.len() as u32);
            self.heads.extend_from_slice(&level.nodes);
        }
        let root = self.heads.len();
        self.level_start.push(root as u32);

        // One pass per node up its clusterhead chain. A cluster's running
        // member count (kept in `member_start[c + 1]`) is the rank of the
        // node that bumps it, because nodes arrive in ascending order.
        self.cid.clear();
        self.cid.resize(n * stride, 0);
        self.pos.clear();
        self.pos.resize(n * stride, 0);
        self.member_start.clear();
        self.member_start.resize(root + 2, 0);
        for v in 0..n {
            let row = v * stride;
            // Local index, at level k, of the head of v's level-k cluster.
            let mut local = v as u32;
            for k in 0..depth {
                if k > 0 {
                    let head = h.levels[k - 1].head_of(local);
                    // audit: infallible because Hierarchy::build makes every head a node of the next level
                    local = h.levels[k].local(head).expect("address chain broken");
                }
                let c = (self.level_start[k] + local) as usize;
                self.cid[row + k] = c as u32;
                self.pos[row + k] = self.member_start[c + 1];
                self.member_start[c + 1] += 1;
            }
            self.cid[row + depth] = root as u32;
            self.pos[row + depth] = v as u32;
        }
        self.member_start[root + 1] = n as u32;
        for c in 0..=root {
            self.member_start[c + 1] += self.member_start[c];
        }
        self.members.clear();
        self.members.resize(n * stride, 0);
        for v in 0..n {
            for i in v * stride..(v + 1) * stride {
                let at = self.member_start[self.cid[i] as usize] + self.pos[i];
                self.members[at as usize] = v as NodeIdx;
            }
        }

        // The parent of cluster (k, head) is the head's *vote at level k*
        // — NOT the head's own level-0 address chain (a head need not be
        // a member of its own cluster; cf. the paper's node 68) — which
        // is also the level-(k+1) cluster of any of its members.
        self.parent.clear();
        self.row_start.clear();
        let mut total = 0usize;
        if depth >= 2 {
            for k in 0..depth - 1 {
                for c in self.level_start[k]..self.level_start[k + 1] {
                    let first = self.members[self.member_start[c as usize] as usize];
                    let p = self.cid[first as usize * stride + k + 1];
                    self.parent.push(p);
                    self.row_start.push(total);
                    total += self.members_of(p).len();
                }
            }
        }
        total
    }

    /// Level-0 rows: routes to every member of the node's level-1 cluster
    /// (complete intra-cluster knowledge). The entry for `dst` at `u` is
    /// the first neighbour of `u`, in adjacency order, that is one step
    /// closer to `dst` in the **whole** graph.
    ///
    /// LCA members are their head or adjacent to it, so co-members are at
    /// most two hops apart, and `dst`'s one-hop ring decides every entry:
    /// a member in the ring steps to `dst`, any other member to its first
    /// neighbour in the ring. That is the BFS from `dst`'s choice, because
    /// a BFS discovers the whole ring before any node two hops out. A
    /// member with neither — possible only when the level-0 graph was
    /// edited after the election — sends the row to the BFS of
    /// [`NextHopTable::bfs_level0_row`].
    fn fill_level0_rows(&mut self, g0: &Graph) {
        let stride = self.depth + 1;
        for dst in 0..self.n {
            let cluster = self.cid[dst * stride + 1];
            let mem = csr_row(&self.member_start, &self.members, cluster);
            if mem.len() == 1 {
                continue;
            }
            self.epoch += 1;
            let epoch = self.epoch;
            for &w in g0.neighbors(dst as NodeIdx) {
                self.stamp[w as usize] = epoch;
            }
            let stamp = &self.stamp;
            let in_ring = |&&w: &&NodeIdx| stamp[w as usize] == epoch;
            let row = &mut self.hop[self.row_start[dst]..][..mem.len()];
            let ring_fills_row = row.iter_mut().zip(mem).all(|(entry, &u)| {
                if u as usize == dst {
                    return true;
                }
                let hop = if stamp[u as usize] == epoch {
                    Some(dst as NodeIdx)
                } else {
                    g0.neighbors(u).iter().find(in_ring).copied()
                };
                match hop {
                    Some(w) => *entry = w,
                    None => return false,
                }
                true
            });
            if !ring_fills_row {
                self.level0_fallbacks += 1;
                self.bfs_level0_row(g0, dst);
            }
        }
    }

    /// `dst`'s level-0 row by a BFS from `dst` in the whole graph, for
    /// members beyond its two-hop ball or cut off from it.
    ///
    /// The BFS stops as soon as the last member of the cluster is
    /// discovered: BFS discovers in non-decreasing distance, so by then
    /// every node closer to `dst` than the farthest member — in particular
    /// every one-step-closer neighbour of every member — is discovered
    /// with its final distance, and the choice is the one an exhaustive
    /// BFS makes. A member in another component gets no entry (the BFS
    /// then exhausts `dst`'s).
    fn bfs_level0_row(&mut self, g0: &Graph, dst: usize) {
        let stride = self.depth + 1;
        let cluster = self.cid[dst * stride + 1];
        let mem = csr_row(&self.member_start, &self.members, cluster);
        let mut missing = mem.len() - 1;
        self.epoch += 1;
        let epoch = self.epoch;
        let (stamp, dist, queue) = (&mut self.stamp, &mut self.dist, &mut self.queue);
        stamp[dst] = epoch;
        dist[dst] = 0;
        queue.clear();
        queue.push(dst as NodeIdx);
        let mut next = 0;
        'bfs: while let Some(&u) = queue.get(next) {
            next += 1;
            let dv = dist[u as usize] + 1;
            for &v in g0.neighbors(u) {
                if stamp[v as usize] != epoch {
                    stamp[v as usize] = epoch;
                    dist[v as usize] = dv;
                    queue.push(v);
                    if self.cid[v as usize * stride + 1] == cluster {
                        missing -= 1;
                        if missing == 0 {
                            break 'bfs;
                        }
                    }
                }
            }
        }
        let row = &mut self.hop[self.row_start[dst]..][..mem.len()];
        for (entry, &u) in row.iter_mut().zip(mem) {
            if u as usize == dst || stamp[u as usize] != epoch {
                continue;
            }
            let du = dist[u as usize];
            // An undiscovered neighbour is at least as far as `u`.
            let closer = |&&w: &&NodeIdx| stamp[w as usize] == epoch && dist[w as usize] + 1 == du;
            if let Some(&w) = g0.neighbors(u).iter().find(closer) {
                *entry = w;
            }
        }
    }

    /// Rows of level `k ≥ 1` below the top: for every cluster, gradient
    /// next hops toward its level-0 member set, at the members of the
    /// parent cluster outside it (the siblings that §2.1 says keep an
    /// entry for it).
    ///
    /// Multi-source BFS from the member set in ascending node order,
    /// CONFINED to the parent cluster's membership: a leg toward a sibling
    /// cluster must not leave the common parent, or a node outside it
    /// would re-target a coarser cluster and the packet could oscillate
    /// between branches (strict hierarchical routing's classic pitfall).
    /// The first discoverer of a node is its next hop.
    ///
    /// The searches run scope by scope. A scope with two or more children
    /// has its induced subgraph built once, numbered by `pos` (the row
    /// index) in the level-0 graph's neighbour order, and every child's
    /// search runs on it; the confinement is then the subgraph's, not a
    /// test per visit, and the child's row doubles as the visited set. A
    /// scope's children are found at their first members, in the scope's
    /// ascending member list.
    fn fill_gradient_rows(&mut self, g0: &Graph) {
        let (depth, stride) = (self.depth, self.depth + 1);
        let NextHopTable {
            cid,
            pos,
            level_start,
            member_start,
            members,
            row_start,
            hop,
            queue,
            sub_start,
            sub_adj,
            ..
        } = self;
        queue.clear();
        queue.resize(self.n, 0);
        for k in 1..depth - 1 {
            let up = k + 1;
            for scope in level_start[up]..level_start[up + 1] {
                let span = csr_row(member_start, members, scope);
                let first_child = cid[span[0] as usize * stride + k];
                if csr_row(member_start, members, first_child).len() == span.len() {
                    continue; // only child: nobody needs a route to it
                }
                sub_start.clear();
                sub_adj.clear();
                sub_start.push(0);
                for &m in span {
                    for &w in g0.neighbors(m) {
                        let at = w as usize * stride + up;
                        if cid[at] == scope {
                            sub_adj.push(pos[at]);
                        }
                    }
                    sub_start.push(sub_adj.len() as u32);
                }
                for &m in span {
                    let c = cid[m as usize * stride + k];
                    let sources = csr_row(member_start, members, c);
                    if sources[0] != m {
                        continue; // c was searched at its first member
                    }
                    // Every node of the scope enters the queue once, and
                    // the search is done when the last one has. The row
                    // is the visited set: an entry is written when its
                    // node is discovered, and the sources hold `SOURCE`
                    // until the search ends.
                    let queue = &mut queue[..span.len()];
                    let row = &mut hop[row_start[c as usize]..][..span.len()];
                    for (slot, &s) in queue.iter_mut().zip(sources) {
                        *slot = pos[s as usize * stride + up];
                        row[*slot as usize] = SOURCE;
                    }
                    let (mut head, mut tail) = (0, sources.len());
                    'bfs: while head < tail {
                        let u = queue[head] as usize;
                        head += 1;
                        let from = span[u];
                        for &v in &sub_adj[sub_start[u] as usize..sub_start[u + 1] as usize] {
                            if row[v as usize] == NO_HOP {
                                row[v as usize] = from;
                                queue[tail] = v;
                                tail += 1;
                                if tail == span.len() {
                                    break 'bfs; // the whole scope has its entry
                                }
                            }
                        }
                    }
                    for &local in &queue[..sources.len()] {
                        row[local as usize] = NO_HOP;
                    }
                }
            }
        }
    }

    /// Ascending level-0 members of cluster `c`.
    fn members_of(&self, c: u32) -> &[NodeIdx] {
        csr_row(&self.member_start, &self.members, c)
    }

    /// The entry at `u` for cluster `c` of level `k` below the top, if `u`
    /// holds one.
    fn entry(&self, u: NodeIdx, k: usize, c: u32) -> Option<NodeIdx> {
        let at = u as usize * (self.depth + 1) + k + 1;
        if self.parent[c as usize] != self.cid[at] {
            return None;
        }
        let hop = self.hop[self.row_start[c as usize] + self.pos[at] as usize];
        (hop != NO_HOP).then_some(hop)
    }

    /// The entry at `u` for top-level cluster `c`, which no row stores:
    /// `u`'s first discoverer in a whole-graph BFS from `c`'s members in
    /// ascending order. `None` for `c`'s own members and across a
    /// partition.
    fn top_entry(&self, g0: &Graph, u: NodeIdx, c: u32) -> Option<NodeIdx> {
        let mut seen = vec![false; self.n];
        let mut queue = self.members_of(c).to_vec();
        for &s in &queue {
            seen[s as usize] = true;
        }
        if seen[u as usize] {
            return None;
        }
        let mut next = 0;
        while let Some(&x) = queue.get(next) {
            next += 1;
            for &v in g0.neighbors(x) {
                if !seen[v as usize] {
                    if v == u {
                        return Some(x);
                    }
                    seen[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        None
    }

    /// Number of entries in `u`'s table, with `h` the hierarchy of the
    /// last rebuild. `O(Σ_k |C_k(u)|)` below the top level plus one BFS
    /// over `u`'s component for the top level's entries — analysis and
    /// tests, not pricing.
    pub fn entries(&self, h: &Hierarchy, u: NodeIdx) -> usize {
        if self.depth < 2 {
            return 0;
        }
        let stride = self.depth + 1;
        let row = u as usize * stride;
        let below_top: usize = (0..self.depth - 1)
            .map(|k| {
                // One candidate per child of u's level-(k+1) cluster,
                // counted at the child's first member.
                self.members_of(self.cid[row + k + 1])
                    .iter()
                    .filter(|&&m| {
                        let c = self.cid[m as usize * stride + k];
                        self.members_of(c)[0] == m && self.entry(u, k, c).is_some()
                    })
                    .count()
            })
            .sum();
        below_top + self.top_entries(&h.levels[0].graph, u)
    }

    /// `u`'s top-level entries: one per top-level cluster other than its
    /// own with a member in `u`'s component, which the whole-graph
    /// gradient toward that cluster reaches.
    fn top_entries(&self, g0: &Graph, u: NodeIdx) -> usize {
        let (top, stride) = (self.depth - 1, self.depth + 1);
        let first = self.level_start[top];
        let mut reached = vec![false; (self.level_start[top + 1] - first) as usize];
        for (v, d) in bfs_distances(g0, u).into_iter().enumerate() {
            if d != UNREACHABLE {
                reached[(self.cid[v * stride + top] - first) as usize] = true;
            }
        }
        reached.iter().filter(|&&r| r).count() - 1
    }

    /// Test/debug helper: raw table lookup, with `h` the hierarchy of the
    /// last rebuild. Level-0 entries are keyed by the destination node
    /// itself, the others by the cluster's head. A top-level key costs a
    /// whole-graph BFS.
    #[doc(hidden)]
    pub fn debug_lookup(
        &self,
        h: &Hierarchy,
        u: NodeIdx,
        level: u16,
        head: NodeIdx,
    ) -> Option<NodeIdx> {
        let k = level as usize;
        if self.depth < 2 || k >= self.depth {
            return None;
        }
        let (lo, hi) = (self.level_start[k], self.level_start[k + 1]);
        let local = self.heads[lo as usize..hi as usize]
            .binary_search(&head)
            .ok()?;
        let c = lo + local as u32;
        if k + 1 == self.depth {
            self.top_entry(&h.levels[0].graph, u, c)
        } else {
            self.entry(u, k, c)
        }
    }

    /// One forwarding decision: the next hop from `cur` toward `t` and the
    /// lowest level at which their addresses agree. `None` when they share
    /// no cluster or `cur` has no table entry for the leg (no route).
    fn step_toward(&self, cur: NodeIdx, t: NodeIdx) -> Option<(NodeIdx, usize)> {
        let stride = self.depth + 1;
        let here = &self.cid[cur as usize * stride..][..stride];
        let there = &self.cid[t as usize * stride..][..stride];
        let common = (1..self.depth).find(|&k| here[k] == there[k])?;
        // The leg's target: t itself inside the shared level-1 cluster,
        // else t's cluster one level below the shared one.
        let row = self.row_start[there[common - 1] as usize];
        let next = self.hop[row + self.pos[cur as usize * stride + common] as usize];
        (next != NO_HOP).then_some((next, common))
    }

    /// The table-driven walk from `s` to `t`: calls `visit(next, common)`
    /// for every forwarding decision and returns the hop count, or `None`
    /// when the tables cannot deliver — an entry is missing, or the walk
    /// cycles. (It can: a level-0 entry follows whole-graph distance and
    /// may step out of the level-1 cluster, whose gradient leads back in.)
    ///
    /// Forwarding is a function of `(node, t)`, so a walk that revisits a
    /// node never ends. Brent's scheme catches that within a small
    /// multiple of tail + cycle length: remember the node reached at each
    /// power-of-two hop count, and stop on meeting it again.
    fn walk(&self, s: NodeIdx, t: NodeIdx, mut visit: impl FnMut(NodeIdx, usize)) -> Option<u32> {
        let mut cur = s;
        let mut hops = 0u32;
        let (mut mark, mut mark_again_at) = (s, 1);
        while cur != t {
            let (next, common) = self.step_toward(cur, t)?;
            if next == mark {
                return None;
            }
            visit(next, common);
            cur = next;
            hops += 1;
            if hops == mark_again_at {
                mark = cur;
                mark_again_at *= 2;
            }
        }
        Some(hops)
    }

    /// Hop count of the table-driven route from `s` to `t` — the walk
    /// [`NextHopTable::route`] performs, minus the shortest-path BFS that
    /// call runs only for stretch accounting. `Some(0)` for `s == t`;
    /// `None` when the tables cannot deliver. `O(hops · L)` array reads
    /// per pair, so this is the form hot pricing paths use.
    pub fn route_hops(&self, s: NodeIdx, t: NodeIdx) -> Option<u32> {
        self.walk(s, t, |_, _| {})
    }

    /// Route a packet from `s` to `t` using only per-node tables and `t`'s
    /// hierarchical address. Returns `None` when no route exists.
    pub fn route(&self, h: &Hierarchy, s: NodeIdx, t: NodeIdx) -> Option<PathOutcome> {
        let shortest = hop_distance(&h.levels[0].graph, s, t)?;
        let mut path = vec![s];
        let mut legs = 0u32;
        let mut last_common = usize::MAX;
        let hops = self.walk(s, t, |next, common| {
            if common < last_common {
                legs += 1;
                last_common = common;
            }
            path.push(next);
        })?;
        Some(PathOutcome {
            stretch: if shortest == 0 {
                1.0
            } else {
                hops as f64 / shortest as f64
            },
            path,
            hops,
            shortest,
            legs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::hierarchical_path;
    use chlm_cluster::HierarchyOptions;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::unit_disk::build_unit_disk;

    fn random_hierarchy(n: usize, seed: u64) -> Hierarchy {
        let mut rng = SimRng::seed_from(seed);
        let radius = chlm_geom::disk_radius_for_density(n, 1.25);
        let region = Disk::centered(radius);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, chlm_geom::rtx_for_degree(9.0, 1.25));
        let ids = rng.permutation(n);
        Hierarchy::build(&ids, &g, HierarchyOptions::default())
    }

    #[test]
    fn table_routes_deliver_and_are_valid_walks() {
        let h = random_hierarchy(200, 1);
        let tables = NextHopTable::build(&h);
        let g0 = &h.levels[0].graph;
        let mut rng = SimRng::seed_from(2);
        let mut routed = 0;
        while routed < 30 {
            let s = rng.index(200) as NodeIdx;
            let t = rng.index(200) as NodeIdx;
            match tables.route(&h, s, t) {
                None => continue,
                Some(out) => {
                    assert_eq!(*out.path.first().unwrap(), s);
                    assert_eq!(*out.path.last().unwrap(), t);
                    for w in out.path.windows(2) {
                        assert!(g0.has_edge(w[0], w[1]));
                    }
                    assert!(out.hops >= out.shortest);
                    routed += 1;
                }
            }
        }
    }

    #[test]
    fn table_routes_subset_of_bfs_leg_routes() {
        // Table routing confines legs to the parent cluster, so it can
        // fail where the free-leg BFS router succeeds (internally
        // disconnected parent) — but never vice versa, and the vast
        // majority of connected pairs must route both ways.
        let h = random_hierarchy(150, 3);
        let tables = NextHopTable::build(&h);
        let mut both = 0;
        let mut bfs_only = 0;
        for s in (0..150u32).step_by(7) {
            for t in (0..150u32).step_by(5) {
                let a = tables.route(&h, s, t).is_some();
                let b = hierarchical_path(&h, s, t).is_some();
                assert!(!a || b, "table routed where bfs could not: s={s} t={t}");
                if a && b {
                    both += 1;
                } else if b {
                    bfs_only += 1;
                }
            }
        }
        assert!(both > 0);
        assert!(
            (bfs_only as f64) < 0.1 * (both + bfs_only) as f64,
            "too many table failures: {bfs_only} of {}",
            both + bfs_only
        );
    }

    #[test]
    fn table_stretch_close_to_bfs_leg_stretch() {
        let h = random_hierarchy(250, 4);
        let tables = NextHopTable::build(&h);
        let mut rng = SimRng::seed_from(5);
        let mut t_sum = 0.0;
        let mut b_sum = 0.0;
        let mut count = 0;
        for _ in 0..40 {
            let s = rng.index(250) as NodeIdx;
            let t = rng.index(250) as NodeIdx;
            if let (Some(tp), Some(bp)) = (tables.route(&h, s, t), hierarchical_path(&h, s, t)) {
                t_sum += tp.stretch;
                b_sum += bp.stretch;
                count += 1;
            }
        }
        assert!(count > 10);
        let (tm, bm) = (t_sum / count as f64, b_sum / count as f64);
        assert!(
            (tm - bm).abs() < 0.4,
            "table stretch {tm:.2} vs bfs-leg stretch {bm:.2}"
        );
    }

    #[test]
    fn table_sizes_match_accounting_module() {
        // The entry counts built here should match (up to intra-cluster
        // routes for unreachable members) the closed-form sizes used by
        // E17's accounting.
        let h = random_hierarchy(180, 6);
        let tables = NextHopTable::build(&h);
        let accounted = crate::tables::hierarchical_table_sizes(&h);
        for u in 0..180u32 {
            let built = tables.entries(&h, u);
            assert!(
                built <= accounted[u as usize],
                "node {u}: built {built} > accounted {}",
                accounted[u as usize]
            );
            // Built tables can be smaller only due to disconnected members.
        }
    }

    /// Rule (a) of `fill_level0_rows` — every co-member within two hops
    /// of the destination — holds on every hierarchy elected over its own
    /// graph, and the BFS row is only for a graph edited afterwards.
    #[test]
    fn level0_rows_fall_back_only_on_edited_graphs() {
        for (n, seed) in [(60, 1), (200, 2), (400, 3), (1000, 4)] {
            let table = NextHopTable::build(&random_hierarchy(n, seed));
            assert_eq!(table.level0_fallbacks, 0, "n={n} seed={seed}");
        }
        let star = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)]);
        let mut cut_off = Hierarchy::build(&[9, 1, 2, 3, 4], &star, HierarchyOptions::default());
        cut_off.levels[0].graph.remove_edge(0, 1);
        let table = NextHopTable::build(&cut_off);
        // Node 1's co-members 0, 2 and 3 each reach it by no ring, and 1
        // reaches none of theirs.
        assert_eq!(table.level0_fallbacks, 4);
        assert_eq!(table.route_hops(2, 0), Some(1));
        assert_eq!(table.route_hops(2, 1), None);
    }

    #[test]
    fn self_route_trivial() {
        let h = random_hierarchy(60, 7);
        let tables = NextHopTable::build(&h);
        let out = tables.route(&h, 5, 5).unwrap();
        assert_eq!(out.hops, 0);
        assert_eq!(out.path, vec![5]);
        assert_eq!(tables.route_hops(5, 5), Some(0));
    }

    #[test]
    fn route_hops_matches_full_route() {
        let h = random_hierarchy(180, 8);
        let tables = NextHopTable::build(&h);
        let mut rng = SimRng::seed_from(9);
        let mut checked = 0;
        for _ in 0..400 {
            let s = rng.index(180) as NodeIdx;
            let t = rng.index(180) as NodeIdx;
            match (tables.route(&h, s, t), tables.route_hops(s, t)) {
                (Some(out), Some(hops)) => {
                    assert_eq!(out.hops, hops, "s={s} t={t}");
                    checked += 1;
                }
                (None, None) => {}
                // `route` also returns None for BFS-unreachable pairs it
                // never walks; `route_hops` can still walk a table route
                // only if one exists, and a table route implies
                // reachability — so the walks must agree.
                (a, b) => panic!("divergence s={s} t={t}: route={a:?} hops={b:?}"),
            }
        }
        assert!(checked > 50);
    }
}
