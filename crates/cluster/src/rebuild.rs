//! The one construction path of a [`Hierarchy`]: elect a level in place,
//! contract it into the [`Level`] already sitting above, repeat; then
//! number every level in tree order, top-down.
//!
//! [`Hierarchy::rebuild`] overwrites whatever hierarchy it is handed —
//! nothing, last tick's, another world's — and [`Hierarchy::build`] is the
//! same function run on an empty one. The tick loop calls `rebuild` on the
//! snapshot it retired two ticks earlier, so in steady state a tick's
//! hierarchy costs no allocation: every per-level buffer is overwritten in
//! place, and the level graphs are packed into the carcass's own arenas
//! ([`Graph::copy_from`], [`Graph::assign_edges`]). The tests hold it to a
//! naive oracle (fresh `Vec`s per level, contraction by `add_edge`) that
//! shares no code with it.

use crate::{ElectionId, Hierarchy, HierarchyOptions, Level, NO_SLOT};
use chlm_graph::{Graph, NodeIdx};
use std::collections::BTreeSet;

/// Caller-owned buffers of [`Hierarchy::rebuild`], reused from tick to
/// tick so a rebuild into a carcass of similar shape allocates nothing.
#[derive(Debug, Default)]
pub struct RebuildScratch {
    /// Local indices of the heads elected at the level being contracted.
    heads: Vec<u32>,
    /// Local index → rank in `heads` (`NO_SLOT` for non-heads).
    head_rank: Vec<u32>,
    /// Local index → rank of its vote target (its next-level cluster).
    cluster_of: Vec<u32>,
    /// Cluster pairs joined by a link of the level being contracted.
    edges: Vec<(u32, u32)>,
    /// Local index of a head being numbered → its tree number one level up.
    up: Vec<u32>,
    /// Next free tree number of each cluster one level up.
    cursor: Vec<u32>,
    /// Levels popped by a depth drop, parked for the next deeper tick.
    parked: Vec<Level>,
}

impl Level {
    /// Run one LCA election round over this level's own `nodes` / `graph`,
    /// overwriting the slot table, votes, elector counts and head flags in
    /// place. `n_phys` is the physical population (sizes the slot table).
    fn elect(&mut self, n_phys: usize, ids: &[ElectionId]) {
        let m = self.nodes.len();
        assert_eq!(self.graph.node_count(), m);
        let (nodes, graph) = (&self.nodes, &self.graph);
        self.vote.clear();
        self.vote.extend((0..m as u32).map(|i| {
            let mut best = i;
            let mut best_id = ids[nodes[i as usize] as usize];
            for &nb in graph.neighbors(i) {
                let nb_id = ids[nodes[nb as usize] as usize];
                if nb_id > best_id {
                    best_id = nb_id;
                    best = nb;
                }
            }
            best
        }));
        self.elector_count.clear();
        self.elector_count.resize(m, 0);
        self.is_head.clear();
        self.is_head.resize(m, false);
        for (i, &t) in self.vote.iter().enumerate() {
            if i as u32 == t {
                // Self-vote: the node is the largest in its own closed
                // neighborhood and declares itself head.
                self.is_head[i] = true;
            } else {
                self.elector_count[t as usize] += 1;
                self.is_head[t as usize] = true;
            }
        }
        self.slots.clear();
        self.slots.resize(n_phys, NO_SLOT);
        for (i, &p) in self.nodes.iter().enumerate() {
            self.slots[p as usize] = i as u32;
        }
    }

    /// Overwrite `next`'s `nodes` and `graph` with this elected level's
    /// contraction: the heads (`scratch.heads`, ascending local indices)
    /// become the next level's nodes, adjacent iff their clusters contain
    /// adjacent nodes of this level.
    fn contract_into(&self, next: &mut Level, scratch: &mut RebuildScratch) {
        let RebuildScratch {
            heads,
            head_rank,
            cluster_of,
            edges,
            ..
        } = scratch;
        // Local index -> rank of that head in `heads`; `heads` ascends, so
        // a dense table over local indices is exact.
        head_rank.clear();
        head_rank.resize(self.len(), NO_SLOT);
        for (r, &h) in heads.iter().enumerate() {
            head_rank[h as usize] = r as u32;
        }
        cluster_of.clear();
        cluster_of.extend(self.vote.iter().map(|&t| head_rank[t as usize]));
        next.nodes.clear();
        next.nodes
            .extend(heads.iter().map(|&h| self.nodes[h as usize]));
        // One cluster pair per cross-cluster link (each link once, from its
        // smaller endpoint); the bulk writer deduplicates.
        edges.clear();
        for (u, &cu) in cluster_of.iter().enumerate() {
            let nbrs = self.graph.neighbors(u as u32);
            for &v in &nbrs[nbrs.partition_point(|&v| v as usize <= u)..] {
                let cv = cluster_of[v as usize];
                if cu != cv {
                    edges.push((cu, cv));
                }
            }
        }
        next.graph.assign_edges(heads.len(), edges);
    }

    /// Number this elected level in tree order under the `n_above` nodes
    /// one level up, whose tree numbers are `above` (local index → tree
    /// number; `None` when that level is the top, which keeps its local
    /// order): a stable counting sort of the local indices by their
    /// cluster's tree number, so each cluster's members keep ascending
    /// physical order.
    fn number(&mut self, above: Option<&[u32]>, n_above: usize, scratch: &mut RebuildScratch) {
        let RebuildScratch { up, cursor, .. } = scratch;
        let m = self.len();
        // The level above lists this level's heads in ascending local order.
        up.clear();
        up.resize(m, NO_SLOT);
        for (r, (t, _)) in self.heads().enumerate() {
            up[t as usize] = above.map_or(r as u32, |a| a[r]);
        }
        self.start.clear();
        self.start.resize(n_above + 1, 0);
        for &t in &self.vote {
            self.start[up[t as usize] as usize + 1] += 1;
        }
        for t in 0..n_above {
            self.start[t + 1] += self.start[t];
        }
        cursor.clear();
        cursor.extend_from_slice(&self.start[..n_above]);
        self.rank.clear();
        self.tree_nodes.clear();
        self.tree_nodes.resize(m, 0);
        self.parent.clear();
        self.parent.resize(m, 0);
        for (&phys, &t) in self.nodes.iter().zip(&self.vote) {
            let p = up[t as usize];
            let pos = cursor[p as usize];
            cursor[p as usize] += 1;
            self.rank.push(pos);
            self.tree_nodes[pos as usize] = phys;
            self.parent[pos as usize] = p;
        }
    }
}

impl Hierarchy {
    /// Build the LCA hierarchy over `graph0` with election identities `ids`:
    /// [`Hierarchy::rebuild`] run on an empty hierarchy.
    ///
    /// # Panics
    /// If `ids.len() != graph0.node_count()` or IDs are not distinct.
    pub fn build(ids: &[ElectionId], graph0: &Graph, opts: HierarchyOptions) -> Self {
        debug_assert!(
            {
                let mut seen = BTreeSet::new();
                ids.iter().all(|id| seen.insert(id))
            },
            "election IDs must be distinct"
        );
        let mut h = Hierarchy::default();
        h.rebuild(ids, graph0, opts, &mut RebuildScratch::default());
        h
    }

    /// Overwrite `self` with the LCA hierarchy over `graph0`, reusing every
    /// buffer `self` already owns — the one construction path. Whatever
    /// `self` held (nothing, last tick's hierarchy, another world's) has
    /// no bearing on the result: every field of every level is rewritten
    /// from `ids` and `graph0`, level by level — elect in place, contract
    /// into the [`Level`] already sitting above — until the heads stop
    /// shrinking by `opts.min_reduction` or `opts.max_levels` is reached,
    /// and then every level below the top is numbered in tree order (see
    /// [`Level`]). Levels left over from a deeper `self` are parked in
    /// `scratch`.
    ///
    /// # Panics
    /// If `ids.len() != graph0.node_count()`.
    pub fn rebuild(
        &mut self,
        ids: &[ElectionId],
        graph0: &Graph,
        opts: HierarchyOptions,
        scratch: &mut RebuildScratch,
    ) {
        assert_eq!(ids.len(), graph0.node_count(), "one ID per node");
        let n = ids.len();
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        if self.levels.is_empty() {
            self.levels.push(scratch.parked.pop().unwrap_or_default());
        }
        // Level 0: local == physical.
        let l0 = &mut self.levels[0];
        l0.nodes.clear();
        l0.nodes.extend(0..n as NodeIdx);
        l0.graph.copy_from(graph0);
        let mut k = 0;
        loop {
            let level = &mut self.levels[k];
            level.elect(n, &self.ids);
            scratch.heads.clear();
            scratch
                .heads
                .extend((0..level.len() as u32).filter(|&i| level.is_head[i as usize]));
            let n_heads = scratch.heads.len();
            let reduced = n_heads < level.len()
                && (n_heads as f64) * opts.min_reduction <= level.len() as f64;
            if !(reduced && k + 1 < opts.max_levels) {
                break;
            }
            if self.levels.len() == k + 1 {
                self.levels.push(scratch.parked.pop().unwrap_or_default());
            }
            let (below, above) = self.levels.split_at_mut(k + 1);
            below[k].contract_into(&mut above[0], scratch);
            k += 1;
        }
        scratch.parked.extend(self.levels.drain(k + 1..));
        let top = &mut self.levels[k];
        top.rank.clear();
        top.tree_nodes.clear();
        top.parent.clear();
        top.start.clear();
        for j in (0..k).rev() {
            let (below, above) = self.levels.split_at_mut(j + 1);
            let numbers = (j + 1 < k).then_some(&above[0].rank[..]);
            below[j].number(numbers, above[0].len(), scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_geom::SimRng;
    use proptest::prelude::*;

    // The oracle: the LCA recursion written the obvious way — fresh `Vec`s
    // per level, votes read off each closed neighborhood (a node and its
    // neighbors, sorted), the contracted graph filled one `add_edge` at a
    // time, the slot table and elector counts by filtering, tree order by
    // sorting — sharing no code with the in-place path above.

    fn elect_naive(n_phys: usize, nodes: Vec<NodeIdx>, graph: Graph, ids: &[ElectionId]) -> Level {
        let m = nodes.len() as u32;
        let id_of = |i: u32| ids[nodes[i as usize] as usize];
        let vote: Vec<u32> = (0..m)
            .map(|i| {
                let mut hood = graph.neighbors(i).to_vec();
                hood.push(i);
                hood.sort_unstable();
                *hood.iter().max_by_key(|&&j| id_of(j)).expect("holds i")
            })
            .collect();
        // Local indices of the nodes voting for `t`, ascending.
        let voters = |t: u32| -> Vec<u32> { (0..m).filter(|&i| vote[i as usize] == t).collect() };
        let mut slots = vec![NO_SLOT; n_phys];
        for i in 0..m {
            slots[nodes[i as usize] as usize] = i;
        }
        Level {
            slots,
            elector_count: (0..m)
                .map(|t| voters(t).iter().filter(|&&i| i != t).count() as u32)
                .collect(),
            is_head: (0..m).map(|t| !voters(t).is_empty()).collect(),
            vote: vote.clone(),
            nodes,
            graph,
            ..Level::default()
        }
    }

    /// Tree order, top-down: the top level keeps its local order; below it,
    /// a level's nodes sort by (their cluster's tree number one level up,
    /// physical index).
    fn number_naive(levels: &mut [Level]) {
        let top = levels.len() - 1;
        let mut above_rank: Vec<u32> = (0..levels[top].len() as u32).collect();
        for j in (0..top).rev() {
            let (below, above) = levels.split_at_mut(j + 1);
            let (level, above) = (&mut below[j], &above[0]);
            let parent_of = |i: usize| {
                let head = above.local(level.head_of(i as u32)).expect("a head");
                above_rank[head as usize]
            };
            let mut order: Vec<usize> = (0..level.len()).collect();
            order.sort_by_key(|&i| (parent_of(i), level.nodes[i]));
            let parent: Vec<u32> = order.iter().map(|&i| parent_of(i)).collect();
            let mut rank = vec![0; level.len()];
            for (pos, &i) in order.iter().enumerate() {
                rank[i] = pos as u32;
            }
            level.tree_nodes = order.iter().map(|&i| level.nodes[i]).collect();
            level.start = (0..=above.len() as u32)
                .map(|t| parent.iter().filter(|&&p| p < t).count() as u32)
                .collect();
            level.parent = parent;
            level.rank = rank.clone();
            above_rank = rank;
        }
    }

    fn contract_naive(level: &Level) -> (Vec<NodeIdx>, Graph) {
        let heads: Vec<u32> = level.heads().map(|(i, _)| i).collect();
        let rank = |i: u32| {
            let head = level.vote[i as usize];
            heads.iter().position(|&h| h == head).expect("a head") as u32
        };
        let mut g = Graph::with_nodes(heads.len());
        for (u, v) in level.graph.edges() {
            if rank(u) != rank(v) {
                g.add_edge(rank(u), rank(v));
            }
        }
        let nodes = heads.iter().map(|&h| level.nodes[h as usize]).collect();
        (nodes, g)
    }

    /// What [`Hierarchy::build`] must return.
    fn build_naive(ids: &[ElectionId], graph0: &Graph, opts: HierarchyOptions) -> Hierarchy {
        let n = graph0.node_count();
        let mut levels: Vec<Level> = Vec::new();
        let mut next = Some(((0..n as NodeIdx).collect(), graph0.clone()));
        while let Some((nodes, graph)) = next.take() {
            let level = elect_naive(n, nodes, graph, ids);
            let heads = level.heads().count();
            let reduced =
                heads < level.len() && (heads as f64) * opts.min_reduction <= level.len() as f64;
            if reduced && levels.len() + 1 < opts.max_levels {
                next = Some(contract_naive(&level));
            }
            levels.push(level);
        }
        number_naive(&mut levels);
        Hierarchy {
            levels,
            ids: ids.to_vec(),
        }
    }

    /// Distinct pseudo-random election IDs for `n` nodes.
    fn ids_for(n: usize, salt: u64) -> Vec<ElectionId> {
        SimRng::seed_from(salt).permutation(n)
    }

    fn toggle(g: &mut Graph, pairs: &[(u32, u32)]) {
        let n = g.node_count() as u32;
        for &(a, b) in pairs {
            let (u, v) = (a % n.max(1), b % n.max(1));
            if u != v && !g.add_edge(u, v) {
                g.remove_edge(u, v);
            }
        }
    }

    /// The `max_levels` × `min_reduction` grid every test sweeps.
    fn opts_grid() -> Vec<HierarchyOptions> {
        let mut grid = Vec::new();
        for max_levels in [1, 3, usize::MAX] {
            for min_reduction in [1.0, 1.25, 1.5] {
                grid.push(HierarchyOptions {
                    max_levels,
                    min_reduction,
                });
            }
        }
        grid
    }

    /// `carcass`, rebuilt over `(ids, g)`, must be the oracle's hierarchy.
    fn assert_rebuilds_to(
        carcass: &mut Hierarchy,
        ids: &[ElectionId],
        g: &Graph,
        opts: HierarchyOptions,
        scratch: &mut RebuildScratch,
        oracle: &Hierarchy,
    ) {
        carcass.rebuild(ids, g, opts, scratch);
        assert_eq!(carcass, oracle);
        carcass.check_invariants();
    }

    /// Every world as the carcass of every other: tiny (`n` = 0, 1, 2),
    /// edgeless, deep (a path), shallow (a star), two-component and mixed,
    /// under every option pair, through one scratch so parked levels of one
    /// world are handed to the next.
    #[test]
    fn no_carcass_leaks_into_a_rebuild() {
        let path = |n: u32| (0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>();
        let star = |n: u32| (1..n).map(|i| (0, i)).collect::<Vec<_>>();
        let mut two_parts = path(30);
        two_parts.extend((30..36).flat_map(|u| (u + 1..36).map(move |v| (u, v))));
        let mut mixed = Graph::with_nodes(40);
        let mut rng = SimRng::seed_from(7);
        let pairs: Vec<(u32, u32)> = (0..90)
            .map(|_| (rng.index(40) as u32, rng.index(40) as u32))
            .collect();
        toggle(&mut mixed, &pairs);
        let worlds = [
            Graph::with_nodes(0),
            Graph::with_nodes(1),
            Graph::with_nodes(2),
            Graph::from_edges(2, &[(0, 1)]),
            Graph::with_nodes(10),
            Graph::from_edges(64, &path(64)),
            Graph::from_edges(20, &star(20)),
            Graph::from_edges(36, &two_parts),
            mixed,
        ];
        let mut scratch = RebuildScratch::default();
        for opts in opts_grid() {
            for (a, from) in worlds.iter().enumerate() {
                let from_ids = ids_for(from.node_count(), a as u64);
                // Carcasses come from the unlimited build, so they are deeper
                // than (or as deep as) anything `opts` lets the target be.
                let carcass = Hierarchy::build(&from_ids, from, HierarchyOptions::default());
                for (b, to) in worlds.iter().enumerate() {
                    let ids = ids_for(to.node_count(), 100 + b as u64);
                    let oracle = build_naive(&ids, to, opts);
                    assert_eq!(Hierarchy::build(&ids, to, opts), oracle);
                    assert_rebuilds_to(&mut carcass.clone(), &ids, to, opts, &mut scratch, &oracle);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A world under random edge toggles, rebuilt each tick into (a) an
        /// empty hierarchy, (b) its own previous tick's hierarchy and (c) the
        /// hierarchy of an unrelated world — larger or smaller, deeper or
        /// shallower, as the draw has it — always equals the oracle.
        #[test]
        fn rebuild_equals_naive_over_toggle_sequences(
            n in 0usize..48,
            seed_pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..120),
            ticks in proptest::collection::vec(
                proptest::collection::vec((0u32..1000, 0u32..1000), 0..8), 1..10),
            other_n in 0usize..80,
            other_pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..160),
            pick in 0usize..9,
            salt in 0u64..1000,
        ) {
            let opts = opts_grid()[pick];
            let ids = ids_for(n, salt);
            let mut g = Graph::with_nodes(n);
            toggle(&mut g, &seed_pairs);
            let mut other = Graph::with_nodes(other_n);
            toggle(&mut other, &other_pairs);
            let other =
                Hierarchy::build(&ids_for(other_n, salt + 1), &other, HierarchyOptions::default());
            let mut scratch = RebuildScratch::default();
            let mut previous = Hierarchy::default();
            for pairs in &ticks {
                toggle(&mut g, pairs);
                let oracle = build_naive(&ids, &g, opts);
                prop_assert_eq!(&Hierarchy::build(&ids, &g, opts), &oracle);
                assert_rebuilds_to(&mut previous, &ids, &g, opts, &mut scratch, &oracle);
                assert_rebuilds_to(&mut other.clone(), &ids, &g, opts, &mut scratch, &oracle);
            }
        }
    }
}
