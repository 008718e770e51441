//! Event-driven incremental hierarchy maintenance.
//!
//! The paper's ALCA (§2.3, Fig. 3) is *asynchronous*: a node reacts to
//! individual link-state change events, re-elects locally, and escalates a
//! reorganization to the next level only when its level-k state actually
//! changed. [`Hierarchy::build`] instead recomputes the whole fixpoint from
//! scratch — correct (the fixpoint is a pure function of topology + IDs)
//! but `O(n)` per tick regardless of churn.
//!
//! [`HierarchyMaintainer`] closes that gap. It consumes the link add/remove
//! diffs the Verlet maintainer ([`chlm_graph::UnitDiskMaintainer`]) already
//! produces and updates the hierarchy only where the diff's closure
//! reaches:
//!
//! * **Level 0** is repaired in place. A vote is a function of a node's
//!   closed neighborhood only, so exactly the flip endpoints can change
//!   votes — each is re-elected in `O(deg)`. Elector counts and head flags
//!   follow incrementally.
//! * **Escalation rule**: levels above 0 are reconstructed (from the level
//!   below, via the same election used by the full build) only when the
//!   level-0 repair changed a vote, a head flag, or flipped a
//!   *cross-cluster* link — the only changes visible to level 1.
//!   Reconstruction walks upward and stops at the first level that comes
//!   out identical to before: by induction everything above it is already
//!   the fixpoint. Upper levels shrink geometrically, so even a "dirty"
//!   tick costs a small fraction of a full rebuild.
//! * A tick whose topology change arrived without a diff (the Verlet
//!   fallback rebuild) is resynchronized by merge-walking the stored
//!   level-0 adjacency against the new graph — `O(n + |E|)`, no
//!   allocation — and then treated exactly like a diffed tick.
//!
//! Because level-0 repair reproduces exactly what a fresh election would
//! compute, and upper levels are rebuilt by the same `elect` /
//! `build_next_level` used by [`Hierarchy::build_owned`], the maintained
//! hierarchy is *equal* (not just equivalent) to the full rebuild at every
//! tick — `tests/hierarchy_equivalence.rs` and the sim-level oracle pin
//! this, and the full-rebuild path stays available as the A/B oracle.

use crate::{build_next_level, elect, ElectionId, Hierarchy, HierarchyOptions, Level};
use chlm_graph::{EdgeFlip, Graph, NodeIdx};

/// Maintains the LCA hierarchy of a moving topology across ticks; see the
/// module docs for the escalation rule and equivalence argument.
#[derive(Debug)]
pub struct HierarchyMaintainer {
    opts: HierarchyOptions,
    n: usize,
    tick: u64,
    /// The authoritative evolving hierarchy (updated in place).
    cur: Hierarchy,
    // --- scratch buffers (reused across ticks, no steady-state allocs) ---
    flip_scratch: Vec<EdgeFlip>,
    touched: Vec<NodeIdx>,
    /// Tick-stamped marks deduplicating `touched` (len n).
    mark: Vec<u64>,
    /// Level-0 vote changes this tick: `(node, old_target, new_target)`.
    vote_changes: Vec<(u32, u32, u32)>,
    /// Level-0 locals whose head flag needs recomputing.
    affected: Vec<u32>,
    // --- stats ---
    diff_ticks: u64,
    resync_ticks: u64,
    escalations: u64,
}

impl HierarchyMaintainer {
    /// Full build over the initial topology (the only `O(n log n)`-ish
    /// construction; every subsequent tick is churn-proportional).
    pub fn new(ids: &[ElectionId], graph: &Graph, opts: HierarchyOptions) -> Self {
        let n = graph.node_count();
        HierarchyMaintainer {
            opts,
            n,
            tick: 0,
            cur: Hierarchy::build(ids, graph, opts),
            flip_scratch: Vec::new(),
            touched: Vec::new(),
            mark: vec![u64::MAX; n],
            vote_changes: Vec::new(),
            affected: Vec::new(),
            diff_ticks: 0,
            resync_ticks: 0,
            escalations: 0,
        }
    }

    /// The maintained hierarchy — always equal to
    /// `Hierarchy::build(ids, graph, opts)` for the last-advanced graph.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.cur
    }

    /// Maintenance tick counter (one per `advance`).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Ticks advanced from a supplied link diff.
    pub fn diff_tick_count(&self) -> u64 {
        self.diff_ticks
    }

    /// Ticks resynchronized by graph comparison (no diff available).
    pub fn resync_tick_count(&self) -> u64 {
        self.resync_ticks
    }

    /// Ticks whose level-0 repair escalated above level 0.
    pub fn escalation_count(&self) -> u64 {
        self.escalations
    }

    /// Materialize an owned snapshot of the current hierarchy, reusing the
    /// allocations of a retired snapshot when one is handed back.
    pub fn snapshot_into(&self, carcass: Option<Hierarchy>) -> Hierarchy {
        let mut h = carcass.unwrap_or(Hierarchy {
            levels: Vec::new(),
            ids: Vec::new(),
        });
        h.ids.clear();
        h.ids.extend_from_slice(&self.cur.ids);
        h.levels.truncate(self.cur.levels.len());
        while h.levels.len() < self.cur.levels.len() {
            h.levels.push(Level::empty());
        }
        for (dst, src) in h.levels.iter_mut().zip(&self.cur.levels) {
            dst.copy_from(src);
        }
        h
    }

    /// Advance to the next topology snapshot. `diff` is the tick's link
    /// flips when the topology maintainer patched incrementally; `None`
    /// (a Verlet fallback rebuild, or an externally produced graph) makes
    /// the maintainer derive the flips itself by comparing adjacencies.
    pub fn advance(&mut self, graph: &Graph, diff: Option<&[EdgeFlip]>) {
        assert_eq!(graph.node_count(), self.n, "population size changed");
        self.tick += 1;
        match diff {
            Some(d) => {
                self.diff_ticks += 1;
                self.flip_scratch.clear();
                self.flip_scratch.extend_from_slice(d);
            }
            None => {
                self.resync_ticks += 1;
                self.compute_flips(graph);
            }
        }
        self.apply_flips();
        debug_assert_eq!(
            &self.cur.levels[0].graph, graph,
            "link diff does not connect the stored snapshot to the new graph"
        );
        let dirty = self.repair_level0();
        if dirty {
            self.escalations += 1;
            self.rebuild_upper_levels();
        }
    }

    /// Merge-walk the stored level-0 adjacency against `graph`, filling
    /// `flip_scratch` with the symmetric difference (each edge once,
    /// `u < v`, ascending).
    fn compute_flips(&mut self, graph: &Graph) {
        self.flip_scratch.clear();
        let old = &self.cur.levels[0].graph;
        for u in 0..self.n as NodeIdx {
            let a = old.neighbors(u);
            let b = graph.neighbors(u);
            // Only the v > u halves, to see each undirected edge once.
            let (mut i, mut j) = (
                a.partition_point(|&v| v <= u),
                b.partition_point(|&v| v <= u),
            );
            while i < a.len() || j < b.len() {
                match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&x), y) if y.is_none_or(|&y| x < y) => {
                        self.flip_scratch.push(EdgeFlip {
                            u,
                            v: x,
                            add: false,
                        });
                        i += 1;
                    }
                    (_, Some(&y)) => {
                        self.flip_scratch.push(EdgeFlip { u, v: y, add: true });
                        j += 1;
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Apply the tick's flips to the stored level-0 graph and collect the
    /// distinct endpoints into `touched`.
    fn apply_flips(&mut self) {
        self.touched.clear();
        let g = &mut self.cur.levels[0].graph;
        for f in &self.flip_scratch {
            let effective = if f.add {
                g.add_edge(f.u, f.v)
            } else {
                g.remove_edge(f.u, f.v)
            };
            debug_assert!(effective, "stale link flip {f:?}");
            for p in [f.u, f.v] {
                if self.mark[p as usize] != self.tick {
                    self.mark[p as usize] = self.tick;
                    self.touched.push(p);
                }
            }
        }
    }

    /// Re-elect every touched level-0 node and propagate elector-count /
    /// head-flag consequences. Returns whether anything level 1 can see
    /// changed: a vote, a head flag, or a cross-cluster link flip.
    fn repair_level0(&mut self) -> bool {
        self.vote_changes.clear();
        let ids = &self.cur.ids;
        let l0 = &mut self.cur.levels[0];
        for &p in &self.touched {
            // Level 0: local == physical, ids[nodes[i]] == ids[i].
            let mut best = p;
            let mut best_id = ids[p as usize];
            for &nb in l0.graph.neighbors(p) {
                let nb_id = ids[nb as usize];
                if nb_id > best_id {
                    best_id = nb_id;
                    best = nb;
                }
            }
            let old = l0.vote[p as usize];
            if old != best {
                l0.vote[p as usize] = best;
                self.vote_changes.push((p, old, best));
            }
        }
        let cross_flip = self
            .flip_scratch
            .iter()
            .any(|f| l0.vote[f.u as usize] != l0.vote[f.v as usize]);
        if self.vote_changes.is_empty() {
            // No vote changed, so elector counts, head flags, membership
            // and cluster adjacency are all untouched; level 1 sees
            // nothing unless a cross-cluster link flipped.
            return cross_flip;
        }
        // Elector counts move with the vote edges; head flags are then a
        // pure function of (count, self-vote) on the affected locals only.
        self.affected.clear();
        let tick = self.tick;
        let mark = &mut self.mark;
        let affected = &mut self.affected;
        // Reuse `mark` with a distinct epoch (tick is already consumed by
        // `touched`; shift into a disjoint epoch space).
        let epoch = u64::MAX - tick;
        let mut note = |x: u32| {
            if mark[x as usize] != epoch {
                mark[x as usize] = epoch;
                affected.push(x);
            }
        };
        for &(i, old_t, new_t) in &self.vote_changes {
            note(i);
            note(old_t);
            note(new_t);
        }
        for &(i, old_t, new_t) in &self.vote_changes {
            if i != old_t {
                l0.elector_count[old_t as usize] -= 1;
            }
            if i != new_t {
                l0.elector_count[new_t as usize] += 1;
            }
        }
        for &x in self.affected.iter() {
            l0.is_head[x as usize] = l0.elector_count[x as usize] > 0 || l0.vote[x as usize] == x;
        }
        l0.rebuild_derived(self.n);
        true
    }

    /// Reconstruct levels 1.. from the repaired level 0, stopping at the
    /// first level that comes out identical (everything above it is then
    /// already the fixpoint — the paper's escalation-stops-here property).
    /// Mirrors `Hierarchy::build_owned`'s loop exactly, including the
    /// `min_reduction` stall check and `max_levels` cap, so depth changes
    /// reproduce the full build's decisions bit for bit.
    fn rebuild_upper_levels(&mut self) {
        let mut k = 0usize;
        let mut heads: Vec<u32> = Vec::new();
        loop {
            let level = &self.cur.levels[k];
            heads.clear();
            heads.extend((0..level.len() as u32).filter(|&i| level.is_head[i as usize]));
            let reduced = heads.len() < level.len()
                && (heads.len() as f64) * self.opts.min_reduction <= level.len() as f64;
            if !(reduced && k + 1 < self.opts.max_levels) {
                // Recursion ends below k+1: drop any stale upper levels.
                self.cur.levels.truncate(k + 1);
                return;
            }
            let (nodes, graph) = build_next_level(&self.cur.levels[k], &heads);
            let new_level = elect(self.n, nodes, graph, &self.cur.ids);
            if self.cur.levels.get(k + 1) == Some(&new_level) {
                // Identical level ⇒ identical fixpoint above it: the old
                // levels k+2.. were built from exactly this state.
                return;
            }
            if k + 1 < self.cur.levels.len() {
                self.cur.levels[k + 1] = new_level;
            } else {
                self.cur.levels.push(new_level);
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyOptions;

    /// Deterministic splitmix64 for dependency-free pseudo-randomness.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Toggle a few random (u, v) pairs in `g`, returning the flips in the
    /// order applied.
    fn toggle_random(g: &mut Graph, n: usize, seed: u64, count: usize) -> Vec<EdgeFlip> {
        let mut flips = Vec::new();
        for t in 0..count {
            let r = mix(seed.wrapping_mul(1_000_003).wrapping_add(t as u64));
            let u = (r % n as u64) as NodeIdx;
            let v = ((r >> 32) % n as u64) as NodeIdx;
            if u == v {
                continue;
            }
            let (u, v) = (u.min(v), u.max(v));
            if g.has_edge(u, v) {
                g.remove_edge(u, v);
                flips.push(EdgeFlip { u, v, add: false });
            } else {
                g.add_edge(u, v);
                flips.push(EdgeFlip { u, v, add: true });
            }
        }
        flips
    }

    fn random_graph(n: usize, seed: u64, edges: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        toggle_random(&mut g, n, seed, edges);
        g
    }

    fn opts() -> HierarchyOptions {
        HierarchyOptions {
            max_levels: 6,
            min_reduction: 1.25,
        }
    }

    #[test]
    fn tracks_reference_build_with_diffs() {
        for seed in 0..4u64 {
            let n = 80;
            let ids: Vec<u64> = (0..n as u64).map(|i| mix(i ^ seed)).collect();
            let mut g = random_graph(n, seed, 160);
            let mut m = HierarchyMaintainer::new(&ids, &g, opts());
            for tick in 1..40u64 {
                let flips = toggle_random(&mut g, n, seed ^ (tick << 8), 5);
                m.advance(&g, Some(&flips));
                let oracle = Hierarchy::build(&ids, &g, opts());
                assert_eq!(
                    m.hierarchy(),
                    &oracle,
                    "divergence at seed {seed} tick {tick}"
                );
                m.hierarchy().check_invariants();
            }
            assert!(m.escalation_count() > 0, "escalation never exercised");
        }
    }

    #[test]
    fn tracks_reference_build_without_diffs() {
        let n = 60;
        let seed = 77u64;
        let ids: Vec<u64> = (0..n as u64).map(|i| mix(i ^ seed)).collect();
        let mut g = random_graph(n, seed, 120);
        let mut m = HierarchyMaintainer::new(&ids, &g, opts());
        for tick in 1..25u64 {
            toggle_random(&mut g, n, seed ^ (tick << 8), 4);
            m.advance(&g, None); // resync path: flips derived by comparison
            let oracle = Hierarchy::build(&ids, &g, opts());
            assert_eq!(m.hierarchy(), &oracle, "divergence at tick {tick}");
        }
        assert_eq!(m.resync_tick_count(), 24);
        assert_eq!(m.diff_tick_count(), 0);
    }

    #[test]
    fn quiet_ticks_do_not_escalate() {
        let n = 40;
        let ids: Vec<u64> = (0..n as u64).map(|i| mix(i ^ 5)).collect();
        let g = random_graph(n, 5, 80);
        let mut m = HierarchyMaintainer::new(&ids, &g, opts());
        let before = m.escalation_count();
        for _ in 0..5 {
            m.advance(&g, Some(&[])); // no flips at all
        }
        assert_eq!(m.escalation_count(), before);
        assert_eq!(m.hierarchy(), &Hierarchy::build(&ids, &g, opts()));
    }

    #[test]
    fn snapshot_into_reuses_carcass_and_matches() {
        let n = 50;
        let ids: Vec<u64> = (0..n as u64).map(|i| mix(i ^ 9)).collect();
        let mut g = random_graph(n, 9, 100);
        let mut m = HierarchyMaintainer::new(&ids, &g, opts());
        let mut carcass: Option<Hierarchy> = None;
        for tick in 1..12u64 {
            let flips = toggle_random(&mut g, n, 9 ^ (tick << 8), 3);
            m.advance(&g, Some(&flips));
            let snap = m.snapshot_into(carcass.take());
            assert_eq!(&snap, m.hierarchy());
            snap.check_invariants();
            carcass = Some(snap);
        }
    }
}
