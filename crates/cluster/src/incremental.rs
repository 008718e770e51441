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
//!
//! ## Cluster arena
//!
//! Alongside the hierarchy the maintainer keeps a [`ClusterArena`]:
//! generation-stamped records for every live cluster (the level-k cluster
//! headed by physical node `h` exists while `h` is a head at level k-1).
//! Records live in slab slots recycled through a free list; a slot's
//! generation bumps on reuse so a stale `(slot, gen)` handle can never
//! alias a new cluster. Each record carries the tick its *membership* last
//! changed, giving downstream caches (the LM server's clean-subtree entry
//! reuse) an O(1) invalidation key that survives head relabeling.

use crate::{build_next_level, elect, ElectionId, Hierarchy, HierarchyOptions, Level, NO_SLOT};
use chlm_graph::{EdgeFlip, Graph, NodeIdx};

/// Stable handle to a live cluster record: slab slot plus the generation
/// observed at lookup. A handle is valid while `arena.generation(slot) ==
/// gen`; a recycled slot fails that check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterHandle {
    pub slot: u32,
    pub gen: u32,
}

/// Generation-stamped slab of live cluster records, indexed both by slot
/// and by `(cluster level, head physical id)`.
#[derive(Debug, Clone, Default)]
pub struct ClusterArena {
    /// Slot -> head physical id (valid while live).
    head: Vec<NodeIdx>,
    /// Slot -> cluster level `k` (members are level-(k-1) nodes).
    level: Vec<u16>,
    /// Slot -> generation, bumped every allocation so recycled slots are
    /// distinguishable from the records they replace.
    gen: Vec<u32>,
    /// Slot -> tick the cluster's membership last changed (allocation
    /// counts as a change).
    changed_at: Vec<u64>,
    /// Slot -> tick anything in the cluster's *subtree* (itself or any
    /// descendant cluster, down to level 1) last changed membership.
    /// Maintained by upward propagation each tick; this is the stamp the
    /// LM server's entry reuse keys on, because a hosted entry is a
    /// function of the whole subtree (every member list and candidate
    /// weight on the walk down), not just the direct member list.
    subtree: Vec<u64>,
    live: Vec<bool>,
    /// LIFO free list of dead slots.
    free: Vec<u32>,
    /// `by_head[k][h]` -> slot of the live level-k cluster headed by
    /// physical node `h`, or `NO_SLOT`.
    by_head: Vec<Vec<u32>>,
    n: usize,
}

impl ClusterArena {
    fn new(n: usize) -> Self {
        ClusterArena {
            n,
            ..Default::default()
        }
    }

    /// Slot handle of the live level-`k` cluster headed by `head`, if any.
    pub fn lookup(&self, k: usize, head: NodeIdx) -> Option<ClusterHandle> {
        let slot = *self.by_head.get(k)?.get(head as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(ClusterHandle {
            slot,
            gen: self.gen[slot as usize],
        })
    }

    /// Tick the slot's membership last changed. Meaningful for live slots.
    pub fn changed_at(&self, slot: u32) -> u64 {
        self.changed_at[slot as usize]
    }

    /// Tick the slot's subtree (the cluster or any descendant cluster)
    /// last changed membership. Always ≥ [`ClusterArena::changed_at`];
    /// `subtree_changed_at(s) <= t` proves the cluster's member list *and*
    /// every member's subtree weight are unchanged since tick `t`.
    pub fn subtree_changed_at(&self, slot: u32) -> u64 {
        self.subtree[slot as usize]
    }

    /// Current generation of the slot.
    pub fn generation(&self, slot: u32) -> u32 {
        self.gen[slot as usize]
    }

    /// Number of live cluster records.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Total slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.head.len()
    }

    fn level_table(&mut self, k: usize) -> &mut Vec<u32> {
        while self.by_head.len() <= k {
            self.by_head.push(Vec::new());
        }
        let t = &mut self.by_head[k];
        if t.len() < self.n {
            t.resize(self.n, NO_SLOT);
        }
        t
    }

    /// Allocate (or re-stamp) the record for the level-`k` cluster headed
    /// by `head`.
    fn ensure(&mut self, k: usize, head: NodeIdx, tick: u64) {
        let n = self.n;
        debug_assert!((head as usize) < n);
        let t = self.level_table(k);
        if t[head as usize] != NO_SLOT {
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.head[i] = head;
                self.level[i] = k as u16;
                self.gen[i] = self.gen[i].wrapping_add(1);
                self.changed_at[i] = tick;
                self.subtree[i] = tick;
                self.live[i] = true;
                s
            }
            None => {
                let s = self.head.len() as u32;
                self.head.push(head);
                self.level.push(k as u16);
                self.gen.push(0);
                self.changed_at.push(tick);
                self.subtree.push(tick);
                self.live.push(true);
                s
            }
        };
        self.by_head[k][head as usize] = slot;
    }

    /// Retire the record for the level-`k` cluster headed by `head`.
    fn kill(&mut self, k: usize, head: NodeIdx) {
        let t = self.level_table(k);
        let slot = std::mem::replace(&mut t[head as usize], NO_SLOT);
        if slot != NO_SLOT {
            self.live[slot as usize] = false;
            self.free.push(slot);
        }
    }

    /// Stamp the level-`k` cluster headed by `head` as membership-changed.
    fn stamp(&mut self, k: usize, head: NodeIdx, tick: u64) {
        if let Some(h) = self.lookup(k, head) {
            self.changed_at[h.slot as usize] = tick;
            self.subtree[h.slot as usize] = tick;
        }
    }

    /// Kill every live cluster at level `k`.
    fn kill_level(&mut self, k: usize) {
        if k >= self.by_head.len() {
            return;
        }
        for h in 0..self.by_head[k].len() {
            if self.by_head[k][h] != NO_SLOT {
                self.kill(k, h as NodeIdx);
            }
        }
    }

    /// Structural audit: both lookup directions agree, the free list holds
    /// exactly the dead slots, and the live record set matches the heads
    /// of `hierarchy` level by level.
    pub fn audit(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        // Slot tables point at live records that point back.
        for (k, table) in self.by_head.iter().enumerate() {
            for (h, &slot) in table.iter().enumerate() {
                if slot == NO_SLOT {
                    continue;
                }
                let i = slot as usize;
                if i >= self.head.len() || !self.live[i] {
                    return Err(format!("level-{k} head {h} maps to dead slot {slot}"));
                }
                if self.head[i] as usize != h || self.level[i] as usize != k {
                    return Err(format!(
                        "slot {slot} desynced: record says level {} head {}, table says level {k} head {h}",
                        self.level[i], self.head[i]
                    ));
                }
            }
        }
        // Live records are reachable through the table.
        for i in 0..self.head.len() {
            if !self.live[i] {
                continue;
            }
            let (k, h) = (self.level[i] as usize, self.head[i] as usize);
            let found = self.by_head.get(k).and_then(|t| t.get(h)).copied();
            if found != Some(i as u32) {
                return Err(format!(
                    "live slot {i} unreachable via (level {k}, head {h})"
                ));
            }
        }
        // Subtree stamps dominate direct membership stamps.
        for i in 0..self.head.len() {
            if self.live[i] && self.subtree[i] < self.changed_at[i] {
                return Err(format!(
                    "slot {i} subtree stamp {} behind membership stamp {}",
                    self.subtree[i], self.changed_at[i]
                ));
            }
        }
        // Free list = dead slots, exactly once.
        let mut seen = vec![false; self.head.len()];
        for &s in &self.free {
            let i = s as usize;
            if i >= seen.len() || seen[i] || self.live[i] {
                return Err(format!("free list corrupt at slot {s}"));
            }
            seen[i] = true;
        }
        if self.free.len() + self.live_count() != self.head.len() {
            return Err("free list does not cover all dead slots".into());
        }
        // Live clusters == heads of the hierarchy, per level.
        for k in 1..=hierarchy.depth() {
            let level = &hierarchy.levels[k - 1];
            for (_, head) in level.heads() {
                if self.lookup(k, head).is_none() {
                    return Err(format!("missing record for level-{k} cluster head {head}"));
                }
            }
        }
        let total_heads: usize = hierarchy
            .levels
            .iter()
            .map(|l| l.is_head.iter().filter(|&&h| h).count())
            .sum();
        if self.live_count() != total_heads {
            return Err(format!(
                "live record count {} != head count {}",
                self.live_count(),
                total_heads
            ));
        }
        Ok(())
    }
}

/// Borrowed view of a maintainer's arena at its current tick, handed to
/// downstream caches as an O(1) invalidation oracle: a per-cluster
/// decision cached at maintainer tick `t` is still valid iff the
/// cluster's record is live and `subtree_changed_at(slot) <= t`. Callers
/// must observe every tick in lockstep (checkable via `tick`); a gap
/// means stamps for the skipped ticks were overwritten and the consumer
/// has to fall back to full invalidation.
#[derive(Clone, Copy)]
pub struct ArenaStamps<'a> {
    /// The live cluster-record arena.
    pub arena: &'a ClusterArena,
    /// The maintainer tick the stamps are current for.
    pub tick: u64,
}

/// Maintains the LCA hierarchy of a moving topology across ticks; see the
/// module docs for the escalation rule and equivalence argument.
#[derive(Debug)]
pub struct HierarchyMaintainer {
    opts: HierarchyOptions,
    n: usize,
    tick: u64,
    /// The authoritative evolving hierarchy (updated in place).
    cur: Hierarchy,
    arena: ClusterArena,
    // --- scratch buffers (reused across ticks, no steady-state allocs) ---
    flip_scratch: Vec<EdgeFlip>,
    touched: Vec<NodeIdx>,
    /// Tick-stamped marks deduplicating `touched` (len n).
    mark: Vec<u64>,
    /// Level-0 vote changes this tick: `(node, old_target, new_target)`.
    vote_changes: Vec<(u32, u32, u32)>,
    /// Level-0 locals whose head flag needs recomputing, with prior value.
    affected: Vec<(u32, bool)>,
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
        let cur = Hierarchy::build(ids, graph, opts);
        let mut arena = ClusterArena::new(n);
        for (k, level) in cur.levels.iter().enumerate() {
            for (_, head) in level.heads() {
                arena.ensure(k + 1, head, 0);
            }
        }
        HierarchyMaintainer {
            opts,
            n,
            tick: 0,
            cur,
            arena,
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

    /// The cluster record arena.
    pub fn arena(&self) -> &ClusterArena {
        &self.arena
    }

    /// The arena's invalidation stamps as of the current tick, for
    /// downstream caches (see [`ArenaStamps`]).
    pub fn stamps(&self) -> ArenaStamps<'_> {
        ArenaStamps {
            arena: &self.arena,
            tick: self.tick,
        }
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
            self.propagate_subtree_stamps();
        }
    }

    /// Push this tick's direct membership stamps up the (new) ancestor
    /// chains: a cluster whose descendant changed membership gets its
    /// `subtree` stamp advanced, because its subtree node count — the HRW
    /// walk's candidate weight — may have moved even though its own member
    /// list did not. One pass over live slots; each climb early-exits at
    /// the first already-stamped ancestor (whose own chain is stamped by
    /// its originating climb), so total work is proportional to the
    /// stamped forest, not depth × churn.
    fn propagate_subtree_stamps(&mut self) {
        let tick = self.tick;
        let levels = &self.cur.levels;
        let arena = &mut self.arena;
        for i in 0..arena.head.len() {
            if !arena.live[i] || arena.subtree[i] != tick {
                continue;
            }
            let mut kc = arena.level[i] as usize;
            let mut head = arena.head[i];
            while kc < levels.len() {
                let level = &levels[kc];
                // audit: infallible — a live level-kc cluster's head is a
                // node of hierarchy level kc while levels above exist.
                let local = level
                    .local(head)
                    .expect("live cluster head above its level");
                let parent = level.nodes[level.vote[local as usize] as usize];
                let Some(h) = arena.lookup(kc + 1, parent) else {
                    break;
                };
                let s = h.slot as usize;
                if arena.subtree[s] == tick {
                    break;
                }
                arena.subtree[s] = tick;
                kc += 1;
                head = parent;
            }
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
        let mut note = |x: u32, l0: &Level| {
            if mark[x as usize] != epoch {
                mark[x as usize] = epoch;
                affected.push((x, l0.is_head[x as usize]));
            }
        };
        for &(i, old_t, new_t) in &self.vote_changes {
            note(i, l0);
            note(old_t, l0);
            note(new_t, l0);
        }
        for &(i, old_t, new_t) in &self.vote_changes {
            if i != old_t {
                l0.elector_count[old_t as usize] -= 1;
            }
            if i != new_t {
                l0.elector_count[new_t as usize] += 1;
            }
        }
        for &(x, _) in self.affected.iter() {
            l0.is_head[x as usize] = l0.elector_count[x as usize] > 0 || l0.vote[x as usize] == x;
        }
        l0.rebuild_derived(self.n);
        // Arena: level-1 cluster births/deaths from head-flag changes,
        // membership stamps from vote moves (level-0 local == physical).
        for i in 0..self.affected.len() {
            let (x, was_head) = self.affected[i];
            let is_head = self.cur.levels[0].is_head[x as usize];
            match (was_head, is_head) {
                (false, true) => self.arena.ensure(1, x, tick),
                (true, false) => self.arena.kill(1, x),
                _ => {}
            }
        }
        for i in 0..self.vote_changes.len() {
            let (_, old_t, new_t) = self.vote_changes[i];
            self.arena.stamp(1, old_t, tick);
            self.arena.stamp(1, new_t, tick);
        }
        true
    }

    /// Reconstruct levels 1.. from the repaired level 0, stopping at the
    /// first level that comes out identical (everything above it is then
    /// already the fixpoint — the paper's escalation-stops-here property).
    /// Mirrors `Hierarchy::build_owned`'s loop exactly, including the
    /// `min_reduction` stall check and `max_levels` cap, so depth changes
    /// reproduce the full build's decisions bit for bit.
    fn rebuild_upper_levels(&mut self) {
        let old_depth = self.cur.levels.len();
        let tick = self.tick;
        let mut k = 0usize;
        let mut heads: Vec<u32> = Vec::new();
        loop {
            let level = &self.cur.levels[k];
            heads.clear();
            heads.extend((0..level.len() as u32).filter(|&i| level.is_head[i as usize]));
            let reduced = heads.len() < level.len()
                && (heads.len() as f64) * self.opts.min_reduction <= level.len() as f64;
            if !(reduced && k + 1 < self.opts.max_levels) {
                // Recursion ends below k+1: drop any stale upper levels
                // and their cluster records.
                for dead in k + 2..=old_depth {
                    self.arena.kill_level(dead);
                }
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
                let old_level = std::mem::replace(&mut self.cur.levels[k + 1], new_level);
                Self::sync_arena_level(
                    &mut self.arena,
                    k + 2,
                    Some(&old_level),
                    &self.cur.levels[k + 1],
                    tick,
                );
            } else {
                self.cur.levels.push(new_level);
                Self::sync_arena_level(&mut self.arena, k + 2, None, &self.cur.levels[k + 1], tick);
            }
            k += 1;
        }
    }

    /// Reconcile the arena's level-`kc` cluster records (headed by the
    /// heads of the replaced level `kc - 1`) after that level changed:
    /// births/deaths from head-flag changes, membership stamps from vote
    /// moves and node churn. `old` is `None` for a freshly grown level.
    fn sync_arena_level(
        arena: &mut ClusterArena,
        kc: usize,
        old: Option<&Level>,
        new: &Level,
        tick: u64,
    ) {
        let empty = (&[][..], &[][..], &[][..]);
        let (on, ov, oh) = old.map_or(empty, |l| (&l.nodes[..], &l.vote[..], &l.is_head[..]));
        let (mut i, mut j) = (0usize, 0usize);
        // Stamps are applied after the birth/death pass so a membership
        // move into a newborn cluster stamps the new record, not a void.
        let mut stamps: Vec<NodeIdx> = Vec::new();
        while i < on.len() || j < new.nodes.len() {
            let po = on.get(i).copied();
            let pn = new.nodes.get(j).copied();
            match (po, pn) {
                (Some(p), Some(q)) if p == q => {
                    match (oh[i], new.is_head[j]) {
                        (true, false) => arena.kill(kc, p),
                        (false, true) => arena.ensure(kc, p, tick),
                        _ => {}
                    }
                    let old_target = on[ov[i] as usize];
                    let new_target = new.nodes[new.vote[j] as usize];
                    if old_target != new_target {
                        stamps.push(old_target);
                        stamps.push(new_target);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(p), q) if q.is_none_or(|q| p < q) => {
                    // Node left the level: its old cluster lost a member;
                    // if it was a head, its cluster record dies.
                    if oh[i] {
                        arena.kill(kc, p);
                    }
                    stamps.push(on[ov[i] as usize]);
                    i += 1;
                }
                (_, Some(q)) => {
                    if new.is_head[j] {
                        arena.ensure(kc, q, tick);
                    }
                    stamps.push(new.nodes[new.vote[j] as usize]);
                    j += 1;
                }
                _ => unreachable!(),
            }
        }
        for t in stamps {
            arena.stamp(kc, t, tick);
        }
    }

    /// Audit maintainer-internal consistency: the arena agrees with the
    /// hierarchy in both directions (see [`ClusterArena::audit`]) and the
    /// hierarchy's own derived state is coherent.
    pub fn audit(&self) -> Result<(), String> {
        self.arena.audit(&self.cur)
    }

    /// Test hook: desynchronize the arena (swap two live records' lookup
    /// entries) so corruption-detection tests can assert the auditor
    /// catches it. Hidden from docs; never called on step paths.
    #[doc(hidden)]
    pub fn debug_desync_arena(&mut self) {
        let mut live = Vec::new();
        for (k, table) in self.arena.by_head.iter().enumerate() {
            for (h, &slot) in table.iter().enumerate() {
                if slot != NO_SLOT {
                    live.push((k, h));
                    if live.len() == 2 {
                        break;
                    }
                }
            }
            if live.len() == 2 {
                break;
            }
        }
        match live.as_slice() {
            &[(k1, h1), (k2, h2)] => {
                let s1 = self.arena.by_head[k1][h1];
                let s2 = self.arena.by_head[k2][h2];
                self.arena.by_head[k1][h1] = s2;
                self.arena.by_head[k2][h2] = s1;
            }
            _ => {
                // Degenerate hierarchy (< 2 clusters): corrupt a stamp
                // table instead by inventing a phantom record.
                self.arena.ensure(1, 0, self.tick);
                self.arena.ensure(2, 0, self.tick);
            }
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
                m.audit().unwrap();
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
            m.audit().unwrap();
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

    #[test]
    fn arena_slots_stable_while_cluster_lives() {
        let n = 70;
        let ids: Vec<u64> = (0..n as u64).map(|i| mix(i ^ 13)).collect();
        let mut g = random_graph(n, 13, 140);
        let mut m = HierarchyMaintainer::new(&ids, &g, opts());
        // Pick a level-1 cluster and watch its slot across quiet ticks.
        let head = m.hierarchy().levels[0]
            .heads()
            .map(|(_, p)| p)
            .next()
            .unwrap();
        let h0 = m.arena().lookup(1, head).unwrap();
        for tick in 1..6u64 {
            // Toggle edges far from `head`'s neighborhood not guaranteed;
            // instead: empty diffs keep everything alive.
            let _ = tick;
            m.advance(&g, Some(&[]));
            assert_eq!(m.arena().lookup(1, head), Some(h0), "slot moved");
        }
        // Force churn until the record set changes; generations must make
        // recycled slots distinguishable.
        let cap_before = m.arena().capacity();
        for tick in 1..40u64 {
            let flips = toggle_random(&mut g, n, 13 ^ (tick << 8), 6);
            m.advance(&g, Some(&flips));
            m.audit().unwrap();
        }
        assert!(m.arena().capacity() >= cap_before);
    }

    #[test]
    fn auditor_catches_desynced_arena() {
        let n = 60;
        let ids: Vec<u64> = (0..n as u64).map(|i| mix(i ^ 21)).collect();
        let g = random_graph(n, 21, 120);
        let mut m = HierarchyMaintainer::new(&ids, &g, opts());
        assert!(m.audit().is_ok());
        m.debug_desync_arena();
        assert!(m.audit().is_err(), "auditor missed the desynced arena");
    }
}
