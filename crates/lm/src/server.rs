//! The distributed LM server assignment.
//!
//! For every subject node `v` and every hierarchy level `k ≥ 2`, CHLM
//! designates one level-0 node inside `v`'s level-k cluster as the
//! *level-k LM server of v* (§3.2). The designation walks down the
//! hierarchy: hash-select a member level-(k-1) cluster of `v`'s level-k
//! cluster, then a member of that, … until a level-0 node is reached —
//! exactly the paper's worked example (node 63 → level-1 cluster 59 →
//! node 33 as its level-2 server).
//!
//! Level 1 needs no server (complete intra-cluster topology knowledge),
//! and level 0 is the node itself.
//!
//! The walk is a pure function of the hierarchy it is handed. It reads the
//! tree order [`Hierarchy::rebuild`] publishes (each cluster's subtree is
//! one contiguous run at every level, and a member's slot in its
//! cluster's run is its tree number one level down), flattens every level
//! into hash columns (`LevelClusters`) in that order, walks every
//! `(subject, level ≥ 2)` entry with subjects in tree order too, and
//! gathers the rows into the physical host table in one pass.
//! Nothing is carried from one call to the next but buffers
//! ([`WalkScratch`]) — an entry depends on the whole subtree of its
//! cluster, and under mobility ~1 % of entries have an untouched subtree
//! from one tick to the next (DESIGN §4.3), so there is nothing worth
//! remembering.

use crate::hash::{hrw_key_from_raw, mod_successor_select};
use chlm_cluster::{Hierarchy, Level};
use chlm_geom::rng::splitmix64;
use chlm_graph::NodeIdx;
use chlm_par::{split_ranges, WorkerPool};
use std::ops::Range;
use std::sync::OnceLock;

/// Below this population the walk stays serial: waking the pool's parked
/// worker and waiting for it costs more than it saves. Measured on a
/// 2-vCPU Xeon VM, `compute_with` (HRW) on a static density-1, degree-9
/// deployment, median of 7 alternating width-1 / width-2 repetitions, at
/// width 2 over width 1: n = 64 1.63, 128 1.10, 256 0.77, 512 0.71,
/// 1 024 0.63, 2 048 0.69, 4 096 0.64 — the pooled walk stops losing
/// between 128 and 256.
const WALK_PAR_MIN_N: usize = 256;

/// Subjects advanced together, one hierarchy level at a time. Their steps
/// are independent, so a block keeps many cache misses in flight where a
/// subject-major walk would chase one pointer chain; 2048 cursors (32 KB
/// with their ancestors and subject IDs) stay cache-resident.
const WALK_BLOCK: usize = 2048;

/// Which hashing rule selects among member clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionRule {
    /// Highest-random-weight hashing (the crate default; balanced).
    Hrw,
    /// GLS's eq. (5) successor rule, kept for the E14 inequity ablation.
    ModSuccessor {
        /// Size of the circular ID space (the network's `|V|` for
        /// permutation IDs).
        id_space: u64,
    },
}

/// One subject's server change between two assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostChange {
    pub subject: NodeIdx,
    /// Hierarchy level of the entry (`2..depth`).
    pub level: u16,
    /// Previous host (== `subject` if the entry did not exist before).
    pub old_host: NodeIdx,
    /// New host (== `subject` if the entry no longer exists).
    pub new_host: NodeIdx,
}

/// Complete server-assignment table: host of every `(subject, level)` LM
/// entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmAssignment {
    n: usize,
    depth: usize,
    /// Row-major `n × depth`; slots for `k < 2` hold the subject itself.
    hosts: Vec<NodeIdx>,
}

/// One level `j`'s hash columns, in the tree order of the hierarchy's
/// [`Level`]: the members of the level-(j+1) node numbered `t` are the
/// run `start[t]..start[t + 1]` of level `j`'s tree numbers, in ascending
/// physical order (the order of the hierarchy's member lists, so any hash
/// walk over a cluster sees the candidates in the historical order). Every
/// column but `uniform` is indexed by level-`j` tree number.
#[derive(Debug, Default)]
struct LevelClusters {
    /// Election ID of each node, so a candidate scan reads one contiguous
    /// run instead of gathering through `h.ids`.
    member_id: Vec<u64>,
    /// Subtree weight (level-0 descendant count) as `f64::to_bits` —
    /// bit-exact comparison (`uniform`) and storage without tripping
    /// float-equality lints; `from_bits` restores the identical value for
    /// hashing.
    member_wbits: Vec<u64>,
    /// Per level-(j+1) tree number `t`: do all of its members carry the same
    /// weight bits? Gates the raw-`u64` HRW fast path.
    uniform: Vec<bool>,
    /// Memoized inner HRW hashes `splitmix64(member_id ^ salt)`, one run of
    /// `len` entries per entry-level `k` the walk can arrive from (`k` in
    /// `max(2, j+1)..depth`, lowest first). Halves the per-candidate hash
    /// work: `hrw_weight = splitmix64(subject ^ inner)`.
    inner: Vec<u64>,
}

/// Least entry level the walk can reach level `j` from (`k > j` and
/// `k ≥ 2`); the `inner` run for entry level `k` starts at
/// `(k - k_min(j)) * len`.
#[inline]
fn k_min(j: usize) -> usize {
    (j + 1).max(2)
}

/// Reset a recycled column to `len` copies of `fill`, keeping its buffer.
fn refill<T: Copy>(col: &mut Vec<T>, len: usize, fill: T) {
    col.clear();
    col.resize(len, fill);
}

impl LevelClusters {
    /// Flatten level `j` of `h` from `below`, level j-1's columns (None at
    /// level 0): election IDs in tree order, then weights — a node's weight
    /// sums its members' in tree order. The `inner` memo is computed only
    /// when `hash_inner` (the HRW rule) is on.
    fn weigh(&mut self, h: &Hierarchy, j: usize, below: Option<&LevelClusters>, hash_inner: bool) {
        let level = &h.levels[j];
        self.member_id.clear();
        self.member_id
            .extend(level.tree_nodes.iter().map(|&p| h.ids[p as usize]));
        self.member_wbits.clear();
        match below {
            None => self.member_wbits.resize(level.len(), 1f64.to_bits()),
            Some(b) => self
                .member_wbits
                .extend(h.levels[j - 1].start.windows(2).map(|r| {
                    let ws = &b.member_wbits[r[0] as usize..r[1] as usize];
                    ws.iter()
                        .map(|&wb| f64::from_bits(wb))
                        .sum::<f64>()
                        .to_bits()
                })),
        }
        self.uniform.clear();
        self.uniform.extend(level.start.windows(2).map(|r| {
            let ws = &self.member_wbits[r[0] as usize..r[1] as usize];
            ws.iter().all(|&w| w == ws[0])
        }));
        self.inner.clear();
        if hash_inner {
            for k in k_min(j)..h.depth() {
                let salt = ((k as u64) << 32) | j as u64;
                self.inner
                    .extend(self.member_id.iter().map(|&id| splitmix64(id ^ salt)));
            }
        }
    }

    /// One full HRW selection over the members of cluster `t`, whose run
    /// starts at `lo`, with `inner` their memoized inner hashes for
    /// this walk step's salt; returns the winner's offset into the range.
    /// Always the exact `hrw_select_weighted` winner — the two fast paths
    /// fire only when they can *certify* the same strict argmax, tracking
    /// the top two candidates with selects instead of branches:
    ///
    /// * equal weights: `-w / ln(u)` is monotone in the raw hash up to
    ///   float rounding, so the raw-`u64` argmax wins outright whenever the
    ///   runner-up trails by more than the widest rounding plateau (`2^20`
    ///   exceeds the combined slack of the u-mapping, `ln`, and the
    ///   division by ~2^9; closer calls have probability ~2^-40 per
    ///   cluster);
    /// * mixed weights: bracket every candidate's key through the
    ///   [`inv_ln_brackets`] table and certify when the best lower bound
    ///   strictly beats every other upper bound (ties then being
    ///   impossible, the `(key, id)` tie-break is vacuous).
    ///
    /// Anything uncertified falls through to the exact `ln` scan with the
    /// operation order and tie-break of `hrw_select_weighted`.
    #[inline]
    fn hrw_pick(&self, subject_id: u64, t: usize, lo: usize, inner: &[u64]) -> usize {
        if self.uniform[t] {
            let (mut r1, mut r2, mut arg) = (0u64, 0u64, 0usize);
            for (i, &inn) in inner.iter().enumerate() {
                let raw = splitmix64(subject_id ^ inn);
                r2 = r2.max(raw.min(r1));
                arg = if raw > r1 { i } else { arg };
                r1 = r1.max(raw);
            }
            if r1 - r2 > (1 << 20) {
                return arg;
            }
        } else {
            // Keys are positive, so their bit patterns order like their
            // values and the tracking stays in integer selects.
            let brackets = inv_ln_brackets();
            let wbits = &self.member_wbits[lo..lo + inner.len()];
            let (mut b1_hi, mut b1_lo, mut b2_hi, mut b1) = (0u64, 0u64, 0u64, 0usize);
            for (i, (&inn, &wb)) in inner.iter().zip(wbits).enumerate() {
                let raw = splitmix64(subject_id ^ inn);
                let (glo, ghi) = brackets[(raw >> (u64::BITS - BRACKET_BITS)) as usize];
                let w = f64::from_bits(wb);
                let (klo, khi) = ((w * glo).to_bits(), (w * ghi).to_bits());
                b2_hi = b2_hi.max(khi.min(b1_hi));
                b1_lo = if khi > b1_hi { klo } else { b1_lo };
                b1 = if khi > b1_hi { i } else { b1 };
                b1_hi = b1_hi.max(khi);
            }
            if b1_lo > b2_hi {
                return b1;
            }
        }
        // Exact scan, inlined over the columns with the exact operation
        // order and `(key, id)` tie-break of `hrw_select_weighted`.
        let mut best = 0;
        let mut bk = f64::NEG_INFINITY;
        let mut bi = 0u64;
        for (i, &inn) in inner.iter().enumerate() {
            let id = self.member_id[lo + i];
            let w = f64::from_bits(self.member_wbits[lo + i]);
            debug_assert!(w > 0.0 && w.is_finite());
            let key = hrw_key_from_raw(splitmix64(subject_id ^ inn), w);
            if key > bk || (key == bk && id > bi) {
                bk = key;
                bi = id;
                best = i;
            }
        }
        best
    }
}

/// Top bits of a raw draw that pick its [`inv_ln_brackets`] bucket.
const BRACKET_BITS: u32 = 10;

/// Certified brackets of `hrw_key_from_raw(raw, 1.0)` by the top
/// [`BRACKET_BITS`] bits of `raw` (1 024 buckets, 16 KiB). The unweighted
/// key is monotone increasing in `raw`, so the f64 values it takes over a
/// bucket lie between the bucket-endpoint evaluations up to libm rounding;
/// a relative widening of `1e-6` (ten orders of magnitude above the
/// ≤1-ulp error of `ln` and the division) makes the bracket safe. A
/// candidate's weighted key then lies in `[w·lo, w·hi]`, which lets a scan
/// certify a strict winner without evaluating `ln` at all — see the
/// interval path of `hrw_pick`. The narrower the buckets, the more scans
/// certify: of the mixed-weight picks of a 65 536-node world's first five
/// ticks, 8 bits left 5.0 % to the exact scan and 10 bits leave 1.3 %.
fn inv_ln_brackets() -> &'static [(f64, f64); 1 << BRACKET_BITS] {
    // AUDIT: write-once cache of a pure function of the bucket index;
    // every initializer computes the same table, so whichever thread wins
    // the race publishes identical values and reads are deterministic.
    static TABLE: OnceLock<[(f64, f64); 1 << BRACKET_BITS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let shift = u64::BITS - BRACKET_BITS;
        std::array::from_fn(|b| {
            let b = b as u64;
            let lo = hrw_key_from_raw(b << shift, 1.0);
            let hi = hrw_key_from_raw((b << shift) | ((1u64 << shift) - 1), 1.0);
            if !hi.is_finite() {
                // Top bucket only: raws whose `u` rounds to exactly 1.0
                // evaluate to `-w / 0 = -inf`, so the computed key is not
                // monotone there — it spikes to ~2^53 just below the
                // rounding cliff, then collapses. No finite bracket holds;
                // `[0, inf]` certifies nothing (a lower bound of zero beats
                // no upper bound) and so forces the exact scan.
                (0.0, f64::INFINITY)
            } else {
                (lo * (1.0 - 1e-6), hi * (1.0 + 1e-6))
            }
        })
    })
}

/// Buffers [`LmAssignment::compute_with`] rewrites on every call, kept so
/// a per-tick caller allocates nothing in the steady state: the flattened
/// levels, one block of walk cursors per worker, the tree-ordered rows, a
/// retired `hosts` table, and the worker pool.
/// None of it is read before it is rewritten — a scratch that was handed
/// hierarchy A answers for hierarchy B exactly as a fresh one does.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// One entry per walked level (all but the top) of the deepest
    /// hierarchy seen; a call rebuilds and reads the first `depth - 1`.
    cur: Vec<LevelClusters>,
    /// Per worker: each walk's level-k ancestor, and the tree number it
    /// stands on, for the current block.
    cursors: Vec<(Vec<u32>, Vec<u32>)>,
    /// Entry columns `2..depth` of every subject, in level-0 tree order.
    rows: Vec<NodeIdx>,
    spare_hosts: Vec<NodeIdx>,
    /// Worker pool for the walk (`None` = serial). Subjects are split into
    /// fixed contiguous ranges with per-subject-disjoint writes, so the
    /// assignment is bit-identical for every thread count.
    workers: Option<WorkerPool>,
}

impl WalkScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run the walk on `workers` (population permitting); the result stays
    /// bit-identical to the serial walk for every pool width.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Hand back a retired assignment so its `hosts` buffer is reused by the
    /// next [`LmAssignment::compute_with`] call.
    pub fn recycle(&mut self, old: LmAssignment) {
        self.spare_hosts = old.hosts;
    }

    /// Flatten every level of `h` but the top into `cur`, bottom-up (a
    /// node's weight sums its members').
    fn flatten(&mut self, h: &Hierarchy, hash_inner: bool) {
        let walked = h.depth() - 1;
        if self.cur.len() < walked {
            self.cur.resize_with(walked, LevelClusters::default);
        }
        for j in 0..walked {
            let (done, rest) = self.cur.split_at_mut(j);
            rest[0].weigh(h, j, done.last(), hash_inner);
        }
    }
}

/// One tick's read-only walk inputs, shared by every worker.
struct Walk<'a> {
    rule: SelectionRule,
    /// The hierarchy's levels `0..depth - 1`, whose tree order the walk
    /// follows.
    levels: &'a [Level],
    /// Their hash columns.
    cur: &'a [LevelClusters],
}

impl Walk<'_> {
    /// Walk the subjects numbered `ss` at level 0, whose tree-ordered
    /// entry rows are `rows`. Per block of [`WALK_BLOCK`] subjects and
    /// entry level `k`: climb every subject's ancestor one level through
    /// [`Level::parent`] to its level-k cluster, stand on it, then move all of them
    /// down one level at a time (`j = k-1 … 0`: select among the members
    /// of the cluster stood on, step to the winner's tree number) until
    /// the winners are level-0 nodes — the hosts. Consecutive subjects
    /// share ancestors, so most steps read a run the previous one warmed.
    /// All inputs but `rows` and `cursors` are shared and read-only, which
    /// is what lets ranges fan out across a [`WorkerPool`] without
    /// changing a single pick.
    fn run(&self, ss: Range<usize>, rows: &mut [NodeIdx], cursors: &mut (Vec<u32>, Vec<u32>)) {
        let (anc, at) = cursors;
        let depth = self.cur.len() + 1;
        let width = depth - 2;
        let base = &self.levels[0];
        for first in (ss.start..ss.end).step_by(WALK_BLOCK) {
            let last = (first + WALK_BLOCK).min(ss.end);
            let rows = &mut rows[(first - ss.start) * width..(last - ss.start) * width];
            let subject_ids = &self.cur[0].member_id[first..last];
            anc.clear();
            anc.extend_from_slice(&base.parent[first..last]);
            for k in 2..depth {
                let up = &self.levels[k - 1].parent;
                for a in anc.iter_mut() {
                    *a = up[*a as usize];
                }
                at.clear();
                at.extend_from_slice(anc);
                for j in (0..k).rev() {
                    let (level, lvl) = (&self.levels[j], &self.cur[j]);
                    let salt = ((k as u64) << 32) | j as u64;
                    let seg = (k - k_min(j)) * lvl.member_id.len();
                    for (&subject_id, at) in subject_ids.iter().zip(at.iter_mut()) {
                        let t = *at as usize;
                        let (lo, hi) = (level.start[t] as usize, level.start[t + 1] as usize);
                        debug_assert!(hi > lo, "head with no electors");
                        let pick = match self.rule {
                            SelectionRule::Hrw => {
                                lvl.hrw_pick(subject_id, t, lo, &lvl.inner[seg + lo..seg + hi])
                            }
                            // Salt the subject so distinct (k, j) steps
                            // don't always chase the same successor.
                            SelectionRule::ModSuccessor { id_space } => mod_successor_select(
                                subject_id.wrapping_add(salt),
                                &lvl.member_id[lo..hi],
                                id_space,
                            ),
                        };
                        *at = (lo + pick) as u32;
                    }
                }
                for (row, &s) in rows.chunks_exact_mut(width).zip(at.iter()) {
                    row[k - 2] = base.tree_nodes[s as usize];
                }
            }
        }
    }
}

impl LmAssignment {
    /// Compute the assignment for hierarchy `h` under `rule`.
    pub fn compute(h: &Hierarchy, rule: SelectionRule) -> Self {
        Self::compute_with(h, rule, &mut WalkScratch::new())
    }

    /// [`LmAssignment::compute`] through recycled buffers (and `scratch`'s
    /// worker pool, if it has one). The result does not depend on what
    /// `scratch` was used for before.
    pub fn compute_with(h: &Hierarchy, rule: SelectionRule, scratch: &mut WalkScratch) -> Self {
        let n = h.node_count();
        let depth = h.depth();
        scratch.flatten(h, matches!(rule, SelectionRule::Hrw));
        let width = depth.saturating_sub(2);
        refill(&mut scratch.rows, n * width, 0);
        let pool = scratch
            .workers
            .as_ref()
            .filter(|p| !p.is_serial() && n >= WALK_PAR_MIN_N);
        let parts = pool.map_or(1, |p| p.threads());
        if scratch.cursors.len() < parts {
            scratch.cursors.resize_with(parts, || {
                (
                    Vec::with_capacity(WALK_BLOCK),
                    Vec::with_capacity(WALK_BLOCK),
                )
            });
        }
        let walk = Walk {
            rule,
            levels: &h.levels[..depth - 1],
            cur: &scratch.cur[..depth - 1],
        };
        match pool {
            // No level carries an entry: nothing to walk.
            _ if width == 0 => {}
            None => walk.run(0..n, &mut scratch.rows, &mut scratch.cursors[0]),
            Some(pool) => {
                // Subjects split into contiguous tree-order ranges (whole
                // subtrees, bar the two ends); each job owns the matching
                // rows and one cursor block, so the walk output cannot
                // depend on pool width or schedule.
                let mut rows: &mut [NodeIdx] = &mut scratch.rows;
                let jobs = split_ranges(n, parts)
                    .zip(&mut scratch.cursors)
                    .map(|(ss, cursors)| {
                        let (mine, rest) = std::mem::take(&mut rows).split_at_mut(ss.len() * width);
                        rows = rest;
                        (ss, mine, cursors)
                    });
                pool.for_each(jobs, |(ss, rows, cursors)| walk.run(ss, rows, cursors));
            }
        }
        // Gather the tree-ordered rows into the physical table through
        // level 0's tree numbers; slots below level 2 carry no entry and
        // hold the subject.
        let mut hosts = std::mem::take(&mut scratch.spare_hosts);
        hosts.clear();
        for v in 0..n as NodeIdx {
            hosts.extend(std::iter::repeat_n(v, depth.min(2)));
            if width > 0 {
                let s = h.levels[0].rank[v as usize] as usize;
                hosts.extend_from_slice(&scratch.rows[s * width..][..width]);
            }
        }
        LmAssignment { n, depth, hosts }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Host of subject `v`'s level-`k` entry, or `None` when the level
    /// carries no entry (k < 2 or k ≥ depth).
    pub fn host(&self, v: NodeIdx, k: usize) -> Option<NodeIdx> {
        if k < 2 || k >= self.depth {
            return None;
        }
        Some(self.hosts[v as usize * self.depth + k])
    }

    /// Number of LM entries each node hosts (index = physical node).
    /// The paper's claim: the mean is `Θ(log |V|)` (one entry per subject
    /// per level ≥ 2, spread evenly).
    pub fn entries_hosted(&self) -> Vec<u32> {
        let mut count = vec![0u32; self.n];
        for v in 0..self.n {
            for k in 2..self.depth {
                count[self.hosts[v * self.depth + k] as usize] += 1;
            }
        }
        count
    }

    /// Total number of LM entries in the system: `n · (depth - 2)`.
    pub fn entry_count(&self) -> usize {
        self.n * self.depth.saturating_sub(2)
    }

    /// Diff two assignments over the same node set. Entries appearing /
    /// disappearing because the hierarchy depth changed are reported with
    /// the subject itself standing in for the missing side.
    ///
    /// # Panics
    /// If node counts differ.
    pub fn diff(&self, new: &LmAssignment) -> Vec<HostChange> {
        // Counted first, so the list is one allocation of the exact size,
        // not a doubling series.
        let mut out = Vec::with_capacity(self.changes(new).count());
        self.diff_into(new, &mut out);
        out
    }

    /// [`diff`](Self::diff) into `out`, replacing its contents and keeping
    /// its allocation — the list runs to megabytes a tick at paper scale,
    /// so a caller that diffs every tick keeps one buffer for all of them.
    ///
    /// # Panics
    /// If node counts differ.
    pub fn diff_into(&self, new: &LmAssignment, out: &mut Vec<HostChange>) {
        out.clear();
        if self.depth != new.depth {
            out.extend(self.changes(new));
            return;
        }
        // Equal depths, the common case: the same levels carry entries on
        // both sides, so the rows compare slot for slot and an unchanged
        // subject costs one slice comparison.
        assert_eq!(self.n, new.n, "assignments over different node sets");
        let depth = self.depth;
        if depth <= 2 {
            return;
        }
        let rows = self
            .hosts
            .chunks_exact(depth)
            .zip(new.hosts.chunks_exact(depth));
        for (v, (old_row, new_row)) in (0..).zip(rows) {
            if old_row[2..] == new_row[2..] {
                continue;
            }
            for (k, (&old_host, &new_host)) in old_row.iter().zip(new_row).enumerate().skip(2) {
                if old_host != new_host {
                    out.push(HostChange {
                        subject: v,
                        level: k as u16,
                        old_host,
                        new_host,
                    });
                }
            }
        }
    }

    /// Every host change between `self` and `new`, ascending by
    /// `(subject, level)`.
    fn changes<'a>(&'a self, new: &'a LmAssignment) -> impl Iterator<Item = HostChange> + 'a {
        assert_eq!(self.n, new.n, "assignments over different node sets");
        let max_depth = self.depth.max(new.depth);
        (0..self.n as NodeIdx)
            .flat_map(move |v| (2..max_depth).map(move |k| (v, k)))
            .filter_map(move |(v, k)| {
                let old_host = self.host(v, k).unwrap_or(v);
                let new_host = new.host(v, k).unwrap_or(v);
                (old_host != new_host).then_some(HostChange {
                    subject: v,
                    level: k as u16,
                    old_host,
                    new_host,
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hrw_select_weighted;
    use chlm_cluster::HierarchyOptions;
    use chlm_geom::SimRng;
    use chlm_graph::unit_disk::build_unit_disk;

    /// Fuzz `hrw_pick` (both fast paths plus the exact fallthrough)
    /// against the reference selector on synthetic single-cluster levels.
    #[test]
    fn hrw_pick_matches_reference_fuzz() {
        let mut state = 0xfeed_beef_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            splitmix64(state)
        };
        for iter in 0..500_000u32 {
            let m = 2 + (next() % 14) as usize;
            let ids: Vec<u64> = (0..m).map(|_| next()).collect();
            let weights: Vec<f64> = (0..m).map(|_| (1 + next() % 50) as f64).collect();
            let salt = next() % 1024;
            let inner: Vec<u64> = ids.iter().map(|&id| splitmix64(id ^ salt)).collect();
            let subject = next();
            let uniform = weights.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
            let lvl = LevelClusters {
                member_id: ids.clone(),
                member_wbits: weights.iter().map(|w| w.to_bits()).collect(),
                uniform: vec![uniform],
                ..Default::default()
            };
            let got = lvl.hrw_pick(subject, 0, 0, &inner);
            let cands: Vec<(u64, f64)> = ids.iter().zip(&weights).map(|(&i, &w)| (i, w)).collect();
            let expect = hrw_select_weighted(subject, &cands, salt);
            assert_eq!(
                got, expect,
                "iter={iter} m={m} subject={subject} salt={salt} ids={ids:?} weights={weights:?}"
            );
        }
    }

    /// A uniform deployment at density 1 (degree 9) with permutation IDs,
    /// and the RNG that drew it.
    struct Deployment {
        rng: SimRng,
        rtx: f64,
        pts: Vec<chlm_geom::Point>,
        ids: Vec<u64>,
    }

    impl Deployment {
        fn new(n: usize, seed: u64) -> Self {
            let mut rng = SimRng::seed_from(seed);
            let radius = chlm_geom::disk_radius_for_density(n, 1.0);
            let region = chlm_geom::Disk::centered(radius);
            let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
            let ids = rng.permutation(n);
            Deployment {
                rng,
                rtx: chlm_geom::rtx_for_degree(9.0, 1.0),
                pts,
                ids,
            }
        }

        fn graph(&self) -> chlm_graph::Graph {
            build_unit_disk(&self.pts, self.rtx)
        }

        /// Step every node by `step_frac · rtx` in a random direction.
        fn jiggle(&mut self, step_frac: f64) {
            for p in self.pts.iter_mut() {
                let ang = self.rng.range_f64(0.0, std::f64::consts::TAU);
                p.x += self.rtx * step_frac * ang.cos();
                p.y += self.rtx * step_frac * ang.sin();
            }
        }
    }

    fn random_hierarchy(n: usize, seed: u64) -> Hierarchy {
        let d = Deployment::new(n, seed);
        Hierarchy::build(&d.ids, &d.graph(), HierarchyOptions::default())
    }

    #[test]
    fn hosts_live_in_subject_cluster() {
        let h = random_hierarchy(250, 1);
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let addrs = h.addresses();
        for v in 0..250u32 {
            for k in 2..h.depth() {
                let host = a.host(v, k).unwrap();
                // The host's level-k head must equal the subject's level-k
                // head: the server lives inside the subject's level-k cluster.
                assert_eq!(
                    addrs[host as usize][k], addrs[v as usize][k],
                    "v={v} k={k} host={host}"
                );
            }
        }
    }

    #[test]
    fn no_entries_below_level_2() {
        let h = random_hierarchy(100, 2);
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        assert!(a.host(0, 0).is_none());
        assert!(a.host(0, 1).is_none());
        assert!(a.host(0, 99).is_none());
    }

    #[test]
    fn entry_count_is_n_times_levels() {
        let h = random_hierarchy(150, 3);
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let total: u64 = a.entries_hosted().iter().map(|&c| c as u64).sum();
        assert_eq!(total as usize, a.entry_count());
        assert_eq!(a.entry_count(), 150 * (h.depth() - 2));
    }

    #[test]
    fn hrw_load_bounded() {
        // Each node hosts Θ(log n) entries; check the max is within a small
        // multiple of the mean (clusters are finite, so perfect balance is
        // impossible, but HRW should avoid the mod rule's pile-ups).
        let h = random_hierarchy(400, 4);
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let counts = a.entries_hosted();
        let mean = a.entry_count() as f64 / 400.0;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / mean < 8.0, "max {max} vs mean {mean}");
    }

    #[test]
    fn mod_rule_more_skewed_than_hrw() {
        let h = random_hierarchy(400, 5);
        let hrw = LmAssignment::compute(&h, SelectionRule::Hrw);
        let modr = LmAssignment::compute(&h, SelectionRule::ModSuccessor { id_space: 400 });
        let max_of = |a: &LmAssignment| *a.entries_hosted().iter().max().unwrap();
        assert!(
            max_of(&modr) >= max_of(&hrw),
            "expected eq.(5) rule at least as skewed: {} vs {}",
            max_of(&modr),
            max_of(&hrw)
        );
    }

    #[test]
    fn deterministic_assignment() {
        let h = random_hierarchy(120, 6);
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let b = LmAssignment::compute(&h, SelectionRule::Hrw);
        assert_eq!(a, b);
    }

    /// A 300-node deployment jiggled by `step_frac · rtx` a tick for 25
    /// ticks, rebuilt from scratch each tick and walked through one
    /// recycled scratch: every assignment must be byte-identical to one
    /// from a fresh scratch, whatever the buffers held before.
    fn jiggled_world_through_one_scratch(rule: SelectionRule, step_frac: f64, seed: u64) {
        let mut d = Deployment::new(300, seed);
        let mut scratch = WalkScratch::new();
        for tick in 0..25 {
            d.jiggle(step_frac);
            let h = Hierarchy::build(&d.ids, &d.graph(), HierarchyOptions::default());
            let recycled = LmAssignment::compute_with(&h, rule, &mut scratch);
            assert_eq!(recycled, LmAssignment::compute(&h, rule), "tick {tick}");
            scratch.recycle(recycled);
        }
    }

    #[test]
    fn recycled_scratch_matches_fresh_small_steps() {
        jiggled_world_through_one_scratch(SelectionRule::Hrw, 0.125, 11);
    }

    #[test]
    fn recycled_scratch_matches_fresh_heavy_churn() {
        // Half-radius steps churn cluster membership hard and change the
        // hierarchy depth along the way.
        jiggled_world_through_one_scratch(SelectionRule::Hrw, 0.5, 12);
    }

    #[test]
    fn recycled_scratch_matches_fresh_mod_successor() {
        jiggled_world_through_one_scratch(SelectionRule::ModSuccessor { id_space: 300 }, 0.25, 13);
    }

    /// The pooled walk (`threads > 1` and `n ≥ WALK_PAR_MIN_N`) against the
    /// oracle, for both rules, across a tick whose depth is capped — the
    /// scratches shrink and regrow mid-run.
    #[test]
    fn pooled_walk_matches_compute() {
        let n = 2500;
        assert!(n >= WALK_PAR_MIN_N);
        let mut d = Deployment::new(n, 18);
        for rule in [
            SelectionRule::Hrw,
            SelectionRule::ModSuccessor { id_space: n as u64 },
        ] {
            let mut scratches: Vec<(usize, WalkScratch)> = [1, 2, 8]
                .iter()
                .map(|&t| (t, WalkScratch::new().with_workers(WorkerPool::new(t))))
                .collect();
            let mut depths = Vec::new();
            for tick in 0..9 {
                d.jiggle(0.1);
                let opts = HierarchyOptions {
                    max_levels: if tick == 4 { 3 } else { usize::MAX },
                    ..HierarchyOptions::default()
                };
                let h = Hierarchy::build(&d.ids, &d.graph(), opts);
                depths.push(h.depth());
                let fresh = LmAssignment::compute(&h, rule);
                for (t, scratch) in &mut scratches {
                    let pooled = LmAssignment::compute_with(&h, rule, scratch);
                    assert_eq!(pooled, fresh, "threads={t} tick={tick} {rule:?}");
                    scratch.recycle(pooled);
                }
            }
            assert!(depths[4] < depths[3] && depths[4] < depths[5], "{depths:?}");
        }
    }

    #[test]
    fn recycled_scratch_survives_rule_and_shape_changes() {
        let h1 = random_hierarchy(180, 21);
        let h2 = random_hierarchy(240, 22); // different n: every buffer resizes
        let h3 = random_hierarchy(180, 27); // another world of h1's shape
        assert_eq!(h3.depth(), h1.depth());
        assert_ne!(h3, h1);
        let mut scratch = WalkScratch::new();
        // h1 ↔ h3 resizes nothing: only a walk that takes nothing from the
        // previous call gets those right.
        for h in [&h1, &h2, &h1, &h3, &h1, &h3] {
            for rule in [
                SelectionRule::Hrw,
                SelectionRule::ModSuccessor { id_space: 240 },
            ] {
                let recycled = LmAssignment::compute_with(h, rule, &mut scratch);
                assert_eq!(recycled, LmAssignment::compute(h, rule));
                scratch.recycle(recycled);
            }
        }
    }

    /// `diff_into` compares rows directly when the depths agree and walks
    /// `(subject, level)` otherwise: both give what the generic walk does,
    /// tick for tick, on a jiggled world whose depth is capped on one tick
    /// (two depth changes at least) and free on the others.
    #[test]
    fn row_diff_matches_the_generic_walk_across_a_depth_change() {
        let mut d = Deployment::new(600, 19);
        let mut prev: Option<LmAssignment> = None;
        let (mut equal, mut changed) = (0, 0);
        let mut out = Vec::new();
        for tick in 0..8 {
            d.jiggle(0.2);
            let opts = HierarchyOptions {
                max_levels: if tick == 4 { 3 } else { usize::MAX },
                ..HierarchyOptions::default()
            };
            let h = Hierarchy::build(&d.ids, &d.graph(), opts);
            let next = LmAssignment::compute(&h, SelectionRule::Hrw);
            if let Some(prev) = &prev {
                prev.diff_into(&next, &mut out);
                let generic: Vec<HostChange> = prev.changes(&next).collect();
                assert!(!generic.is_empty(), "tick {tick}: nothing moved");
                assert_eq!(out, generic, "tick {tick}");
                if prev.depth() == next.depth() {
                    equal += 1;
                } else {
                    changed += 1;
                }
            }
            prev = Some(next);
        }
        assert!(
            equal >= 3 && changed >= 2,
            "{equal} equal, {changed} changed"
        );
    }

    #[test]
    fn self_diff_empty_and_diff_detects() {
        let h = random_hierarchy(120, 7);
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        assert!(a.diff(&a.clone()).is_empty());
        let h2 = random_hierarchy(120, 8); // different deployment entirely
        let b = LmAssignment::compute(&h2, SelectionRule::Hrw);
        let d = a.diff(&b);
        assert!(!d.is_empty());
        assert_eq!(d.capacity(), d.len(), "diff output sized exactly");
        for c in &d {
            assert!(c.level >= 2);
            assert_ne!(c.old_host, c.new_host);
        }
        // `diff_into` replaces whatever the reused buffer held.
        let mut out = d.clone();
        a.diff_into(&a.clone(), &mut out);
        assert!(out.is_empty());
        a.diff_into(&b, &mut out);
        assert_eq!(out, d);
    }
}
