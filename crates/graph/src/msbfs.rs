//! BFS distances 64 roots at a time: the kernel behind [`Graph::fill_hops`]
//! and a lone [`Graph::hops`] miss, and the bit-plane blocks it publishes.
//!
//! A scalar BFS walks every edge once per root. When many roots are wanted
//! at once the walks overlap almost entirely, and a bit-parallel
//! multi-source BFS (MS-BFS; Then et al., VLDB 2015) shares them: one `u64`
//! per node holds, per lane (= root), whether the node has been reached, so
//! one pass over a node's edges advances every lane whose frontier sits on
//! it. What that saves depends on *which* roots share a word. A node is in
//! some lane's frontier — and its edges are walked — once per distinct
//! distance the batch's roots have to it, so 64 roots scattered over a
//! unit-disk graph keep every node active for about as many levels as there
//! are lanes and nothing is saved (batched in index order, n = 1 024, all
//! nodes wanted: a third of the scalar edge visits, each one dearer),
//! while 64 roots a few hops apart keep a node active for a few levels (the
//! same roots batched by nearness: a seventh). Hence [`near_batches`]: it
//! cuts the wanted roots into batches of at most [`LANES`] mutually-near
//! ones — the lowest root not yet in a batch, then the wanted roots a BFS
//! from it meets first — and every batch, however few lanes it fills, runs
//! through the one kernel ([`Scratch::kernel`]). A batch of one lane walks
//! the edges one scalar BFS walks, each visit a `u64` word where the scalar
//! loop touches a `u32`.
//!
//! **The block.** A batch ends as one [`Block`], node-major: per node one
//! *reach* word (bit L set iff lane L's root reaches the node) and then
//! `⌈log₂(deepest + 1)⌉` *plane* words, where bit L of plane p is bit p of
//! lane L's distance to the node. The kernel writes it as it goes: the
//! lanes arriving at a node on level `level` are one word, ORed into the
//! planes of `level`'s set bits — no loop over lanes. A full block of 64
//! roots with 6 planes holds 7 words a node, under 1 byte per root and node
//! against the 4 of a `u32` row. A lane spells
//! [`crate::traversal::bfs_distances`]' row, entry for entry.

use crate::traversal::UNREACHABLE;
use crate::{Graph, NodeIdx};
use std::sync::Arc;

/// Roots per batch: the bits of the per-node lane word.
pub(crate) const LANES: usize = u64::BITS as usize;

/// Partition `wanted` (ascending, distinct) into batches of at most
/// [`LANES`] mutually-near roots, each the search's own first; see the
/// module docs. Every root lands in exactly one batch, and a batch never
/// spans two components.
pub(crate) fn near_batches(g: &Graph, wanted: &[NodeIdx]) -> Vec<Vec<NodeIdx>> {
    let n = g.node_count();
    // Wanted and not yet in a batch.
    let mut open = vec![false; n];
    for &r in wanted {
        open[r as usize] = true;
    }
    // The search (1-based batch number) that last reached each node, so no
    // search has to clear what the one before it marked.
    let mut reached = vec![0u32; n];
    let mut queue: Vec<NodeIdx> = Vec::with_capacity(n);
    let mut batches: Vec<Vec<NodeIdx>> = Vec::new();
    for &first in wanted {
        if !std::mem::take(&mut open[first as usize]) {
            continue;
        }
        let search = batches.len() as u32 + 1;
        let mut roots = Vec::with_capacity(LANES.min(wanted.len()));
        roots.push(first);
        queue.clear();
        queue.push(first);
        reached[first as usize] = search;
        let mut head = 0;
        'search: while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in g.neighbors(u) {
                if reached[v as usize] == search {
                    continue;
                }
                reached[v as usize] = search;
                queue.push(v);
                if std::mem::take(&mut open[v as usize]) {
                    roots.push(v);
                    if roots.len() == LANES {
                        break 'search;
                    }
                }
            }
        }
        batches.push(roots);
    }
    batches
}

/// Plane words needed to spell every distance up to `deepest`.
fn planes_for(deepest: u32) -> usize {
    (u32::BITS - deepest.leading_zeros()) as usize
}

/// The distances of up to [`LANES`] roots to every node, as bit planes;
/// see the module docs. Shared by the roots' cells, freed with the last.
pub(crate) struct Block {
    /// `stride` words per node: the reach word, then the planes.
    words: Arc<[u64]>,
    stride: usize,
}

impl Block {
    /// Another handle on the same words: a reference count, not a copy.
    pub fn share(&self) -> Block {
        Block {
            words: Arc::clone(&self.words),
            stride: self.stride,
        }
    }

    /// Lane `lane`'s distance to `v` ([`UNREACHABLE`] when not reached).
    ///
    /// # Panics
    /// If `v` is out of range.
    #[inline]
    pub fn distance(&self, lane: u32, v: NodeIdx) -> u32 {
        let at = v as usize * self.stride;
        let node = &self.words[at..at + self.stride];
        if node[0] >> lane & 1 == 0 {
            return UNREACHABLE;
        }
        node[1..]
            .iter()
            .rev()
            .fold(0, |d, &plane| d << 1 | (plane >> lane & 1) as u32)
    }

    /// Where the block's words sit: one block, one address.
    pub fn addr(&self) -> usize {
        self.words.as_ptr() as usize
    }

    /// Heap bytes of the block's words.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

/// One worker's buffers, kept across every batch it computes in a fill.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The block being written, at the widest stride `n` can need.
    words: Vec<u64>,
    /// Lanes that reached a node on the previous level.
    frontier: Vec<u64>,
    /// Lanes arriving at a node on the current level.
    next: Vec<u64>,
    /// Nodes with a non-empty frontier, each once.
    active: Vec<NodeIdx>,
    /// Nodes whose `next` turned non-zero this level.
    touched: Vec<NodeIdx>,
}

/// `buf` as `len` copies of `value`, in the buffer it already has.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

impl Scratch {
    /// Publish the block written at `stride`, keeping per node the reach
    /// word and the planes `deepest` needs: each kept word is written once,
    /// straight into the shared allocation (an iterator of exact length,
    /// so the `Arc` is allocated at its size and filled in place).
    fn seal(&self, n: usize, stride: usize, deepest: u32) -> Block {
        let tight = 1 + planes_for(deepest);
        // `at` walks node by node over the first `tight` of every `stride`
        // words.
        let (mut at, mut left) = (0, tight);
        let words = (0..n * tight)
            .map(|_| {
                let word = self.words[at];
                at += 1;
                left -= 1;
                if left == 0 {
                    left = tight;
                    at += stride - tight;
                }
                word
            })
            .collect();
        Block {
            words,
            stride: tight,
        }
    }

    /// The block of `roots` (distinct, at most [`LANES`]; lane L is
    /// `roots[L]`), and how many edges it walked.
    ///
    /// Level-synchronous: `frontier[u]` holds the lanes that reached `u` on
    /// the previous level. Pass 1 ORs it into `next[v]` of every neighbour,
    /// noting `v` the first time its word turns non-zero (a branch-free
    /// push: the slot is always written, the length moves only then). Pass
    /// 2 visits the noted nodes only: the lanes in `next[v]` that `v`'s
    /// reach word lacks have just arrived, at distance `level`; they join
    /// the reach word and the planes of `level`'s set bits, and form `v`'s
    /// frontier for the next level.
    pub fn kernel(&mut self, g: &Graph, roots: &[NodeIdx]) -> (Block, u64) {
        let n = g.node_count();
        debug_assert!(roots.len() <= LANES);
        // Wide enough for a distance of `n - 1`.
        let stride = 1 + planes_for(n.saturating_sub(1) as u32);
        let Scratch {
            words,
            frontier,
            next,
            active,
            touched,
        } = self;
        refill(words, n * stride, 0);
        refill(frontier, n, 0);
        refill(next, n, 0);
        // One slot more than there are nodes: pass 1 writes the slot past
        // the last noted node on every visit.
        refill(touched, n + 1, 0);
        active.clear();
        for (lane, &root) in roots.iter().enumerate() {
            let bit = 1u64 << lane;
            words[root as usize * stride] = bit;
            frontier[root as usize] = bit;
            active.push(root);
        }
        let (mut level, mut visits) = (0u32, 0u64);
        while !active.is_empty() {
            level += 1;
            let mut noted = 0;
            for &u in active.iter() {
                let lanes = std::mem::take(&mut frontier[u as usize]);
                let nbrs = g.neighbors(u);
                visits += nbrs.len() as u64;
                for &v in nbrs {
                    let was = next[v as usize];
                    next[v as usize] = was | lanes;
                    touched[noted] = v;
                    noted += (was == 0) as usize;
                }
            }
            active.clear();
            for &v in &touched[..noted] {
                let node = &mut words[v as usize * stride..][..stride];
                let arrived = std::mem::take(&mut next[v as usize]) & !node[0];
                if arrived == 0 {
                    continue;
                }
                node[0] |= arrived;
                let mut bits = level;
                while bits != 0 {
                    node[1 + bits.trailing_zeros() as usize] |= arrived;
                    bits &= bits - 1;
                }
                frontier[v as usize] = arrived;
                active.push(v);
            }
        }
        // The last level reached no one.
        let deepest = level.saturating_sub(1);
        (self.seal(n, stride, deepest), visits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs_distances;

    use crate::unit_disk::build_unit_disk;
    use chlm_geom::region::deploy_uniform;
    use chlm_geom::{Disk, Point, SimRng};

    /// A seeded unit-disk deployment at the simulator's density, mean
    /// degree 9.
    fn deployment(n: usize, seed: u64) -> (Graph, Vec<Point>) {
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let pts = deploy_uniform(&region, n, &mut SimRng::seed_from(seed));
        (build_unit_disk(&pts, rtx), pts)
    }

    /// Edges one scalar BFS from `root` walks: every edge of its component,
    /// from both ends.
    fn scalar_visits(g: &Graph, root: NodeIdx) -> u64 {
        bfs_distances(g, root)
            .iter()
            .zip(0..)
            .filter(|&(&d, _)| d != UNREACHABLE)
            .map(|(_, v)| g.degree(v) as u64)
            .sum()
    }

    /// Every lane of `block`, decoded into a distance row.
    fn rows(g: &Graph, block: &Block) -> Vec<Vec<u32>> {
        let lanes = block
            .words
            .iter()
            .step_by(block.stride)
            .fold(0, |m, &w| m | w);
        (0..u64::BITS - lanes.leading_zeros())
            .map(|lane| {
                (0..g.node_count() as NodeIdx)
                    .map(|v| block.distance(lane, v))
                    .collect()
            })
            .collect()
    }

    /// What a fill does for `wanted` (ascending, distinct), in edges
    /// walked: `(by the kernel, by one scalar BFS per root)`. Every lane is
    /// checked against the scalar row on the way.
    fn work(g: &Graph, wanted: &[NodeIdx]) -> (u64, u64) {
        let (mut kernel, mut scalar, mut placed) = (0, 0, 0);
        for batch in near_batches(g, wanted) {
            assert!(!batch.is_empty() && batch.len() <= LANES);
            placed += batch.len();
            let own: u64 = batch.iter().map(|&r| scalar_visits(g, r)).sum();
            scalar += own;
            let (block, visits) = Scratch::default().kernel(g, &batch);
            for (&root, row) in batch.iter().zip(rows(g, &block)) {
                assert_eq!(row, bfs_distances(g, root), "root {root}");
            }
            // A node is walked once per level a lane arrives on: never
            // more often than scalar walks it.
            assert!(visits <= own);
            kernel += visits;
        }
        assert_eq!(placed, wanted.len(), "every root in exactly one batch");
        (kernel, scalar)
    }

    /// The dense case the kernel exists for — every node of a 1 024-node
    /// world wanted, as on the E27 grid: a quarter of the scalar edge
    /// visits or fewer (measured: a seventh).
    #[test]
    fn work_pin_dense_roots_walk_a_quarter_of_the_scalar_edges() {
        let (g, _) = deployment(1024, 7);
        let wanted: Vec<NodeIdx> = (0..1024).collect();
        let (kernel, scalar) = work(&g, &wanted);
        assert!(scalar > 1000 * 2 * g.edge_count() as u64, "fixture split");
        assert!(
            4 * kernel <= scalar,
            "kernel {kernel} edge visits, scalar {scalar}"
        );
    }

    /// The sparse case an index-order batch lost on (0.6–0.8x): 1 % of a
    /// 16 384-node world, 163 roots, in two full batches and a 35-root
    /// remainder. Reading: 15 300 631 kernel edge visits against
    /// 23 879 174 scalar ones (0.64). The bound is the first reading; it
    /// only ever goes down.
    #[test]
    fn work_pin_sparse_roots_on_the_kernel() {
        let n = 16_384;
        let (g, _) = deployment(n, 11);
        let mut rng = SimRng::seed_from(12);
        let mut wanted: Vec<NodeIdx> = (0..n / 100).map(|_| rng.index(n) as NodeIdx).collect();
        wanted.sort_unstable();
        wanted.dedup();
        assert_eq!(wanted.len(), 163);
        let (kernel, scalar) = work(&g, &wanted);
        assert!(
            kernel <= 15_300_631,
            "kernel {kernel} edge visits, scalar {scalar}"
        );
    }

    /// Three roots at the rim of the deployment, a diameter apart: one
    /// batch with almost nothing to share. Reading: 105 554 kernel edge
    /// visits against 107 226 scalar ones (0.98). The bound is the first
    /// reading; it only ever goes down.
    #[test]
    fn work_pin_corner_roots_on_the_kernel() {
        let (g, pts) = deployment(4096, 13);
        let extreme = |key: fn(&Point) -> f64| {
            let mut best = 0;
            for (v, p) in pts.iter().enumerate() {
                if key(p) > key(&pts[best]) {
                    best = v;
                }
            }
            best as NodeIdx
        };
        let mut wanted = vec![extreme(|p| p.x), extreme(|p| -p.x), extreme(|p| p.y)];
        wanted.sort_unstable();
        wanted.dedup();
        assert_eq!(wanted.len(), 3);
        let (kernel, scalar) = work(&g, &wanted);
        assert!(
            kernel <= 105_554,
            "kernel {kernel} edge visits, scalar {scalar}"
        );
    }

    /// A block keeps as many planes as its deepest lane needs: on a path
    /// of `d` edges, roots at the ends (and the middle) spell distances up
    /// to `d` in `⌈log₂(d + 1)⌉` planes, across every boundary 1 | 2,
    /// 3 | 4, 7 | 8, 255 | 256.
    #[test]
    fn blocks_keep_the_planes_their_deepest_lane_needs() {
        let mut scratch = Scratch::default();
        for (d, planes) in [
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (255, 8),
            (256, 9),
        ] {
            let edges: Vec<(NodeIdx, NodeIdx)> = (0..d).map(|i| (i, i + 1)).collect();
            let g = Graph::from_edges(d as usize + 1, &edges);
            let mut roots = vec![0, d];
            if d >= 2 {
                roots.insert(1, d / 2);
            }
            let want: Vec<Vec<u32>> = roots.iter().map(|&r| bfs_distances(&g, r)).collect();
            let (block, _) = scratch.kernel(&g, &roots);
            assert_eq!(block.stride, 1 + planes, "d = {d}");
            assert_eq!(rows(&g, &block), want, "d = {d}");
        }
    }

    /// What a full fill holds against `n²` `u32` rows, on the E27 grid's
    /// n = 1 024 and on four times that: 0.20 and 0.22 of it.
    #[test]
    fn a_full_fill_holds_under_a_quarter_of_the_rows() {
        let mut scratch = Scratch::default();
        for (n, seed) in [(1024, 7), (4096, 13)] {
            let (g, _) = deployment(n, seed);
            let all: Vec<NodeIdx> = (0..n as NodeIdx).collect();
            let batches = near_batches(&g, &all);
            assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), n);
            let held: usize = batches
                .iter()
                .map(|batch| scratch.kernel(&g, batch).0.bytes())
                .sum();
            let rows = n * n * 4;
            assert!(4 * held <= rows, "n = {n}: {held} bytes held, rows {rows}");
        }
    }

    /// Batches on degenerate graphs: nothing wanted, isolated nodes (one
    /// lane each), a star (one batch through the hub), two components
    /// (never one batch).
    #[test]
    fn batches_on_degenerate_graphs() {
        assert!(near_batches(&Graph::with_nodes(0), &[]).is_empty());
        assert!(near_batches(&Graph::with_nodes(3), &[]).is_empty());
        let lonely = near_batches(&Graph::with_nodes(3), &[0, 2]);
        assert_eq!(lonely.len(), 2);
        assert!(lonely.iter().all(|b| b.len() == 1));

        let star = Graph::from_edges(6, &[(3, 0), (3, 1), (3, 2), (3, 4), (3, 5)]);
        let leaves = near_batches(&star, &[0, 1, 5]);
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0], [0, 1, 5]);
        let (block, visits) = Scratch::default().kernel(&star, &[0, 3, 5]);
        let lanes = rows(&star, &block);
        assert_eq!(lanes[0], [0, 2, 2, 1, 2, 2]);
        assert_eq!(lanes[1], [1, 1, 1, 0, 1, 1]);
        assert_eq!(lanes[2], [2, 2, 2, 1, 2, 0]);
        // Deepest 2: a reach word and two planes a node.
        assert_eq!(block.bytes(), 6 * 3 * 8);
        // Level 1 walks from the three roots (1 + 5 + 1 edges), level 2 from
        // the hub again — the leaves' lanes just arrived there — and from
        // all five leaves, level 3 from the leaves once more: 7 + 10 + 5,
        // against 3 x 10 for three scalar searches.
        assert_eq!(visits, 22);

        let split = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let parts = near_batches(&split, &[0, 2, 3, 4]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], [0, 2]);
        assert_eq!(parts[1], [3, 4]);
        let (block, _) = Scratch::default().kernel(&split, &[0, 4]);
        let lanes = rows(&split, &block);
        assert_eq!(lanes[0], [0, 1, 2, UNREACHABLE, UNREACHABLE]);
        assert_eq!(lanes[1], [UNREACHABLE, UNREACHABLE, UNREACHABLE, 1, 0]);
    }
}
