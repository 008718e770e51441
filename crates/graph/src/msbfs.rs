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
//! same roots batched by nearness: a seventh). Hence [`Batches`]: it cuts
//! the wanted roots into batches of at most [`LANES`] mutually-near ones —
//! the lowest root not yet in a batch, then the wanted roots a BFS from it
//! meets first — and every batch, however few lanes it fills, runs through
//! the one kernel ([`Scratch::kernel`]). A batch of one lane walks the
//! edges one scalar BFS walks, each visit a `u64` word where the scalar
//! loop touches a `u32`.
//!
//! **The block.** A batch ends as one [`Block`]: per node a *reach* word
//! (bit L set iff lane L's root reaches the node) and then
//! `⌈log₂(deepest + 1)⌉` *plane* words, where bit L of plane p is bit p of
//! lane L's distance to the node, the node's words side by side, so that a
//! read touches one cache line. A full block of 64 roots with 6 planes
//! holds 7 words a node, under 1 byte per root and node against the 4 of a
//! `u32` row. A lone miss's one-lane block packs 64 nodes into each of its
//! words (a group of 64 nodes takes a reach word and a word per plane). A
//! lane spells [`crate::traversal::bfs_distances`]' row, entry for entry.
//! A [`Block`] is a handle — the shared words and their layout — that each
//! root's cell holds by value, so a read goes from the cell straight to the
//! words (behind a shared header, one load more, `chlm-exp E27` ran
//! slower).
//!
//! The kernel writes the batch in its scratch's `words`, laid out as the
//! block is, at the stride of the widest block the scratch has kept (a
//! deeper batch spreads it a plane at a time): the lanes arriving at a node
//! on level `level` are one word, ORed into its reach word and the planes
//! of `level`'s set bits, with no loop over lanes. That buffer is written
//! by every batch, so the kernel's scattered writes stay in cache; the
//! batch is then copied, each group's reach word and planes, into the
//! block, one sequential pass. Writing straight into the block's own,
//! colder memory made a fill at n = 4 096 5–10 % slower, and publishing
//! plane-major slabs (no copy) made a read touch one cache line per
//! plane.
//!
//! **Kept memory.** A [`Scratch`] is one worker's: the kernel's per-node
//! buffers and `words`, which every run leaves ready for the next. The
//! words of the blocks are one [`BlockWords`] that every worker of a fill
//! shares: those published (`kept`), taken back (`free`) once nothing else
//! holds them (the graph's next mutation emptied its cells;
//! `Arc::get_mut` then succeeds) and written over by a later batch: the
//! free words of least room that hold it; when none do, the roomiest go
//! and the batch takes new words of its size. So blocks stay the size of
//! the planes some batch needed, and a fill whose blocks, largest first,
//! each fit the same rank of an earlier fill's finds them all, whichever
//! worker runs which batch in whatever order (taking the least room that
//! fits never strands a later batch that a matching would have served).
//! A fill's scratches and words live in the caller's [`crate::HopFill`],
//! so a fill a tick calls the allocator only for more batches, or deeper
//! ones, than it has met before (or, in the cover's buffers, more pairs).

use crate::traversal::UNREACHABLE;
use crate::{Graph, NodeIdx};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Roots per batch: the bits of the per-node lane word.
pub(crate) const LANES: usize = u64::BITS as usize;

/// `log₂` of the bits a node takes in a fill's block: one word, a bit per
/// lane.
pub(crate) const BATCH_SHIFT: u32 = LANES.trailing_zeros();

/// `log₂` of the bits a node takes in a lone miss's block: one bit.
pub(crate) const LONE_SHIFT: u32 = 0;

/// The near batches of one fill, and the buffers that cut them, kept
/// across fills.
#[derive(Default)]
pub(crate) struct Batches {
    /// Wanted and not yet in a batch.
    open: Vec<bool>,
    /// The search (1-based batch number) that last reached each node, so
    /// no search has to clear what the one before it marked.
    reached: Vec<u32>,
    queue: Vec<NodeIdx>,
    /// Every batch's roots, batch after batch.
    roots: Vec<NodeIdx>,
    /// Where each batch ends in `roots`.
    ends: Vec<usize>,
}

impl Batches {
    /// Partition `wanted` (ascending, distinct) into batches of at most
    /// [`LANES`] mutually-near roots, each the search's own first; see the
    /// module docs. Every root lands in exactly one batch, and a batch
    /// never spans two components.
    pub fn cut(&mut self, g: &Graph, wanted: &[NodeIdx]) {
        let n = g.node_count();
        let Batches {
            open,
            reached,
            queue,
            roots,
            ends,
        } = self;
        refill(open, n, false);
        for &r in wanted {
            open[r as usize] = true;
        }
        refill(reached, n, 0);
        // Room for every node up front: no later cut of this graph grows
        // them, however its roots fall into batches.
        for buf in [&mut *queue, &mut *roots] {
            buf.clear();
            buf.reserve(n);
        }
        ends.clear();
        ends.reserve(n);
        for &first in wanted {
            if !std::mem::take(&mut open[first as usize]) {
                continue;
            }
            let search = ends.len() as u32 + 1;
            let start = roots.len();
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
                        if roots.len() - start == LANES {
                            break 'search;
                        }
                    }
                }
            }
            ends.push(roots.len());
        }
    }

    /// How many batches the last cut made.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The roots of batch `i`.
    pub fn get(&self, i: usize) -> &[NodeIdx] {
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.roots[start..self.ends[i]]
    }
}

/// Planes needed to spell every distance up to `deepest`.
fn planes_for(deepest: u32) -> usize {
    (u32::BITS - deepest.leading_zeros()) as usize
}

/// The distances of up to [`LANES`] roots to every node, as bit planes;
/// see the module docs. A handle: the roots' cells and the scratch that
/// published it share the words, which that scratch writes over once
/// nothing else holds them.
pub(crate) struct Block {
    /// Group after group, `stride` words each, then room no group uses.
    words: Arc<[u64]>,
    /// Words the groups take.
    len: u32,
    /// Words per group: the reach word, then the planes.
    stride: u8,
    /// `log₂` of the bits each node takes in a word: a group of
    /// `64 >> shift` nodes shares its words (one node in a fill's block).
    shift: u8,
}

impl Block {
    /// Another handle on the same words: a reference count, not a copy.
    pub fn share(&self) -> Block {
        Block {
            words: Arc::clone(&self.words),
            ..*self
        }
    }

    /// Lane `lane`'s distance to `v` ([`UNREACHABLE`] when not reached).
    ///
    /// # Panics
    /// If `v` is out of range.
    #[inline]
    pub fn distance(&self, lane: u32, v: NodeIdx) -> u32 {
        let stride = self.stride as usize;
        let bit = (v as usize) << self.shift | lane as usize;
        let (group, at) = (bit / LANES * stride, bit % LANES);
        let words = &self.words[group..group + stride];
        if words[0] >> at & 1 == 0 {
            return UNREACHABLE;
        }
        words[1..]
            .iter()
            .rev()
            .fold(0, |d, &plane| d << 1 | (plane >> at & 1) as u32)
    }

    /// Where the block's words sit: one block, one address.
    pub fn addr(&self) -> usize {
        self.words.as_ptr() as usize
    }

    /// Heap bytes of the block's groups.
    pub fn bytes(&self) -> usize {
        self.len as usize * 8
    }
}

/// One worker's kernel buffers, kept across every batch it computes; see
/// the module docs.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Lanes that reached a node on the previous level; all zero between
    /// runs.
    frontier: Vec<u64>,
    /// Lanes arriving at a node on the current level; all zero between
    /// runs.
    next: Vec<u64>,
    /// Nodes with a non-empty frontier, each once.
    active: Vec<NodeIdx>,
    /// Nodes whose `next` turned non-zero this level.
    touched: Vec<NodeIdx>,
    /// The batch being written: each group's reach word and planes side
    /// by side.
    words: Vec<u64>,
}

/// The words of the blocks a fill's workers published, shared by all of
/// them; see the module docs.
#[derive(Default)]
pub(crate) struct BlockWords {
    /// Published words, possibly still held by a graph.
    kept: Vec<Arc<[u64]>>,
    /// Words taken back from `kept`: nothing else holds them.
    free: Vec<Arc<[u64]>>,
    /// Words of the widest block kept: a batch starts at its stride.
    widest: usize,
}

/// `blocks`, locked. No kernel panics while it holds the lock, so poison
/// only means a batch elsewhere panicked; the words stay consistent.
pub(crate) fn lock(blocks: &Mutex<BlockWords>) -> MutexGuard<'_, BlockWords> {
    // AUDIT: the shared words only decide which memory a block is copied
    // into, never what it spells; see the module docs.
    blocks.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `buf` as `len` copies of `value`, in the buffer it already has.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

impl BlockWords {
    /// Take back every kept block nobody else holds any more.
    pub fn reclaim(&mut self) {
        let mut i = 0;
        while let Some(block) = self.kept.get_mut(i) {
            if Arc::get_mut(block).is_some() {
                self.free.push(self.kept.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// Keep `block`, published from these words, to take it back later —
    /// with room in `free` for everything kept, so that taking it back
    /// does not grow the list.
    pub fn keep(&mut self, block: Block) {
        self.widest = self.widest.max(block.len as usize);
        self.kept.push(block.words);
        self.free.reserve(self.kept.len());
    }
}

impl Scratch {
    /// Words this scratch can write a batch in without growing.
    pub fn room(&self) -> usize {
        self.words.capacity()
    }

    /// Grow to `room` words ahead of need (see [`Scratch::room`]).
    pub fn make_room(&mut self, room: usize) {
        self.words.clear();
        self.words.reserve_exact(room);
    }

    /// The block of `roots` (distinct; lane L is `roots[L]`), each node
    /// taking `1 << SHIFT` bits of a word (at least one per root), and how
    /// many edges it walked.
    ///
    /// Level-synchronous: `frontier[u]` holds the lanes that reached `u` on
    /// the previous level. Pass 1 ORs it into `next[v]` of every neighbour,
    /// noting `v` the first time its word turns non-zero (a branch-free
    /// push: the slot is always written, the length moves only then). Pass
    /// 2 visits the noted nodes only: the lanes in `next[v]` that `v`'s
    /// reach bits lack have just arrived, at distance `level`; they join
    /// the reach word, the planes of `level`'s set bits (one word ORed in
    /// per set bit, no loop over lanes) and `v`'s frontier for the next
    /// level.
    ///
    /// The batch is written into `words` at the stride of the widest block
    /// `blocks` keeps, so a batch no deeper finds its planes there (a
    /// deeper one spreads the groups apart a plane at a time), and then
    /// copied, each group's reach word and planes, into free words of
    /// `blocks` or new ones.
    pub fn kernel<const SHIFT: u32>(
        &mut self,
        g: &Graph,
        roots: &[NodeIdx],
        blocks: &Mutex<BlockWords>,
    ) -> (Block, u64) {
        let n = g.node_count();
        debug_assert!(roots.len() <= 1 << SHIFT && SHIFT <= BATCH_SHIFT);
        let groups = (n << SHIFT).div_ceil(LANES);
        let Scratch {
            words,
            frontier,
            next,
            active,
            touched,
        } = self;
        let widest = lock(blocks).widest;
        if frontier.len() != n {
            refill(frontier, n, 0);
            refill(next, n, 0);
            // One slot more than there are nodes: pass 1 writes the slot
            // past the last noted node on every visit.
            refill(touched, n + 1, 0);
            active.reserve(n);
        }
        // The reach word and the planes of any distance in `g`, at most.
        let most = 1 + planes_for(n.saturating_sub(1) as u32);
        let mut stride = (widest / groups.max(1)).clamp(1, most);
        words.clear();
        words.reserve_exact(groups * stride);
        words.resize(groups * stride, 0);
        active.clear();
        for (lane, &root) in roots.iter().enumerate() {
            let bit = (root as usize) << SHIFT;
            words[bit / LANES * stride] |= 1 << lane << (bit % LANES);
            frontier[root as usize] = 1 << lane;
            active.push(root);
        }
        let (mut level, mut deepest, mut visits) = (0u32, 0u32, 0u64);
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
            // The words a group needs for a distance of `level`; the first
            // arrival on a level that needs a plane more adds it.
            let need = 1 + planes_for(level);
            for &v in &touched[..noted] {
                let bit = (v as usize) << SHIFT;
                let (group, at) = (bit / LANES, bit % LANES);
                // Bits above this node's in the shifted word belong to
                // other nodes; `next` holds none of their lanes.
                let arrived =
                    std::mem::take(&mut next[v as usize]) & !(words[group * stride] >> at);
                if arrived == 0 {
                    continue;
                }
                if stride < need {
                    widen(words, groups, stride);
                    stride += 1;
                }
                deepest = level;
                let node = &mut words[group * stride..][..stride];
                node[0] |= arrived << at;
                let mut bits = level;
                while bits != 0 {
                    node[1 + bits.trailing_zeros() as usize] |= arrived << at;
                    bits &= bits - 1;
                }
                frontier[v as usize] = arrived;
                active.push(v);
            }
        }

        let tight = 1 + planes_for(deepest);
        let len = groups * tight;
        // `at` walks group by group over the first `tight` of every
        // `stride` words: an iterator of exact length, so each word is
        // written once, straight into the block.
        let (mut at, mut left) = (0, tight);
        let groups_words = (0..len).map(|_| {
            let word = words[at];
            at += 1;
            left -= 1;
            if left == 0 {
                left = tight;
                at += stride - tight;
            }
            word
        });
        let room = take(&mut lock(blocks).free, len);
        let shared = match room {
            Some(mut room) => {
                // audit: infallible because free words left `kept`, and
                // with them every other holder, before they were put there.
                let out = Arc::get_mut(&mut room).expect("free words are unheld");
                for (out, word) in out.iter_mut().zip(groups_words) {
                    *out = word;
                }
                room
            }
            // Allocated at its size and filled in place.
            None => groups_words.collect(),
        };
        let block = Block {
            words: shared,
            len: len as u32,
            stride: tight as u8,
            shift: SHIFT as u8,
        };
        (block, visits)
    }
}

/// Free words for a block of `need`: those of least room that hold them.
/// When none do, the roomiest go (a new block takes their place).
fn take(free: &mut Vec<Arc<[u64]>>, need: usize) -> Option<Arc<[u64]>> {
    let best = (0..free.len()).min_by_key(|&i| {
        let room = free[i].len();
        (room < need, room.abs_diff(need))
    })?;
    let room = free.swap_remove(best);
    (room.len() >= need).then_some(room)
}

/// Spread `words`, `groups` groups of `from` words each, a word apart:
/// each group keeps its words and gains a zero one at its end.
fn widen(words: &mut Vec<u64>, groups: usize, from: usize) {
    let to = from + 1;
    words.reserve_exact(groups);
    words.resize(groups * to, 0);
    // Last group first: a group moves up, past what is still unread.
    for group in (0..groups).rev() {
        words.copy_within(group * from..(group + 1) * from, group * to);
        words[group * to + from] = 0;
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

    /// `wanted`'s near batches, one `Vec` each.
    fn near_batches(g: &Graph, wanted: &[NodeIdx]) -> Vec<Vec<NodeIdx>> {
        let mut batches = Batches::default();
        batches.cut(g, wanted);
        (0..batches.len())
            .map(|i| batches.get(i).to_vec())
            .collect()
    }

    /// The first `lanes` lanes of `block`, decoded into distance rows.
    fn rows(g: &Graph, block: &Block, lanes: usize) -> Vec<Vec<u32>> {
        (0..lanes as u32)
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
        let mut batches = Batches::default();
        batches.cut(g, wanted);
        let mut scratch = Scratch::default();
        for i in 0..batches.len() {
            let batch = batches.get(i);
            assert!(!batch.is_empty() && batch.len() <= LANES);
            placed += batch.len();
            let own: u64 = batch.iter().map(|&r| scalar_visits(g, r)).sum();
            scalar += own;
            let (block, visits) = scratch.kernel::<BATCH_SHIFT>(g, batch, &Mutex::default());
            for (&root, row) in batch.iter().zip(rows(g, &block, batch.len())) {
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
    /// 3 | 4, 7 | 8, 255 | 256 — and so does a lone miss's one-lane block
    /// from the end, in slabs of a bit a node.
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
            let (block, _) = scratch.kernel::<BATCH_SHIFT>(&g, &roots, &Mutex::default());
            assert_eq!(block.stride as usize, 1 + planes, "d = {d}");
            assert_eq!(block.bytes(), (d as usize + 1) * (1 + planes) * 8);
            assert_eq!(rows(&g, &block, roots.len()), want, "d = {d}");
            let (lone, _) = scratch.kernel::<LONE_SHIFT>(&g, &[0], &Mutex::default());
            assert_eq!(lone.stride as usize, 1 + planes, "d = {d}");
            assert_eq!(
                lone.bytes(),
                (d as usize + 1).div_ceil(64) * (1 + planes) * 8
            );
            assert_eq!(rows(&g, &lone, 1)[0], want[0], "d = {d}");
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
            let mut batches = Batches::default();
            batches.cut(&g, &all);
            let cut: usize = (0..batches.len()).map(|i| batches.get(i).len()).sum();
            assert_eq!(cut, n, "every root in exactly one batch");
            let held: usize = (0..batches.len())
                .map(|i| {
                    scratch
                        .kernel::<BATCH_SHIFT>(&g, batches.get(i), &Mutex::default())
                        .0
                        .bytes()
                })
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
        let (block, visits) =
            Scratch::default().kernel::<BATCH_SHIFT>(&star, &[0, 3, 5], &Mutex::default());
        let lanes = rows(&star, &block, 3);
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
        let (block, _) =
            Scratch::default().kernel::<BATCH_SHIFT>(&split, &[0, 4], &Mutex::default());
        let lanes = rows(&split, &block, 2);
        assert_eq!(lanes[0], [0, 1, 2, UNREACHABLE, UNREACHABLE]);
        assert_eq!(lanes[1], [UNREACHABLE, UNREACHABLE, UNREACHABLE, 1, 0]);
    }

    /// A block's words are taken back only once nothing else holds them,
    /// and a later batch is then written over them: the free words of
    /// least room that hold the batch; when none do, the roomiest go and
    /// the batch takes new words of its size.
    #[test]
    fn a_block_is_reused_once_unheld() {
        let path =
            |n: u32| Graph::from_edges(n as usize, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>());
        let nine = path(9);
        let (mut scratch, words) = (Scratch::default(), Mutex::default());
        let mut run =
            |g: &Graph, roots: &[NodeIdx]| scratch.kernel::<BATCH_SHIFT>(g, roots, &words).0;
        let counts = || {
            let words = lock(&words);
            (words.kept.len(), words.free.len())
        };
        // Deepest 8: four planes, 5 words a node.
        let wide = run(&nine, &[0, 8]);
        let held = wide.share();
        lock(&words).keep(wide);
        // Deepest 4: three planes, 4 words a node, in words of its size.
        let narrow = run(&nine, &[4]);
        assert_ne!(held.addr(), narrow.addr(), "held words written over");
        assert_eq!((narrow.bytes(), narrow.words.len()), (9 * 4 * 8, 9 * 4));
        let (wide, narrow_at) = (held.addr(), narrow.addr());
        lock(&words).keep(narrow);
        lock(&words).reclaim();
        assert_eq!(counts(), (1, 1), "one held");
        // Deepest 5 from the middle: the narrow words fit.
        let again = run(&nine, &[3, 5]);
        assert_eq!(again.addr(), narrow_at);
        assert_eq!(rows(&nine, &again, 2)[1], bfs_distances(&nine, 5));
        lock(&words).keep(again);
        drop(held);
        lock(&words).reclaim();
        assert_eq!(counts(), (0, 2));
        // Deepest 4 again: both fit, the narrow ones are taken.
        let short = run(&nine, &[4]);
        assert_eq!(short.addr(), narrow_at);
        lock(&words).keep(short);
        // Deepest 8: only the wide ones fit.
        let end = run(&nine, &[8]);
        assert_eq!(end.addr(), wide);
        assert_eq!(rows(&nine, &end, 1)[0], bfs_distances(&nine, 8));
        lock(&words).keep(end);
        lock(&words).reclaim();
        // A longer path: neither fits, so the roomiest (the wide words) go
        // and the batch takes 10 nodes of 5 words.
        let ten = path(10);
        let grown = run(&ten, &[0]);
        assert_eq!((grown.bytes(), grown.words.len()), (10 * 5 * 8, 10 * 5));
        assert_eq!(rows(&ten, &grown, 1)[0], bfs_distances(&ten, 0));
        let rooms: Vec<usize> = lock(&words).free.iter().map(|words| words.len()).collect();
        assert_eq!(rooms, [9 * 4], "the wide words went");
    }
}
