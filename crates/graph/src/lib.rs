//! # chlm-graph
//!
//! Graph substrate for the CHLM MANET simulator.
//!
//! The paper models the network as an undirected graph `G = (V, E)` where an
//! edge exists between two nodes iff they are within `R_TX` of one another
//! (the *unit-disk* model, §1.2). This crate provides:
//!
//! * [`Graph`] — a compact undirected adjacency structure: sorted neighbor
//!   lists as rows of one arena behind a per-node `(start, len, cap)`
//!   table, so a graph is two heap blocks however many nodes it has, and
//!   rewriting one every tick — per-flip edits, `reset` + refill,
//!   `copy_from`, `assign_edges`, `assign_edges_in_order` — calls the
//!   allocator only to grow them,
//! * [`unit_disk::build_unit_disk`] — `O(n·d)` unit-disk construction over a
//!   spatial grid,
//! * BFS / connected components ([`traversal`]),
//! * [`Graph::hops`] — the one shortest-path store of a topology
//!   snapshot: the BFS hop distance between two nodes, answered from
//!   whichever endpoint's distances are held, computed by whoever asks
//!   first and shared by every later reader of the same `&Graph` until the
//!   adjacency next changes; a caller that knows which pairs it is about
//!   to read hands them to [`Graph::fill_hops`], the one way in: it roots
//!   them at a vertex cover of the pairs neither end of which is held,
//!   cuts the roots into batches of up to 64 neighbours, runs each batch
//!   through one bit-parallel BFS kernel into one bit-plane block of
//!   under a byte per root and node (a node's words side by side, one
//!   cache line a read), and keeps all of it — buffers,
//!   blocks once the graph lets them go, the cell table — in a [`HopFill`]
//!   and the graph across calls, so a fill a tick calls the allocator only
//!   to grow (a lone miss of `hops` is a batch of one, a block of a bit
//!   per node and plane),
//! * [`dynamics::LinkDiff`] — link up/down event extraction between
//!   consecutive topology snapshots (the level-0 link-state change events of
//!   eq. (4)).
//!
//! ## Example
//!
//! ```
//! use chlm_geom::{Disk, SimRng};
//! use chlm_graph::unit_disk::build_unit_disk;
//! use chlm_graph::traversal::{bfs_distances, connected_components};
//!
//! let region = Disk::centered(8.0);
//! let mut rng = SimRng::seed_from(7);
//! let points = chlm_geom::region::deploy_uniform(&region, 100, &mut rng);
//! let graph = build_unit_disk(&points, 2.5);
//! assert_eq!(graph.node_count(), 100);
//! let dist = bfs_distances(&graph, 0);
//! assert_eq!(dist[0], 0);
//! // The stored distances are the same distances, computed once per
//! // snapshot and read from either end.
//! assert!((0..100).all(|v| graph.hops(0, v) == dist[v as usize]));
//! assert_eq!(graph.hops(99, 0), dist[99]);
//! let (_, components) = connected_components(&graph);
//! assert!(components >= 1);
//! ```

mod cover;
pub mod dynamics;
pub mod fasthash;
pub mod incremental;
mod msbfs;
pub mod traversal;
pub mod unit_disk;

pub use dynamics::LinkDiff;
pub use incremental::{EdgeFlip, UnitDiskMaintainer};

use chlm_par::WorkerPool;
use cover::PairCover;
use msbfs::{Batches, Block, BlockWords, Scratch, BATCH_SHIFT, LONE_SHIFT};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Node index type. Graphs in this workspace are dense and index nodes by
/// position `0..n`, with any stable external identity (e.g. the random node
/// ID used by the LCA election) kept alongside.
pub type NodeIdx = u32;

/// A compact undirected graph over nodes `0..n`.
///
/// Neighbor lists are kept sorted so that adjacency checks are `O(log d)`
/// and diffing two graphs is a linear merge.
///
/// **Layout.** All neighbor lists live in one `Vec<NodeIdx>` arena; a
/// per-node row table holds each list's `(start, len, cap)` in it, so
/// [`Graph::neighbors`] is one slice of the arena and writing a graph
/// touches two heap blocks, not one per node. Which writer leaves what:
///
/// * [`Graph::add_edge`] / [`Graph::remove_edge`] shift inside the row
///   (`O(d)`). A full row moves to the arena's tail with doubled capacity
///   and leaves a hole behind, so an insert is amortised `O(d)` and calls
///   the allocator only when the arena itself has to grow, which doubles
///   it.
/// * [`Graph::reset`] empties every row but keeps its capacity, re-packing
///   the rows in node order (holes are reclaimed here): the slack a cleared
///   `Vec` per node would keep, so a refill of similar shape moves no row.
/// * [`Graph::copy_from`] and [`Graph::assign_edges`] pack tight in node
///   order (`cap == len`, no holes): one sequential write, no per-row
///   growth, and a quarter of headroom whenever the arena has to grow so
///   that the next, slightly denser snapshot fits the same buffer.
///
/// None of this is part of the value: equality compares node count, edge
/// count and neighbor lists, `Debug` prints the lists, and a clone is equal
/// to its source whatever holes it copied.
///
/// A graph also keeps the BFS distances asked of it ([`Graph::hops`]).
/// The store is invisible in the value: clones start without it, and
/// equality and `Debug` ignore it.
#[derive(Clone, Default)]
pub struct Graph {
    /// One entry per node: where its neighbor list sits in `arena`.
    table: Vec<Row>,
    /// The neighbor lists. Rows are disjoint; slots outside every row's
    /// `start..start + len` are slack or holes and hold stale values.
    arena: Vec<NodeIdx>,
    n_edges: usize,
    memo: HopStore,
}

/// One node's slice of the arena: `arena[start..start + len]` is its sorted
/// neighbor list, `arena[start..start + cap]` is reserved for it.
#[derive(Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u32,
    cap: u32,
}

impl Row {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Capacity a row gets the first time it needs any (what `Vec<u32>` picks).
const MIN_ROW_CAP: usize = 4;

/// `end` as an arena offset. Rows are addressed in `u32` — half the row
/// table of `usize` offsets, and 2³² slots is 250 times the 2²⁰-node
/// stretch — so a graph that would outgrow that must stop here, not wrap.
#[inline]
fn arena_offset(end: usize) -> u32 {
    // audit: a row placed past u32::MAX would alias another row's slots
    // after the cast; fail loudly instead.
    assert!(
        end <= u32::MAX as usize,
        "graph arena of {end} slots exceeds u32 offsets"
    );
    end as u32
}

/// The hop store behind [`Graph::hops`]: one write-once cell per root,
/// holding the root's lane of the block the kernel published it in; the
/// table itself is allocated by the first request, so that a graph nobody
/// asks for distances pays one flag check per mutation and nothing else,
/// and is kept, its cells emptied, while the node count stays.
#[derive(Default)]
struct HopStore {
    // AUDIT: write-once cache of a pure function of (adjacency, root).
    // Every initializer of a cell computes the same distances, so
    // whichever thread wins the race publishes identical values (a losing
    // block only leaves a lane nobody reads), and every mutator of the
    // adjacency takes `&mut Graph` and empties the store first.
    cells: OnceLock<Box<[OnceLock<Lane>]>>,
    // AUDIT: set by every publication and read only through `&mut`, by
    // `HopStore::clear`; it decides whether the cells are walked, never
    // what they hold.
    /// Whether a cell may have been set since the store was last emptied.
    filled: AtomicBool,
}

/// A held root: the block the kernel published it in, and its lane there.
type Lane = (Block, u32);

impl HopStore {
    /// Empty every cell, once however many mutations follow before the
    /// next publication, keeping the table while it has `n` cells.
    fn clear(&mut self, n: usize) {
        let filled = std::mem::take(self.filled.get_mut());
        if self.cells.get().is_some_and(|cells| cells.len() != n) {
            self.cells.take();
        } else if let Some(cells) = self.cells.get_mut().filter(|_| filled) {
            for cell in cells.iter_mut() {
                cell.take();
            }
        }
    }
}

impl Clone for HopStore {
    /// A clone answers from its own searches: blocks are neither shared
    /// nor copied.
    fn clone(&self) -> Self {
        HopStore::default()
    }
}

thread_local! {
    // AUDIT: per-thread kernel buffers of the lone misses, borrowed for
    // one kernel run at a time (the kernel calls nothing that misses);
    // every run leaves them zeroed, so no distance depends on which miss
    // ran before.
    /// The kernel buffers of this thread's lone [`Graph::hops`] misses.
    static LONE: RefCell<Scratch> = RefCell::default();
}

/// What [`Graph::fill_hops`] keeps between calls: the vertex cover's and
/// the batching's buffers, per worker the kernel's buffers, and the words
/// of the blocks the workers published, taken back once the graph that
/// held them has let them go (its next mutation) and written over by later
/// batches, each into the free words of least room that hold it. Keep one
/// per caller and hand it to every fill: in steady state a fill calls the
/// allocator only for more batches, deeper batches or more pairs than it
/// has met before, at any pool width. A fill state serves any graph;
/// blocks a graph still holds are simply not reused.
#[derive(Default)]
pub struct HopFill {
    cover: PairCover,
    batches: Batches,
    /// Worker `w`'s scratch, at index `w`.
    workers: Vec<(usize, Scratch)>,
    /// The blocks' words, shared by the workers.
    blocks: Mutex<BlockWords>,
}

impl PartialEq for Graph {
    /// Same nodes, same neighbor lists — wherever each graph keeps them.
    fn eq(&self, other: &Self) -> bool {
        self.table.len() == other.table.len()
            && self.n_edges == other.n_edges
            && self.adjacency().eq(other.adjacency())
    }
}

impl Eq for Graph {}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Adjacency<'a>(&'a Graph);
        impl std::fmt::Debug for Adjacency<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.adjacency()).finish()
            }
        }
        f.debug_struct("Graph")
            .field("adj", &Adjacency(self))
            .field("n_edges", &self.n_edges)
            .finish()
    }
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            table: vec![Row::default(); n],
            ..Graph::default()
        }
    }

    /// Build from an edge list. Self-loops are rejected; duplicate edges are
    /// ignored.
    pub fn from_edges(n: usize, edges: &[(NodeIdx, NodeIdx)]) -> Self {
        let mut g = Graph::with_nodes(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    pub fn node_count(&self) -> usize {
        self.table.len()
    }

    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    pub fn degree(&self, u: NodeIdx) -> usize {
        self.table[u as usize].len as usize
    }

    /// Sorted neighbor list of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeIdx) -> &[NodeIdx] {
        &self.arena[self.table[u as usize].range()]
    }

    /// Every node's neighbor list, in node order.
    fn adjacency(&self) -> impl Iterator<Item = &[NodeIdx]> + '_ {
        self.table.iter().map(|row| &self.arena[row.range()])
    }

    pub fn has_edge(&self, u: NodeIdx, v: NodeIdx) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Insert the undirected edge `(u, v)`. Returns `true` if it was new.
    ///
    /// # Panics
    /// On self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeIdx, v: NodeIdx) -> bool {
        assert_ne!(u, v, "self-loop");
        assert!((u as usize) < self.table.len() && (v as usize) < self.table.len());
        match self.neighbors(u).binary_search(&v) {
            Ok(_) => false,
            Err(iu) => {
                self.forget_rows();
                self.insert_at(u, iu, v);
                let iv = self
                    .neighbors(v)
                    .binary_search(&u)
                    .expect_err("asymmetric adjacency");
                self.insert_at(v, iv, u);
                self.n_edges += 1;
                true
            }
        }
    }

    /// Remove the undirected edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeIdx, v: NodeIdx) -> bool {
        match self.neighbors(u).binary_search(&v) {
            Err(_) => false,
            Ok(iu) => {
                self.forget_rows();
                self.remove_at(u, iu);
                // audit: infallible because add_edge inserts both directions
                let iv = self
                    .neighbors(v)
                    .binary_search(&u)
                    .expect("asymmetric adjacency");
                self.remove_at(v, iv);
                self.n_edges -= 1;
                true
            }
        }
    }

    /// Write `v` at position `i` of `u`'s row, shifting the rest up; a full
    /// row first moves to the arena's tail with doubled capacity. The
    /// caller has emptied the memo.
    fn insert_at(&mut self, u: NodeIdx, i: usize, v: NodeIdx) {
        let mut row = self.table[u as usize];
        if row.len == row.cap {
            let cap = (2 * row.cap as usize).max(MIN_ROW_CAP);
            let start = self.arena.len();
            let end = arena_offset(start + cap);
            self.arena.resize(end as usize, 0);
            self.arena.copy_within(row.range(), start);
            row.start = start as u32;
            row.cap = cap as u32;
        }
        let at = row.start as usize + i;
        self.arena.copy_within(at..row.range().end, at + 1);
        self.arena[at] = v;
        row.len += 1;
        self.table[u as usize] = row;
    }

    /// Drop position `i` of `u`'s row, shifting the rest down. The caller
    /// has emptied the memo.
    fn remove_at(&mut self, u: NodeIdx, i: usize) {
        let row = &mut self.table[u as usize];
        let at = row.start as usize + i;
        self.arena.copy_within(at + 1..row.range().end, at);
        row.len -= 1;
    }

    /// Clear to `n` isolated nodes. Every surviving row keeps its capacity
    /// and the rows are re-packed in node order, so a refilled graph of
    /// similar shape allocates nothing and moves no row.
    pub fn reset(&mut self, n: usize) {
        self.memo.clear(n);
        self.table.resize(n, Row::default());
        let mut at = 0usize;
        for row in &mut self.table {
            *row = Row {
                start: at as u32,
                len: 0,
                cap: row.cap,
            };
            at += row.cap as usize;
        }
        // The rows were disjoint inside the arena, so their capacities sum
        // to no more than its length.
        self.arena.truncate(at);
        self.n_edges = 0;
    }

    /// Overwrite `self` with `other`'s structure, reusing this graph's
    /// arena and row table (unlike `clone()`, which allocates both afresh):
    /// rows are packed tight in node order, whatever layout `other` has.
    pub fn copy_from(&mut self, other: &Graph) {
        self.memo.clear(other.table.len());
        self.table.clear();
        self.table.reserve(other.table.len());
        self.arena.clear();
        self.reserve_arena(2 * other.n_edges);
        for nbrs in other.adjacency() {
            // `other`'s lists fit its own u32-addressed arena.
            let start = self.arena.len() as u32;
            self.arena.extend_from_slice(nbrs);
            let len = nbrs.len() as u32;
            self.table.push(Row {
                start,
                len,
                cap: len,
            });
        }
        self.n_edges = other.n_edges;
    }

    /// Overwrite `self` with the graph [`Graph::from_edges`]`(n, edges)`
    /// builds, reusing this graph's arena and row table and writing each
    /// list front to back instead of paying a sorted insert on both rows
    /// of every edge; rows are packed tight in node order. Duplicates and
    /// either orientation are accepted; `edges` is left normalized
    /// (`u < v`, sorted, deduplicated).
    ///
    /// # Panics
    /// On self-loops or out-of-range endpoints.
    pub fn assign_edges(&mut self, n: usize, edges: &mut Vec<(NodeIdx, NodeIdx)>) {
        for e in edges.iter_mut() {
            assert_ne!(e.0, e.1, "self-loop");
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
            assert!((e.1 as usize) < n, "endpoint out of range");
        }
        edges.sort_unstable();
        edges.dedup();
        self.memo.clear(n);
        // First pass: degrees, then each row's place.
        self.table.clear();
        self.table.resize(n, Row::default());
        for &(u, v) in edges.iter() {
            self.table[u as usize].cap += 1;
            self.table[v as usize].cap += 1;
        }
        let total = arena_offset(2 * edges.len()) as usize;
        let mut at = 0u32;
        for row in &mut self.table {
            row.start = at;
            at += row.cap;
        }
        self.arena.clear();
        self.reserve_arena(total);
        self.arena.resize(total, 0);
        // Second pass. Appending keeps every list sorted: in lexicographic
        // edge order node `x` first meets its smaller neighbors, ascending
        // (the `(a, x)` edges, `a < x`), then its larger ones, ascending
        // (the `(x, b)` edges).
        for &(u, v) in edges.iter() {
            for (x, y) in [(u, v), (v, u)] {
                let row = &mut self.table[x as usize];
                self.arena[row.range().end] = y;
                row.len += 1;
            }
        }
        self.n_edges = edges.len();
    }

    /// Overwrite `self` with the graph on `order.len()` nodes whose edges
    /// are `(order[a], order[b])` for each `(a, b)` in `edges` — the bulk
    /// writer for a caller with a numbering of its own (`order` maps it to
    /// node indices and must be a permutation) and an edge list it knows
    /// to be duplicate-free: each undirected edge listed once, in either
    /// orientation and in any order. Rows are laid out in the arena in the
    /// caller's numbering, so a numbering in which neighbours sit close
    /// (a spatial one) writes, and later edits, nearby memory; each short
    /// row is sorted in place. Rows keep their capacity, as after
    /// [`Graph::reset`] (a row that outgrows it gets the next power of
    /// two), so per-flip edits after it move rows about as rarely as they
    /// do after a reset and refill.
    ///
    /// # Panics
    /// If `order` is not a permutation, or on self-loops, out-of-range
    /// endpoints or an edge listed twice.
    pub fn assign_edges_in_order(&mut self, order: &[NodeIdx], edges: &[(u32, u32)]) {
        const UNPLACED: u32 = u32::MAX;
        let n = order.len();
        self.memo.clear(n);
        self.table.resize(n, Row::default());
        for row in &mut self.table {
            row.start = UNPLACED;
            row.len = 0;
        }
        for &(a, b) in edges {
            assert_ne!(a, b, "self-loop");
            assert!((a.max(b) as usize) < n, "endpoint out of range");
            self.table[order[a as usize] as usize].len += 1;
            self.table[order[b as usize] as usize].len += 1;
        }
        // Place the rows in `order`; `len` restarts as the fill cursor.
        let mut at = 0usize;
        for &u in order {
            let row = &mut self.table[u as usize];
            assert_eq!(row.start, UNPLACED, "order lists node {u} twice");
            if row.len > row.cap {
                row.cap = (row.len as usize).next_power_of_two().max(MIN_ROW_CAP) as u32;
            }
            row.start = at as u32;
            row.len = 0;
            at += row.cap as usize;
        }
        // Checked once at the end: every earlier start is smaller.
        let total = arena_offset(at) as usize;
        self.arena.clear();
        self.reserve_arena(total);
        self.arena.resize(total, 0);
        for &(a, b) in edges {
            let (u, v) = (order[a as usize], order[b as usize]);
            for (x, y) in [(u, v), (v, u)] {
                let row = &mut self.table[x as usize];
                self.arena[row.range().end] = y;
                row.len += 1;
            }
        }
        for &u in order {
            let list = &mut self.arena[self.table[u as usize].range()];
            list.sort_unstable();
            assert!(list.windows(2).all(|w| w[0] < w[1]), "edge listed twice");
        }
        self.n_edges = edges.len();
    }

    /// Make room for `len` slots in the (emptied) arena. A buffer that has
    /// to grow takes a quarter more than asked: growth stays geometric
    /// under a drifting edge count, and the bulk writers' next snapshots,
    /// a few percent denser or sparser, reuse the buffer as it is.
    fn reserve_arena(&mut self, len: usize) {
        if len > self.arena.capacity() {
            self.arena.reserve_exact(len + len / 4);
        }
    }

    /// The BFS hop distance between `a` and `b`
    /// ([`traversal::UNREACHABLE`] across a partition):
    /// `traversal::bfs_distances(self, a)[b]`, read from the hop store and
    /// kept there until the adjacency next changes. The graph is
    /// undirected, so the distance is symmetric, and it is answered from
    /// whichever endpoint's distances are held: `a`'s, else `b`'s. When
    /// neither is, this publishes `a` alone, a batch of one through the
    /// kernel [`Graph::fill_hops`] runs, in this thread's kept kernel
    /// buffers and as a block of a bit per node and plane; a caller that
    /// knows its pairs ahead hands them to that instead. Whoever fills the
    /// store — the hop pricer, a packet network sending from `a`, another
    /// thread of either — every later reader of this `&Graph` reads the
    /// same distances; the next [`Graph::add_edge`],
    /// [`Graph::remove_edge`], [`Graph::reset`], [`Graph::copy_from`],
    /// [`Graph::assign_edges`] or [`Graph::assign_edges_in_order`] frees
    /// them all at once.
    ///
    /// # Panics
    /// If `a` or `b` is out of range.
    #[inline]
    pub fn hops(&self, a: NodeIdx, b: NodeIdx) -> u32 {
        let cells = self.hop_cells();
        let (at_a, at_b) = (&cells[a as usize], &cells[b as usize]);
        if a == b {
            return 0;
        }
        if let Some((block, lane)) = at_a.get() {
            return block.distance(*lane, b);
        }
        if let Some((block, lane)) = at_b.get() {
            return block.distance(*lane, a);
        }
        // AUDIT: a lone block is not kept, so these words stay empty and
        // this call's alone: its words are the cell's.
        let lone_words = Mutex::default();
        let block = LONE.with(|lone| {
            lone.borrow_mut()
                .kernel::<LONE_SHIFT>(self, &[a], &lone_words)
                .0
        });
        self.publish(&[a], &block);
        // `a` is held now, by this call or by one that raced it.
        self.hops(a, b)
    }

    /// The store's cells, one per node, allocated (empty) on first use.
    fn hop_cells(&self) -> &[OnceLock<Lane>] {
        // AUDIT: see `HopStore::cells`; the table starts as `n` empty cells
        // whichever thread allocates it.
        self.memo
            .cells
            .get_or_init(|| (0..self.table.len()).map(|_| OnceLock::new()).collect())
    }

    /// Whether `root`'s distances are held.
    fn holds(&self, root: NodeIdx) -> bool {
        self.hop_cells()[root as usize].get().is_some()
    }

    /// Make [`Graph::hops`] a store read for every pair in `pairs` (any
    /// order or orientation, duplicates welcome), holding only what the
    /// pairs need: a pair whose members are equal, or either of whose
    /// members is held, needs nothing. The others — the open pairs — are
    /// rooted at a vertex cover of them, the greedy one (the node with the
    /// most open pairs left uncovered, the lower index on a tie; `cover`'s
    /// module docs), which needs far fewer roots than one member of every
    /// pair.
    ///
    /// The roots are cut into batches of up to 64 that lie near one
    /// another — the lowest root not yet in a batch, then the roots a BFS
    /// from it meets first — and each batch runs as one level-synchronous
    /// bit-parallel BFS, a `u64` of lanes per node, which walks a node's
    /// edges once per distinct distance the batch has to it rather than
    /// once per root. Each batch ends as one bit-plane block (`msbfs`'
    /// module docs give the layout) and is published, its roots'
    /// cells pointing at their lanes; worker `w` of `workers` takes batches
    /// `w`, `w + width`, … with a scratch of its own. `fill` keeps every
    /// buffer and the blocks across calls: a block whose graph has since
    /// mutated (or gone) is written over by a later batch, so keep one
    /// `fill` per caller.
    ///
    /// Which roots end up held is a function of the graph, the store
    /// before the call and `pairs` alone, and each lane spells
    /// `bfs_distances`' row entry for entry — so nothing a reader can see
    /// depends on whether this was called, on how many threads, or racing
    /// which `hops`.
    ///
    /// # Panics
    /// If a pair member is out of range.
    pub fn fill_hops(
        &self,
        pairs: &[(NodeIdx, NodeIdx)],
        fill: &mut HopFill,
        workers: &WorkerPool,
    ) {
        let HopFill {
            cover,
            batches,
            workers: scratches,
            blocks,
        } = fill;
        cover.cover(self, pairs);
        if cover.roots.is_empty() {
            return;
        }
        batches.cut(self, &cover.roots);
        let width = workers.threads().min(batches.len());
        while scratches.len() < width {
            scratches.push((scratches.len(), Default::default()));
        }
        blocks
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .reclaim();
        let (batches, shared) = (&*batches, &*blocks);
        workers.for_each_mut(&mut scratches[..width], |(first, scratch)| {
            for i in (*first..batches.len()).step_by(width) {
                let (block, _) = scratch.kernel::<BATCH_SHIFT>(self, batches.get(i), shared);
                self.publish(batches.get(i), &block);
                msbfs::lock(shared).keep(block);
            }
        });
        // Every scratch keeps room for the widest batch any has written, so
        // that a batch grows none whichever scratch it falls to.
        let room = scratches.iter().map(|(_, s)| s.room()).max().unwrap_or(0);
        for (_, scratch) in scratches.iter_mut() {
            scratch.make_room(room);
        }
    }

    /// Point the cell of each of `roots` (distinct, lane L is `roots[L]`)
    /// at its lane of `block`.
    fn publish(&self, roots: &[NodeIdx], block: &Block) {
        let cells = self.hop_cells();
        // AUDIT: see `HopStore::filled`; set before any cell, read only
        // by `&mut self`.
        self.memo.filled.store(true, Ordering::Relaxed);
        for (lane, &root) in (0..).zip(roots) {
            // AUDIT: write-once publication of a pure function of
            // (adjacency, root). A `hops` or another fill that raced this
            // batch to the cell stored the same distances, so losing is
            // harmless.
            let _ = cells[root as usize].set((block.share(), lane));
        }
    }

    /// The roots whose distances the hop store holds, ascending
    /// (diagnostics and tests only — nothing may branch on it).
    pub fn hop_roots(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.held().map(|(root, _)| root)
    }

    /// Heap bytes the hop store's distances take, every block once however
    /// many roots share it (diagnostics and tests only).
    pub fn hop_store_bytes(&self) -> usize {
        self.hop_blocks().iter().sum()
    }

    /// The heap bytes of each block the hop store holds, largest first.
    /// For tests only: nothing may branch on it.
    #[doc(hidden)]
    pub fn hop_blocks(&self) -> Vec<usize> {
        let mut blocks: Vec<(usize, usize)> = self
            .held()
            .map(|(_, (block, _))| (block.addr(), block.bytes()))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let mut bytes: Vec<usize> = blocks.into_iter().map(|(_, bytes)| bytes).collect();
        bytes.sort_unstable_by(|a, b| b.cmp(a));
        bytes
    }

    fn held(&self) -> impl Iterator<Item = (NodeIdx, &Lane)> + '_ {
        let cells = self.memo.cells.get().map_or(&[][..], |cells| &cells[..]);
        cells
            .iter()
            .enumerate()
            .filter_map(|(root, cell)| Some((root as NodeIdx, cell.get()?)))
    }

    /// Empty the hop store; every per-edge mutator calls this before it
    /// writes (the bulk writers clear it for their new node count).
    #[inline]
    fn forget_rows(&mut self) {
        self.memo.clear(self.table.len());
    }

    /// Iterate every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx)> + '_ {
        self.adjacency().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeIdx;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Mean degree `2|E| / |V|` (0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.table.is_empty() {
            0.0
        } else {
            2.0 * self.n_edges as f64 / self.table.len() as f64
        }
    }

    /// Debug-only structural invariant check: every row inside the arena
    /// with `len ≤ cap`, no two rows overlapping, adjacency symmetric,
    /// sorted, deduplicated, loop-free, the edge count consistent, and (in
    /// debug builds) the distances of the first root the hop store holds
    /// equal to a fresh BFS.
    pub fn check_invariants(&self) {
        let mut placed: Vec<(usize, usize)> = Vec::new();
        for (u, row) in self.table.iter().enumerate() {
            assert!(row.len <= row.cap, "row {u} longer than its capacity");
            let end = row.start as usize + row.cap as usize;
            assert!(end <= self.arena.len(), "row {u} outside the arena");
            if row.cap > 0 {
                placed.push((row.start as usize, end));
            }
        }
        placed.sort_unstable();
        assert!(
            placed.windows(2).all(|w| w[0].1 <= w[1].0),
            "overlapping rows"
        );
        let mut count = 0usize;
        for (u, nbrs) in self.adjacency().enumerate() {
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "unsorted/dup adjacency"
            );
            for &v in nbrs {
                assert_ne!(v as usize, u, "self-loop");
                assert!(self.has_edge(v, u as NodeIdx), "asymmetric edge ({u}, {v})");
                count += 1;
            }
        }
        assert_eq!(count, 2 * self.n_edges, "edge count mismatch");
        if cfg!(debug_assertions) {
            if let Some((root, (block, lane))) = self.held().next() {
                let fresh = traversal::bfs_distances(self, root);
                assert!(
                    (0..fresh.len()).all(|v| block.distance(*lane, v as NodeIdx) == fresh[v]),
                    "stale hop row for root {root}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::with_nodes(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        g.check_invariants();
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::with_nodes(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate, either orientation
        assert!(g.add_edge(1, 2));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        g.check_invariants();
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        Graph::with_nodes(2).add_edge(1, 1);
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 4), (1, 2), (3, 4)]);
    }

    #[test]
    fn copy_from_matches_clone() {
        let a = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        for mut dst in [
            Graph::with_nodes(0),
            Graph::with_nodes(9),
            Graph::from_edges(3, &[(0, 2)]),
        ] {
            dst.copy_from(&a);
            assert_eq!(dst, a);
            dst.check_invariants();
        }
    }

    #[test]
    fn hop_row_is_the_bfs_row_until_the_next_mutation() {
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let row = |g: &Graph, a| (0..5).map(|b| g.hops(a, b)).collect::<Vec<_>>();
        assert_eq!(g.hop_roots().count(), 0);
        assert_eq!(g.hops(2, 2), 0);
        assert_eq!(g.hop_roots().count(), 0, "a self pair needs no search");
        assert_eq!(row(&g, 0), [0, 1, 2, u32::MAX, u32::MAX]);
        assert_eq!(g.hop_roots().count(), 1);
        // Held at 0, so asked from the other end it is still 0's row.
        assert_eq!(g.hops(2, 0), 2);
        assert_eq!(g.hops(4, 0), u32::MAX);
        assert_eq!(g.hop_roots().count(), 1);
        // A lone request holds a one-lane block: its deepest distance is 2,
        // so a reach word and two plane words for its one group of 64
        // nodes, a bit a node.
        assert_eq!(g.hop_store_bytes(), (1 + 2) * 8);
        // A duplicate insert and a missing removal change nothing.
        assert!(!g.add_edge(1, 0) && !g.remove_edge(0, 4));
        assert_eq!(g.hop_roots().count(), 1);
        assert!(g.add_edge(2, 3));
        assert_eq!(g.hop_roots().count(), 0);
        assert_eq!(row(&g, 0), [0, 1, 2, 3, 4]);
        g.check_invariants();
    }

    /// A lone miss is a batch of one through the fill's kernel: its lane
    /// reads the BFS row entry for entry, and its block takes a reach word
    /// and a word per plane of the deepest distance per 64 nodes,
    /// `⌈n / 64⌉ · (1 + planes) · 8` bytes. A path of 9 edges from its end
    /// (deepest 9: four planes), an isolated node beside it; then 1 023
    /// lone misses on a cold 1 024-node unit-disk graph, one root each,
    /// which held 50.0 MB as blocks of a word a node and plane and must
    /// hold under 8 MiB (they hold about 0.8 MB).
    #[test]
    fn a_lone_miss_is_a_one_lane_block() {
        let edges: Vec<(NodeIdx, NodeIdx)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(11, &edges);
        assert_eq!(g.hops(0, 10), traversal::UNREACHABLE);
        assert_eq!(g.hop_roots().collect::<Vec<_>>(), [0]);
        let fresh = traversal::bfs_distances(&g, 0);
        for v in 0..11 {
            assert_eq!(g.hops(v, 0), fresh[v as usize], "node {v}");
        }
        assert_eq!(g.hop_roots().count(), 1);
        assert_eq!(g.hop_store_bytes(), (1 + 4) * 8);
        g.check_invariants();

        let n = 1024;
        let density = 1.25;
        let region = chlm_geom::Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let pts =
            chlm_geom::region::deploy_uniform(&region, n, &mut chlm_geom::SimRng::seed_from(7));
        let g = unit_disk::build_unit_disk(&pts, chlm_geom::rtx_for_degree(9.0, density));
        let last = n as NodeIdx - 1;
        for v in 0..last {
            assert_eq!(
                g.hops(v, last),
                traversal::bfs_distances(&g, v)[last as usize]
            );
        }
        assert_eq!(g.hop_roots().count(), n - 1);
        let held = g.hop_store_bytes();
        assert!(held <= 8 << 20, "{held} bytes held by {last} lone misses");
        // A bit per node and plane: at most `planes_for(n - 1)` = 10 planes.
        assert!(held <= (n - 1) * (n / 64) * (1 + 10) * 8);
    }

    #[test]
    #[should_panic(expected = "order lists node 1 twice")]
    fn assign_edges_in_order_rejects_a_repeated_node() {
        Graph::with_nodes(3).assign_edges_in_order(&[0, 1, 1], &[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "edge listed twice")]
    fn assign_edges_in_order_rejects_a_repeated_edge() {
        Graph::with_nodes(3).assign_edges_in_order(&[2, 0, 1], &[(0, 1), (1, 0)]);
    }

    /// What `check_invariants` is for: a write to the adjacency that skipped
    /// `forget_rows` (only possible inside this module) is caught.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale hop row")]
    fn check_invariants_catches_a_stale_row() {
        let mut g = Graph::from_edges(3, &[(0, 1)]);
        g.hops(0, 1);
        g.insert_at(1, 1, 2);
        g.insert_at(2, 0, 1);
        g.n_edges += 1;
        g.check_invariants();
    }

    /// The other half of `check_invariants`: a row table that does not
    /// describe disjoint rows inside the arena is caught before any list
    /// is read through it.
    #[test]
    #[should_panic(expected = "overlapping rows")]
    fn check_invariants_catches_overlapping_rows() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        g.table[2].start = g.table[1].start;
        g.check_invariants();
    }

    /// A full row moves to the tail with doubled capacity and leaves a
    /// hole; `reset` keeps the capacities and closes the holes.
    #[test]
    fn rows_relocate_to_the_tail_and_reset_repacks_them() {
        let mut g = Graph::with_nodes(8);
        for v in 1..8 {
            g.add_edge(0, v);
        }
        // Row 0 went 4 -> 8 slots; rows 1..8 hold 4 each.
        assert_eq!(g.table[0].cap, 8);
        assert_eq!(g.arena.len(), 4 + 8 + 7 * 4);
        assert_eq!(g.neighbors(0), [1, 2, 3, 4, 5, 6, 7]);
        g.check_invariants();
        let buffer = g.arena.capacity();
        g.reset(8);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.arena.len(), 8 + 7 * 4);
        for v in 1..8 {
            g.add_edge(0, v);
        }
        assert_eq!(
            g.arena.len(),
            8 + 7 * 4,
            "a refill of the same shape moved a row"
        );
        assert_eq!(g.arena.capacity(), buffer);
        g.check_invariants();
    }

    /// Offsets are `u32`: placing a row past that must panic, not wrap.
    /// (Checked on the placement function itself — reaching it through a
    /// graph would take a 16 GiB arena.)
    #[test]
    #[should_panic(expected = "exceeds u32 offsets")]
    fn a_row_placed_past_u32_panics() {
        assert_eq!(arena_offset(u32::MAX as usize), u32::MAX);
        arena_offset(u32::MAX as usize - 3 + 2 * MIN_ROW_CAP);
    }

    #[test]
    fn mean_degree_matches_formula() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }
}
