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
//!   to read hands them to [`Graph::fill_hops`] (or the roots to
//!   [`Graph::fill_hop_rows`]), which computes the missing roots 64 at a
//!   time — a bit-parallel BFS over batches of neighbouring roots, one
//!   scalar BFS per root where a batch is too thin and too spread out to
//!   pay — and publishes each batch as one bit-plane block of under a byte
//!   per root and node,
//! * [`dynamics::LinkDiff`] — link up/down event extraction between
//!   consecutive topology snapshots (the level-0 link-state change events of
//!   eq. (4)).
//!
//! ## Example
//!
//! ```
//! use chlm_geom::{Disk, SimRng};
//! use chlm_graph::unit_disk::build_unit_disk;
//! use chlm_graph::traversal::{bfs_distances, is_connected};
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
//! let _ = is_connected(&graph);
//! ```

pub mod dynamics;
pub mod fasthash;
pub mod incremental;
mod msbfs;
pub mod traversal;
pub mod unit_disk;

pub use dynamics::LinkDiff;
pub use incremental::{EdgeFlip, UnitDiskMaintainer};

use chlm_par::WorkerPool;
use msbfs::{Batch, Block, Scratch};
use std::sync::OnceLock;

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
/// the table itself allocated by the first request so that a graph nobody
/// asks for distances pays one empty check per mutation and nothing else.
#[derive(Default)]
struct HopStore {
    // AUDIT: write-once cache of a pure function of (adjacency, root).
    // Every initializer of a cell computes the same distances, so
    // whichever thread wins the race publishes identical values (a losing
    // block only leaves a lane nobody reads), and every mutator of the
    // adjacency takes `&mut Graph` and empties the store first.
    cells: OnceLock<Box<[OnceLock<Held>]>>,
}

/// Where a root's distances are held.
enum Held {
    /// A lane of a block a fill published, shared with the block's other
    /// roots.
    Lane(Block, u32),
    /// The row of a root a lone [`Graph::hops`] computed: its `u32` row
    /// and no wider, since nothing shares it.
    Row(Box<[u32]>),
}

impl Held {
    /// The root's distance to `v`.
    #[inline]
    fn distance(&self, v: NodeIdx) -> u32 {
        match self {
            Held::Lane(block, lane) => block.distance(*lane, v),
            Held::Row(row) => row[v as usize],
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
        self.forget_rows();
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
        self.forget_rows();
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
        self.forget_rows();
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
        self.forget_rows();
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
    /// neither is, this computes `a`'s by one scalar BFS and keeps it as a
    /// plain `u32` row; [`Graph::fill_hops`] and [`Graph::fill_hop_rows`]
    /// are the batched ways in. Whoever fills the store — the hop pricer,
    /// a packet network sending from `a`, another thread of either — every
    /// later reader of this `&Graph` reads the same distances; the next
    /// [`Graph::add_edge`], [`Graph::remove_edge`], [`Graph::reset`],
    /// [`Graph::copy_from`], [`Graph::assign_edges`] or
    /// [`Graph::assign_edges_in_order`] frees them all at once.
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
        if let Some(held) = at_a.get() {
            return held.distance(b);
        }
        if let Some(held) = at_b.get() {
            return held.distance(a);
        }
        // AUDIT: see `HopStore::cells` — write-once, and each cell's value
        // is a pure function of (adjacency, root), so neither which thread
        // fills a cell nor the order cells are filled in reaches a reader.
        at_a.get_or_init(|| Held::Row(traversal::bfs_distances(self, a).into()))
            .distance(b)
    }

    /// The store's cells, one per node, allocated (empty) on first use.
    fn hop_cells(&self) -> &[OnceLock<Held>] {
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

    /// Make the hop store hold the distances of every root in `roots` (any
    /// order, duplicates and roots already held welcome), computing the
    /// missing ones together instead of one BFS each.
    ///
    /// The missing roots are cut into batches of up to 64 that lie near one
    /// another — the lowest root not yet in a batch, then the wanted roots
    /// a BFS from it meets first — and a batch runs as one level-synchronous
    /// bit-parallel BFS, a `u64` of lanes per node, which walks a node's
    /// edges once per distinct distance the batch has to it rather than
    /// once per root. A batch of few roots far apart would walk more that
    /// way than its roots' own searches do; it is told from its lane count
    /// and its spread alone, and runs one scalar BFS per root. Either way
    /// the batch is published as one bit-plane block (`msbfs`' module docs
    /// give the layout), its roots' cells pointing at their lanes. Batches
    /// fan out over `workers`.
    ///
    /// Exactly the requested roots are published, each into the write-once
    /// cell [`Graph::hops`] reads, and each lane spells `bfs_distances`'
    /// row entry for entry — so nothing a reader can see depends on whether
    /// this was called, with what grouping, on how many threads, or racing
    /// which `hops`.
    ///
    /// # Panics
    /// If a root is out of range.
    pub fn fill_hop_rows(&self, roots: &[NodeIdx], workers: &WorkerPool) {
        let wanted = roots.iter().copied().filter(|&r| !self.holds(r)).collect();
        self.fill(wanted, |_| {}, workers);
    }

    /// Make [`Graph::hops`] a store read for every pair in `pairs`, the
    /// way [`Graph::fill_hop_rows`] would for the pairs' first members,
    /// but holding only what the pairs need: a pair whose members are
    /// equal, or either of whose members is held, needs nothing. The first
    /// members of the others are batched; the batches that pay run
    /// first, and of a thin batch (one that runs a scalar BFS per root)
    /// only the roots still needed afterwards are computed — walking the
    /// pairs in order, the first member of each pair that neither a block
    /// nor an earlier such root covers.
    ///
    /// # Panics
    /// If a pair member is out of range.
    pub fn fill_hops(&self, pairs: &[(NodeIdx, NodeIdx)], workers: &WorkerPool) {
        let open = |&(a, b): &(NodeIdx, NodeIdx)| a != b && !self.holds(a) && !self.holds(b);
        let wanted = pairs.iter().filter(|p| open(p)).map(|&(a, _)| a).collect();
        self.fill(
            wanted,
            |thin| {
                let mut planned = vec![false; self.node_count()];
                for pair @ &(a, b) in pairs {
                    if open(pair) && !planned[a as usize] && !planned[b as usize] {
                        planned[a as usize] = true;
                    }
                }
                for batch in thin.iter_mut() {
                    batch.roots.retain(|&r| planned[r as usize]);
                }
                thin.retain(|batch| !batch.roots.is_empty());
            },
            workers,
        );
    }

    /// Compute and publish `wanted` (none held): the batches that pay
    /// through the kernel, then those of the thin batches that
    /// `trim_thin`, run after the first step, leaves.
    fn fill(
        &self,
        mut wanted: Vec<NodeIdx>,
        trim_thin: impl FnOnce(&mut Vec<Batch>),
        workers: &WorkerPool,
    ) {
        if wanted.is_empty() {
            return;
        }
        wanted.sort_unstable();
        wanted.dedup();
        let (dense, mut thin): (Vec<Batch>, Vec<Batch>) = msbfs::near_batches(self, &wanted)
            .into_iter()
            .partition(Batch::pays);
        // One scratch per worker, kept across both steps.
        let width = workers.threads().min(dense.len().max(thin.len()));
        let mut scratch: Vec<(usize, Scratch)> =
            (0..width).map(|w| (w, Scratch::default())).collect();
        self.publish(&dense, true, &mut scratch, workers);
        if !thin.is_empty() {
            trim_thin(&mut thin);
        }
        self.publish(&thin, false, &mut scratch, workers);
    }

    /// Compute every batch in `batches` — by the kernel, or by one scalar
    /// BFS per root — and point each root's cell at its lane of the block.
    /// Worker `w` takes batches `w`, `w + width`, … with its own scratch.
    fn publish(
        &self,
        batches: &[Batch],
        kernel: bool,
        scratch: &mut [(usize, Scratch)],
        workers: &WorkerPool,
    ) {
        if batches.is_empty() {
            return;
        }
        let cells = self.hop_cells();
        let width = scratch.len();
        workers.for_each_mut(scratch, |(first, scratch)| {
            for batch in batches.iter().skip(*first).step_by(width) {
                let block = if kernel {
                    scratch.kernel(self, &batch.roots).0
                } else {
                    scratch.scalar(self, &batch.roots)
                };
                for (lane, &root) in batch.roots.iter().enumerate() {
                    // AUDIT: write-once publication of a pure function of
                    // (adjacency, root). A `hops` or another fill that raced
                    // this batch to the cell stored the same distances, so
                    // losing is harmless.
                    let _ = cells[root as usize].set(Held::Lane(block.share(), lane as u32));
                }
            }
        });
    }

    /// How many roots currently have their distances in the hop store
    /// (diagnostics and tests only — nothing may branch on it).
    pub fn hop_rows_cached(&self) -> usize {
        self.held().count()
    }

    /// Heap bytes the hop store's distances take: every block once,
    /// however many roots share it, and every lone row (diagnostics and
    /// tests only).
    pub fn hop_store_bytes(&self) -> usize {
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        let mut rows = 0;
        for (_, held) in self.held() {
            match held {
                Held::Lane(block, _) => blocks.push((block.addr(), block.bytes())),
                Held::Row(row) => rows += std::mem::size_of_val(&**row),
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        rows + blocks.iter().map(|&(_, bytes)| bytes).sum::<usize>()
    }

    fn held(&self) -> impl Iterator<Item = (NodeIdx, &Held)> + '_ {
        let cells = self.memo.cells.get().map_or(&[][..], |cells| &cells[..]);
        cells
            .iter()
            .enumerate()
            .filter_map(|(root, cell)| Some((root as NodeIdx, cell.get()?)))
    }

    /// Empty the hop store; every adjacency mutator calls this before it
    /// writes.
    #[inline]
    fn forget_rows(&mut self) {
        self.memo.cells.take();
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

    /// Closed neighborhood of `u`: `u` plus its neighbors, sorted.
    ///
    /// This is the set over which the LCA election rule operates: a node `v`
    /// is elected clusterhead by `u` when `v` has the largest node ID in
    /// `u ∪ N(u)`.
    pub fn closed_neighborhood(&self, u: NodeIdx) -> Vec<NodeIdx> {
        let nbrs = self.neighbors(u);
        let mut out = Vec::with_capacity(nbrs.len() + 1);
        // audit: infallible because the graph is simple (no self-loops)
        let pos = nbrs.binary_search(&u).expect_err("self-loop in adjacency");
        out.extend_from_slice(&nbrs[..pos]);
        out.push(u);
        out.extend_from_slice(&nbrs[pos..]);
        out
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
            if let Some((root, held)) = self.held().next() {
                let fresh = traversal::bfs_distances(self, root);
                assert!(
                    (0..fresh.len()).all(|v| held.distance(v as NodeIdx) == fresh[v]),
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
    fn closed_neighborhood_sorted_with_self() {
        let g = Graph::from_edges(6, &[(3, 1), (3, 5), (3, 0)]);
        assert_eq!(g.closed_neighborhood(3), vec![0, 1, 3, 5]);
        assert_eq!(g.closed_neighborhood(2), vec![2]);
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
        assert_eq!(g.hop_rows_cached(), 0);
        assert_eq!(g.hops(2, 2), 0);
        assert_eq!(g.hop_rows_cached(), 0, "a self pair needs no search");
        assert_eq!(row(&g, 0), [0, 1, 2, u32::MAX, u32::MAX]);
        assert_eq!(g.hop_rows_cached(), 1);
        // Held at 0, so asked from the other end it is still 0's row.
        assert_eq!(g.hops(2, 0), 2);
        assert_eq!(g.hops(4, 0), u32::MAX);
        assert_eq!(g.hop_rows_cached(), 1);
        // A lone request keeps no more than its `u32` row.
        assert_eq!(g.hop_store_bytes(), 5 * 4);
        // A duplicate insert and a missing removal change nothing.
        assert!(!g.add_edge(1, 0) && !g.remove_edge(0, 4));
        assert_eq!(g.hop_rows_cached(), 1);
        assert!(g.add_edge(2, 3));
        assert_eq!(g.hop_rows_cached(), 0);
        assert_eq!(row(&g, 0), [0, 1, 2, 3, 4]);
        g.check_invariants();
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
