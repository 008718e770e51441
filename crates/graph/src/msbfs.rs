//! BFS rows 64 at a time: the kernel behind [`Graph::fill_hop_rows`].
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
//! nodes wanted: a third of the scalar edge visits at twice the cost each),
//! while 64 roots a few hops apart keep a node active for a few levels (the
//! same roots batched by nearness: a seventh). Hence two steps:
//!
//! * [`near_batches`] cuts the wanted roots into batches of at most
//!   [`LANES`] mutually-near ones: the lowest root not yet in a batch, then
//!   the wanted roots a BFS from it meets first. The search knows how far
//!   out (`spread`) it had to go for its last lane.
//! * [`Batch::pays`] compares lanes with spread. A batch of few lanes far
//!   apart saves too few edge visits to cover what each costs more; its
//!   rows are computed one by one instead.
//!
//! Either way a row is [`crate::traversal::bfs_distances`]' row, bit for
//! bit: which path computed it never reaches a reader.

use crate::traversal::UNREACHABLE;
use crate::{Graph, NodeIdx};

/// Roots per batch: the bits of the per-node lane word.
pub(crate) const LANES: usize = u64::BITS as usize;

/// What one edge visit of the kernel costs in scalar edge visits: it reads
/// and writes a `u64` lane word where the scalar loop touches one `u32`,
/// and every lane still writes its own distance. Measured 1.6–2.1 on
/// unit-disk graphs of 1 024 – 16 384 nodes with 2 – 100 % of the nodes
/// wanted.
const VISIT_COST: usize = 2;

/// Up to [`LANES`] wanted roots near one another.
pub(crate) struct Batch {
    /// Distinct roots, the search's own first.
    pub roots: Vec<NodeIdx>,
    /// Hops from the first root to the farthest of the others.
    pub spread: u32,
}

impl Batch {
    /// Whether the bit-parallel kernel does less work on this batch than
    /// one scalar BFS per root. Scalar walks a node's edges once per lane;
    /// the kernel once per level some lane arrives on, at [`VISIT_COST`]
    /// each. The first root is the lowest index left, which as a rule sits
    /// on the rim of what earlier batches left over, so the batch's roots
    /// are about `spread` hops across and their distances to a node take
    /// about `spread + 1` values. (The bound is `2·spread + 1`, and never
    /// more than the lane count; the work pin in this module's tests holds
    /// the rule to what batches passing it actually walk.)
    pub fn pays(&self) -> bool {
        self.roots.len() >= VISIT_COST * (self.spread as usize + 1)
    }
}

/// Partition `wanted` (ascending, distinct) into batches of mutually-near
/// roots; see the module docs. Every root lands in exactly one batch, and
/// a batch never spans two components.
pub(crate) fn near_batches(g: &Graph, wanted: &[NodeIdx]) -> Vec<Batch> {
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
    let mut batches: Vec<Batch> = Vec::new();
    for &first in wanted {
        if !std::mem::take(&mut open[first as usize]) {
            continue;
        }
        let search = batches.len() as u32 + 1;
        let mut roots = Vec::with_capacity(LANES.min(wanted.len()));
        roots.push(first);
        let mut spread = 0;
        queue.clear();
        queue.push(first);
        reached[first as usize] = search;
        // `queue[head..level_end]` is what is left of the current level.
        let (mut head, mut level, mut level_end) = (0, 0u32, 1);
        'search: while let Some(&u) = queue.get(head) {
            if head == level_end {
                level += 1;
                level_end = queue.len();
            }
            head += 1;
            for &v in g.neighbors(u) {
                if reached[v as usize] == search {
                    continue;
                }
                reached[v as usize] = search;
                queue.push(v);
                if std::mem::take(&mut open[v as usize]) {
                    roots.push(v);
                    spread = level + 1;
                    if roots.len() == LANES {
                        break 'search;
                    }
                }
            }
        }
        batches.push(Batch { roots, spread });
    }
    batches
}

/// The BFS row of every root in `roots` (distinct, at most [`LANES`]), in
/// that order, and how many edges the kernel walked for them.
///
/// Level-synchronous: `frontier[u]` holds the lanes that reached `u` on the
/// previous level. Pass 1 ORs it into `next[v]` of every neighbour, noting
/// `v` the first time its word turns non-zero (a branch-free push: the slot
/// is always written, the length moves only then). Pass 2 visits the noted
/// nodes only: the lanes in `next[v]` that `seen[v]` lacks have just
/// arrived, at distance `level`, and form `v`'s frontier for the next one.
pub(crate) fn batch_rows(g: &Graph, roots: &[NodeIdx]) -> (Vec<Vec<u32>>, u64) {
    let n = g.node_count();
    debug_assert!(roots.len() <= LANES);
    let mut rows: Vec<Vec<u32>> = roots.iter().map(|_| vec![UNREACHABLE; n]).collect();
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    // Nodes with a non-empty frontier, each once.
    let mut active: Vec<NodeIdx> = Vec::with_capacity(n);
    // One slot more than there are nodes: pass 1 writes the slot past the
    // last noted node on every visit.
    let mut touched: Vec<NodeIdx> = vec![0; n + 1];
    for (lane, &root) in roots.iter().enumerate() {
        let bit = 1u64 << lane;
        seen[root as usize] = bit;
        frontier[root as usize] = bit;
        rows[lane][root as usize] = 0;
        active.push(root);
    }
    let (mut level, mut visits) = (0u32, 0u64);
    while !active.is_empty() {
        level += 1;
        let mut noted = 0;
        for &u in &active {
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
            let arrived = std::mem::take(&mut next[v as usize]) & !seen[v as usize];
            if arrived == 0 {
                continue;
            }
            seen[v as usize] |= arrived;
            frontier[v as usize] = arrived;
            active.push(v);
            let mut lanes = arrived;
            while lanes != 0 {
                rows[lanes.trailing_zeros() as usize][v as usize] = level;
                lanes &= lanes - 1;
            }
        }
    }
    (rows, visits)
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

    /// What `Graph::fill_hop_rows` does for `wanted` (ascending, distinct),
    /// in edges walked: `(by its plan, by one scalar BFS per root, rows
    /// that went through the kernel)`. Every kernel row is checked against
    /// the scalar one on the way.
    fn work(g: &Graph, wanted: &[NodeIdx]) -> (u64, u64, usize) {
        let (mut planned, mut scalar, mut kernel_rows) = (0, 0, 0);
        let mut placed = 0;
        for batch in near_batches(g, wanted) {
            assert!(!batch.roots.is_empty() && batch.roots.len() <= LANES);
            placed += batch.roots.len();
            let own: u64 = batch.roots.iter().map(|&r| scalar_visits(g, r)).sum();
            scalar += own;
            if !batch.pays() {
                planned += own;
                continue;
            }
            let (rows, visits) = batch_rows(g, &batch.roots);
            for (&root, row) in batch.roots.iter().zip(&rows) {
                assert_eq!(row, &bfs_distances(g, root), "root {root}");
            }
            // A node is walked once per level a lane arrives on: never
            // more often than scalar walks it.
            assert!(visits <= own);
            planned += visits;
            kernel_rows += batch.roots.len();
        }
        assert_eq!(placed, wanted.len(), "every root in exactly one batch");
        (planned, scalar, kernel_rows)
    }

    /// The dense case the kernel exists for — every node of a 1 024-node
    /// world wanted, as on the E27 grid: a quarter of the scalar edge
    /// visits or fewer (measured: a seventh).
    #[test]
    fn work_pin_dense_roots_walk_a_quarter_of_the_scalar_edges() {
        let (g, _) = deployment(1024, 7);
        let wanted: Vec<NodeIdx> = (0..1024).collect();
        let (planned, scalar, kernel_rows) = work(&g, &wanted);
        assert!(scalar > 1000 * 2 * g.edge_count() as u64, "fixture split");
        assert!(kernel_rows > 900, "{kernel_rows} rows batched");
        assert!(
            4 * planned <= scalar,
            "planned {planned} edge visits, scalar {scalar}"
        );
    }

    /// The sparse case an earlier index-order batch lost on (0.6–0.8x):
    /// 1 % of a 16 384-node world. The nearest 64 wanted roots are half the
    /// world apart, every batch is told so by lanes vs spread, and the
    /// plan is the scalar one.
    #[test]
    fn work_pin_sparse_roots_fall_back_to_scalar() {
        let n = 16_384;
        let (g, _) = deployment(n, 11);
        let mut rng = SimRng::seed_from(12);
        let mut wanted: Vec<NodeIdx> = (0..n / 100).map(|_| rng.index(n) as NodeIdx).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let (planned, scalar, kernel_rows) = work(&g, &wanted);
        assert_eq!(kernel_rows, 0, "a thin, spread-out batch went batched");
        assert_eq!(planned, scalar);
    }

    /// Three roots at the rim of the deployment, a diameter apart: nothing
    /// to share.
    #[test]
    fn work_pin_corner_roots_fall_back_to_scalar() {
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
        let (planned, scalar, kernel_rows) = work(&g, &wanted);
        assert_eq!(kernel_rows, 0);
        assert_eq!(planned, scalar);
    }

    /// Batches on degenerate graphs: nothing wanted, isolated nodes (one
    /// lane each, spread 0), a star (one batch, spread 2 through the hub),
    /// two components (never one batch).
    #[test]
    fn batches_on_degenerate_graphs() {
        assert!(near_batches(&Graph::with_nodes(0), &[]).is_empty());
        assert!(near_batches(&Graph::with_nodes(3), &[]).is_empty());
        let lonely = near_batches(&Graph::with_nodes(3), &[0, 2]);
        assert_eq!(lonely.len(), 2);
        assert!(lonely.iter().all(|b| b.roots.len() == 1 && b.spread == 0));
        assert!(!lonely[0].pays());

        let star = Graph::from_edges(6, &[(3, 0), (3, 1), (3, 2), (3, 4), (3, 5)]);
        let leaves = near_batches(&star, &[0, 1, 5]);
        assert_eq!(leaves.len(), 1);
        assert_eq!(
            (leaves[0].roots.as_slice(), leaves[0].spread),
            (&[0, 1, 5][..], 2)
        );
        let (rows, visits) = batch_rows(&star, &[0, 3, 5]);
        assert_eq!(rows[0], [0, 2, 2, 1, 2, 2]);
        assert_eq!(rows[1], [1, 1, 1, 0, 1, 1]);
        assert_eq!(rows[2], [2, 2, 2, 1, 2, 0]);
        // Level 1 walks from the three roots (1 + 5 + 1 edges), level 2 from
        // the hub again — the leaves' lanes just arrived there — and from
        // all five leaves, level 3 from the leaves once more: 7 + 10 + 5,
        // against 3 x 10 for three scalar searches.
        assert_eq!(visits, 22);

        let split = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let parts = near_batches(&split, &[0, 2, 3, 4]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].roots, [0, 2]);
        assert_eq!(parts[1].roots, [3, 4]);
        let (rows, _) = batch_rows(&split, &[0, 4]);
        assert_eq!(rows[0], [0, 1, 2, UNREACHABLE, UNREACHABLE]);
        assert_eq!(rows[1], [UNREACHABLE, UNREACHABLE, UNREACHABLE, 1, 0]);
    }
}
