//! Incremental unit-disk graph maintenance.
//!
//! [`build_unit_disk`](crate::unit_disk::build_unit_disk) rebuilds the
//! whole adjacency structure from scratch every call — `O(n·d)` work and
//! `O(n)` allocations per tick even when almost no link changed state. At
//! simulator time steps (a node moves `R_TX / 10` per tick) the topology
//! churns a fraction of a percent of its edges per tick, so the rebuild is
//! almost entirely wasted work.
//!
//! [`UnitDiskMaintainer`] exploits that slack with a *candidate list* (the
//! Verlet-list technique from molecular dynamics): at each full rebuild it
//! records every pair within `R_TX + s` ("s" = the slack margin) and the
//! reference positions. While every node has moved less than `s / 2` from
//! its reference position, **no pair outside the candidate list can have
//! closed to within `R_TX`**: a non-candidate pair was at distance
//! `> R_TX + s` at rebuild time, and two nodes approaching each other can
//! shrink their separation by at most the sum of their displacements,
//! `≤ 2 · (s / 2) = s`. A tick therefore only has to re-test the candidate
//! pairs (a small constant multiple of the true edge count) and toggle the
//! ones that crossed the `R_TX` threshold. Once accumulated displacement
//! exceeds the budget, the maintainer falls back to a full rebuild — the
//! churn-threshold fallback — and starts a new epoch.
//!
//! # Cell order
//!
//! Physical node numbering is spatially random, so a scan that reads
//! `positions[v]` for each candidate `v` misses the cache on nearly every
//! test. The maintainer therefore works in *cell order*. Each rebuild bins
//! the nodes into a [`SpatialGrid`] of cell size `R_TX + s` and takes the
//! grid's stable counting sort ([`SpatialGrid::cell_order`]) as the epoch's
//! numbering: a node's *rank* is its slot in that sort, `rank_of` maps
//! back. Once a tick the positions are copied into rank-ordered `xs` /
//! `ys` columns through `rank_of`, in the pass that measures the
//! displacement (one random write per node); every distance test after
//! that reads two nearby ranks.
//!
//! Candidates are a CSR over ranks: rank `a`'s row lists ranks `b > a`,
//! ascending. A rebuild fills it with a *half-stencil* scan: the later
//! ranks of `a`'s own cell, then the four forward neighbour cells
//! (`(x+1, y)` and the three cells of row `y + 1`). Every pair within one
//! cell of each other is visited exactly once, by its lower rank, and the
//! stencil's ranks form two contiguous runs. One distance computation per
//! pair decides both candidacy (`≤ (R_TX + s)²`) and the edge
//! (`≤ R_TX²`). The edges are collected as rank pairs and written into
//! the graph's rows in one pass ([`Graph::assign_edges_in_order`]), which
//! lays the rows out in cell order too, so the flips a patch tick applies
//! touch nearby rows.
//!
//! The maintained graph is *identical* (not just equivalent) to what
//! `build_unit_disk` would produce for the same positions: membership is
//! decided by the same `dx·dx + dy·dy <= rtx * rtx` comparison on the same
//! floats (which endpoint is subtracted from which does not matter:
//! `(−d)² == d²`), and adjacency lists stay sorted, so `Graph` equality
//! holds bit-for-bit. Tests below and `tests/prop_graph.rs` assert this
//! against both the grid builder and the brute-force reference.
//!
//! # Flip order
//!
//! A patch tick's [`EdgeFlip`]s come in the maintainer's cell order:
//! ascending `(rank a, candidate slot)`. That order is deterministic, the
//! same for every pool width, lists each net flip once and replays onto
//! the previous graph; it is *not* sorted by physical index, and readers
//! must not assume it is.

use crate::{Graph, NodeIdx};
use chlm_geom::{CellOrder, Point, SpatialGrid};
use chlm_par::{split_ranges, WorkerPool};
use std::ops::Range;

/// Below this population the parallel fan-out's rendezvous/merge overhead
/// outweighs the scan it saves; stay on the serial paths. Measured on a
/// 2-vCPU Xeon VM, `advance` over a density-1, degree-9 world moving
/// `rtx / 40` a tick, median of 7 alternating repetitions, width 2 over
/// width 1: n = 256 1.49, 512 1.10, 1 024 0.89, 2 048 0.81, 4 096 0.74.
const PAR_MIN_NODES: usize = 1024;

/// One link-state change: the undirected edge `(u, v)`, `u < v` in
/// physical numbering, appeared (`add == true`) or disappeared. These are
/// the level-0 link-state change events of eq. (4). A tick's flips come in
/// the maintainer's cell order (see the [module docs](self)): each net
/// change once, in the order they were applied, so replaying them onto the
/// previous snapshot reproduces the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeFlip {
    pub u: NodeIdx,
    pub v: NodeIdx,
    pub add: bool,
}

/// Maintains the unit-disk graph of a moving point set across ticks.
#[derive(Debug)]
pub struct UnitDiskMaintainer {
    rtx: f64,
    /// Candidate margin: pairs within `rtx + slack` at rebuild time are
    /// tracked; the patch path is valid while `2 · max_displacement ≤ slack`.
    slack: f64,
    n: usize,
    /// Positions at the last full rebuild, by physical index (the
    /// displacement reference).
    ref_positions: Vec<Point>,
    /// The epoch's binning; its [`CellOrder::items`] is rank → physical.
    grid: SpatialGrid,
    /// Physical → rank, the inverse of the grid's `items`.
    rank_of: Vec<u32>,
    /// The current positions by rank.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Candidate pairs as a CSR over ranks: `cand[cstart[a]..cstart[a+1]]`
    /// are rank `a`'s partners `b > a`, ascending.
    cstart: Vec<u32>,
    cand: Vec<u32>,
    /// Whether each candidate pair is currently an edge (parallel to
    /// `cand`); avoids adjacency binary searches on the patch path.
    cedge: Vec<bool>,
    /// The last rebuild's edges as rank pairs, in scan order: the input of
    /// the bulk graph write.
    edges: Vec<(u32, u32)>,
    /// One per contiguous rank range the scans are split into: one part on
    /// the serial path, one per worker on the pooled one. Their buffers
    /// live as long as the maintainer; the first part's are the CSR and edge
    /// list above.
    parts: Vec<Part>,
    graph: Graph,
    /// Link flips applied by the most recent `advance`, valid only on
    /// patch ticks (a rebuild discards the old graph without diffing).
    diff: Vec<EdgeFlip>,
    diff_valid: bool,
    rebuilds: u64,
    patches: u64,
    workers: WorkerPool,
    /// Minimum population for the parallel paths (lowered in tests so
    /// small proptest instances exercise them too).
    par_floor: usize,
}

/// One rank range's share of a scan, merged serially in range order.
#[derive(Debug, Default)]
struct Part {
    ranks: Range<usize>,
    /// Rebuild output: each rank's candidate-row end, relative to `cand`.
    ends: Vec<u32>,
    cand: Vec<u32>,
    cedge: Vec<bool>,
    edges: Vec<(u32, u32)>,
    /// Patch output: `(rank, candidate slot)` of each flipped pair.
    flips: Vec<(u32, u32)>,
}

/// What a scan reads: the epoch's cell order and the rank-ordered
/// positions.
struct Space<'a> {
    cells: CellOrder<'a>,
    xs: &'a [f64],
    ys: &'a [f64],
    r_sq: f64,
    reach_sq: f64,
}

impl<'a> Space<'a> {
    /// The scans' read-only view of an epoch. (Built from the fields, so
    /// that the scans' outputs can be borrowed beside it.)
    fn of(grid: &'a SpatialGrid, xs: &'a [f64], ys: &'a [f64], rtx: f64, slack: f64) -> Self {
        let reach = rtx + slack;
        Space {
            cells: grid.cell_order(),
            xs,
            ys,
            r_sq: rtx * rtx,
            reach_sq: reach * reach,
        }
    }

    /// The half-stencil scan of `part`'s ranks: writes each rank's
    /// candidate row over its `cand` / `cedge` from slot 0, and the edges
    /// among them, as rank pairs, over its `edges`; appends each row's end
    /// to its `ends`.
    ///
    /// The scan is branch-free: every tested pair is written at the
    /// cursor, which only a hit advances, so the buffers are kept one
    /// stencil longer than their cursors and cut to them at the end.
    fn scan(&self, part: &mut Part) {
        let (first, end) = (part.ranks.start, part.ranks.end);
        let Part {
            ends,
            cand,
            cedge,
            edges,
            ..
        } = part;
        let CellOrder {
            cols, rows, starts, ..
        } = self.cells;
        let (mut k, mut e) = (0usize, 0usize);
        if first < end {
            // The cell holding the range's first rank: the last one
            // starting at or before it (empty cells share their start).
            let mut c = starts.partition_point(|&s| s as usize <= first) - 1;
            let (mut cell_end, mut own_end, mut below) = (0usize, 0usize, (0usize, 0usize));
            for a in first..end {
                if a >= cell_end {
                    while starts[c + 1] as usize <= a {
                        c += 1;
                    }
                    cell_end = starts[c + 1] as usize;
                    let (cx, cy) = (c % cols, c / cols);
                    // The own cell's later ranks and the cell to the right:
                    // one run.
                    own_end = starts[c + 1 + usize::from(cx + 1 < cols)] as usize;
                    // Row `cy + 1`, columns `cx - 1 ..= cx + 1`: one run.
                    below = if cy + 1 < rows {
                        let lo = c + cols - usize::from(cx > 0);
                        let hi = c + cols + 1 + usize::from(cx + 1 < cols);
                        (starts[lo] as usize, starts[hi] as usize)
                    } else {
                        (0, 0)
                    };
                }
                let room = own_end - a - 1 + (below.1 - below.0);
                if cand.len() < k + room {
                    cand.resize(k + room, 0);
                    cedge.resize(k + room, false);
                }
                if edges.len() < e + room {
                    edges.resize(e + room, (0, 0));
                }
                let (xa, ya) = (self.xs[a], self.ys[a]);
                for b in (a + 1..own_end).chain(below.0..below.1) {
                    let dx = self.xs[b] - xa;
                    let dy = self.ys[b] - ya;
                    let d2 = dx * dx + dy * dy;
                    let is_edge = d2 <= self.r_sq;
                    cand[k] = b as u32;
                    cedge[k] = is_edge;
                    k += usize::from(d2 <= self.reach_sq);
                    edges[e] = (a as u32, b as u32);
                    e += usize::from(is_edge);
                }
                ends.push(k as u32);
            }
        }
        cand.truncate(k);
        cedge.truncate(k);
        edges.truncate(e);
    }

    /// Re-test the candidate rows of `part`'s ranks and list the
    /// `(rank, slot)` of every pair whose edge state changed in its
    /// `flips`.
    fn retest(&self, cstart: &[u32], cand: &[u32], cedge: &[bool], part: &mut Part) {
        let flips = &mut part.flips;
        flips.clear();
        for a in part.ranks.start..part.ranks.end {
            let (xa, ya) = (self.xs[a], self.ys[a]);
            for i in cstart[a] as usize..cstart[a + 1] as usize {
                let b = cand[i] as usize;
                let dx = self.xs[b] - xa;
                let dy = self.ys[b] - ya;
                if (dx * dx + dy * dy <= self.r_sq) != cedge[i] {
                    flips.push((a as u32, i as u32));
                }
            }
        }
    }
}

impl UnitDiskMaintainer {
    /// Build the initial graph over `positions`. `rtx` must be positive and
    /// finite. The slack margin defaults to `rtx` itself: candidates cover
    /// twice the link radius, which at the simulator's `R_TX / 10` per-tick
    /// motion sustains ~5 patch ticks per rebuild.
    pub fn new(positions: &[Point], rtx: f64) -> Self {
        assert!(rtx > 0.0 && rtx.is_finite(), "R_TX must be positive");
        let mut m = UnitDiskMaintainer {
            rtx,
            slack: rtx,
            n: positions.len(),
            ref_positions: Vec::new(),
            grid: SpatialGrid::build(&[], rtx),
            rank_of: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            cstart: Vec::new(),
            cand: Vec::new(),
            cedge: Vec::new(),
            edges: Vec::new(),
            parts: Vec::new(),
            graph: Graph::with_nodes(positions.len()),
            diff: Vec::new(),
            diff_valid: false,
            rebuilds: 0,
            patches: 0,
            workers: WorkerPool::new(1),
            par_floor: PAR_MIN_NODES,
        };
        m.split();
        m.rebuild(positions);
        m
    }

    /// Use `workers` for candidate re-tests and rebuild scans. The
    /// maintained graph, the candidate CSR and the flip sequence are
    /// identical for every pool width: the scans fan out over contiguous
    /// rank ranges, and their output is merged and applied serially in
    /// ascending rank order — exactly the serial scan's order.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self.split();
        self
    }

    #[cfg(test)]
    fn with_par_floor(mut self, floor: usize) -> Self {
        self.par_floor = floor;
        self.split();
        self
    }

    /// Cut the ranks into one part per worker, or a single part below the
    /// parallel floor. The population is fixed, so this runs only when the
    /// pool changes.
    fn split(&mut self) {
        let parts = if self.workers.is_serial() || self.n < self.par_floor {
            1
        } else {
            self.workers.threads()
        };
        self.parts = split_ranges(self.n, parts)
            .map(|ranks| Part {
                ranks,
                ..Part::default()
            })
            .collect();
    }

    /// The maintained graph — always equal to
    /// `build_unit_disk(current_positions, rtx)`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Full rebuilds performed so far (including the initial one).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Incremental patch ticks performed so far.
    pub fn patch_count(&self) -> u64 {
        self.patches
    }

    /// The link flips the most recent [`advance`](Self::advance) applied,
    /// in application order (cell order; see [`EdgeFlip`]) — or `None` if
    /// that tick fell back to a full rebuild (no diff exists; consumers
    /// must resynchronize from [`graph`](Self::graph)).
    pub fn last_diff(&self) -> Option<&[EdgeFlip]> {
        if self.diff_valid {
            Some(&self.diff)
        } else {
            None
        }
    }

    /// Advance to a new position snapshot, patching incrementally when the
    /// displacement budget allows and rebuilding from scratch otherwise.
    /// Returns `true` if this tick performed a full rebuild.
    ///
    /// # Panics
    /// If the population size changed.
    pub fn advance(&mut self, positions: &[Point]) -> bool {
        assert_eq!(positions.len(), self.n, "population size changed");
        // One pass: copy the positions into rank order and measure the
        // largest displacement since the rebuild. The patch is valid while
        // every current edge is still a candidate pair, which holds while
        // 2 · max displacement ≤ slack.
        let mut max_d2 = 0.0f64;
        for ((p, r), &rank) in positions.iter().zip(&self.ref_positions).zip(&self.rank_of) {
            let d2 = p.dist_sq(*r);
            if d2 > max_d2 {
                max_d2 = d2;
            }
            self.xs[rank as usize] = p.x;
            self.ys[rank as usize] = p.y;
        }
        if 4.0 * max_d2 > self.slack * self.slack {
            self.rebuild(positions);
            true
        } else {
            self.patch();
            false
        }
    }

    /// Unconditional full rebuild (the from-scratch reference path; also the
    /// churn-threshold fallback): re-bin, renumber, re-scan, and write the
    /// graph's rows.
    pub fn rebuild(&mut self, positions: &[Point]) {
        assert_eq!(positions.len(), self.n, "population size changed");
        self.rebuilds += 1;
        self.diff.clear();
        self.diff_valid = false;
        self.ref_positions.clear();
        self.ref_positions.extend_from_slice(positions);
        self.grid.rebuild(positions, self.rtx + self.slack);
        let ranked = self.grid.cell_order().items;
        self.rank_of.resize(self.n, 0);
        self.xs.clear();
        self.ys.clear();
        for (rank, &u) in ranked.iter().enumerate() {
            self.rank_of[u as usize] = rank as u32;
            let p = positions[u as usize];
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
        for part in &mut self.parts {
            part.ends.clear();
        }
        self.cstart.clear();
        self.cstart.push(0);
        // The first part starts at rank 0, so it scans straight into the
        // maintainer's CSR, lent to it for the scan; the other parts'
        // fragments are appended after it in range order.
        self.lend_csr();
        let space = Space::of(&self.grid, &self.xs, &self.ys, self.rtx, self.slack);
        self.workers
            .for_each_mut(&mut self.parts, |part| space.scan(part));
        self.lend_csr();
        for part in &self.parts[1..] {
            let base = self.cand.len() as u32;
            self.cstart.extend(part.ends.iter().map(|&end| base + end));
            self.cand.extend_from_slice(&part.cand);
            self.cedge.extend_from_slice(&part.cedge);
            self.edges.extend_from_slice(&part.edges);
        }
        self.graph
            .assign_edges_in_order(self.grid.cell_order().items, &self.edges);
    }

    /// Swap the candidate CSR and the edge list with the first part's scan
    /// buffers (and back).
    fn lend_csr(&mut self) {
        let first = &mut self.parts[0];
        std::mem::swap(&mut self.cstart, &mut first.ends);
        std::mem::swap(&mut self.cand, &mut first.cand);
        std::mem::swap(&mut self.cedge, &mut first.cedge);
        std::mem::swap(&mut self.edges, &mut first.edges);
    }

    /// Re-test every candidate pair on the rank columns and toggle the ones
    /// that crossed the `R_TX` threshold. Only valid inside the
    /// displacement budget, with the columns current — `advance` enforces
    /// both.
    fn patch(&mut self) {
        self.patches += 1;
        self.diff.clear();
        self.diff_valid = true;
        let space = Space::of(&self.grid, &self.xs, &self.ys, self.rtx, self.slack);
        let (cstart, cand, cedge) = (&self.cstart, &self.cand, &self.cedge);
        self.workers.for_each_mut(&mut self.parts, |part| {
            space.retest(cstart, cand, cedge, part)
        });
        let ranked = self.grid.cell_order().items;
        for part in &self.parts {
            for &(a, i) in &part.flips {
                let i = i as usize;
                let is_edge = !self.cedge[i];
                self.cedge[i] = is_edge;
                let (x, y) = (ranked[a as usize], ranked[self.cand[i] as usize]);
                let (u, v) = (x.min(y), x.max(y));
                self.diff.push(EdgeFlip { u, v, add: is_edge });
                if is_edge {
                    self.graph.add_edge(u, v);
                } else {
                    self.graph.remove_edge(u, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_disk::{build_unit_disk, build_unit_disk_brute};
    use chlm_geom::region::{deploy_uniform, Disk};
    use chlm_geom::SimRng;
    use proptest::prelude::*;

    /// Random small step for every point, scaled so several ticks fit in
    /// one displacement budget.
    fn jiggle(points: &mut [Point], step: f64, rng: &mut SimRng) {
        for p in points.iter_mut() {
            let ang = rng.range_f64(0.0, std::f64::consts::TAU);
            p.x += step * ang.cos();
            p.y += step * ang.sin();
        }
    }

    #[test]
    fn matches_full_build_across_many_ticks() {
        let disk = Disk::centered(10.0);
        let rtx = 1.4;
        for seed in 0..3u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut pts = deploy_uniform(&disk, 250, &mut rng);
            let mut m = UnitDiskMaintainer::new(&pts, rtx);
            assert_eq!(*m.graph(), build_unit_disk(&pts, rtx));
            for _ in 0..40 {
                jiggle(&mut pts, rtx / 10.0, &mut rng);
                m.advance(&pts);
                assert_eq!(*m.graph(), build_unit_disk(&pts, rtx), "seed {seed}");
                m.graph().check_invariants();
            }
            assert!(m.patch_count() > 0, "budget never exercised");
            assert!(m.rebuild_count() > 1, "fallback never exercised");
        }
    }

    /// Replaying a patch tick's flips onto the previous snapshot must
    /// reproduce the new graph exactly; rebuild ticks publish no diff.
    #[test]
    fn last_diff_replays_to_new_graph() {
        let disk = Disk::centered(10.0);
        let rtx = 1.4;
        let mut rng = SimRng::seed_from(5);
        let mut pts = deploy_uniform(&disk, 250, &mut rng);
        let mut m = UnitDiskMaintainer::new(&pts, rtx);
        assert!(m.last_diff().is_none(), "initial build has no diff");
        let mut prev = m.graph().clone();
        let mut patched = 0;
        for _ in 0..40 {
            jiggle(&mut pts, rtx / 10.0, &mut rng);
            let rebuilt = m.advance(&pts);
            match m.last_diff() {
                None => assert!(rebuilt, "diff missing on a patch tick"),
                Some(flips) => {
                    assert!(!rebuilt, "diff published on a rebuild tick");
                    patched += 1;
                    for f in flips {
                        if f.add {
                            assert!(prev.add_edge(f.u, f.v), "stale add flip");
                        } else {
                            assert!(prev.remove_edge(f.u, f.v), "stale remove flip");
                        }
                    }
                    assert_eq!(&prev, m.graph());
                }
            }
            prev.copy_from(m.graph());
        }
        assert!(patched > 0, "patch path never exercised");
    }

    #[test]
    fn large_jump_forces_rebuild() {
        let disk = Disk::centered(8.0);
        let mut rng = SimRng::seed_from(9);
        let mut pts = deploy_uniform(&disk, 100, &mut rng);
        let mut m = UnitDiskMaintainer::new(&pts, 1.2);
        let before = m.rebuild_count();
        // Teleport one node across the region: far outside any budget.
        pts[42] = Point::new(-pts[42].x, -pts[42].y);
        assert!(m.advance(&pts), "teleport must trigger the fallback");
        assert_eq!(m.rebuild_count(), before + 1);
        assert_eq!(*m.graph(), build_unit_disk(&pts, 1.2));
    }

    #[test]
    fn static_points_never_rebuild_again() {
        let disk = Disk::centered(6.0);
        let mut rng = SimRng::seed_from(3);
        let pts = deploy_uniform(&disk, 80, &mut rng);
        let mut m = UnitDiskMaintainer::new(&pts, 1.3);
        for _ in 0..10 {
            assert!(!m.advance(&pts));
        }
        assert_eq!(m.rebuild_count(), 1);
        assert_eq!(m.patch_count(), 10);
    }

    #[test]
    fn tiny_populations() {
        for n in 0..3usize {
            let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 0.4, 0.0)).collect();
            let mut m = UnitDiskMaintainer::new(&pts, 1.0);
            assert_eq!(*m.graph(), build_unit_disk(&pts, 1.0));
            m.advance(&pts);
            assert_eq!(*m.graph(), build_unit_disk(&pts, 1.0));
        }
    }

    /// Every pool width must produce byte-identical state — not just graph
    /// equality but the epoch's numbering, the exact rank CSR and the flip
    /// sequence — through patches, budget fallbacks, and a forced teleport
    /// rebuild.
    #[test]
    fn parallel_workers_bit_identical() {
        let disk = Disk::centered(10.0);
        let rtx = 1.4;
        let mut rng = SimRng::seed_from(11);
        let mut pts = deploy_uniform(&disk, 300, &mut rng);
        let mut serial = UnitDiskMaintainer::new(&pts, rtx);
        let mut pools: Vec<UnitDiskMaintainer> = [2usize, 3, 8]
            .iter()
            .map(|&t| {
                UnitDiskMaintainer::new(&pts, rtx)
                    .with_workers(WorkerPool::new(t))
                    .with_par_floor(0)
            })
            .collect();
        for tick in 0..30 {
            jiggle(&mut pts, rtx / 10.0, &mut rng);
            if tick == 14 {
                // Teleport: forces the rebuild fallback on the same tick
                // for every maintainer.
                pts[7] = Point::new(-pts[7].x, -pts[7].y);
            }
            serial.advance(&pts);
            for m in &mut pools {
                m.advance(&pts);
                same_state(m, &serial, tick);
            }
        }
        assert!(serial.patch_count() > 0, "budget never exercised");
        assert!(serial.rebuild_count() > 1, "fallback never exercised");
    }

    /// `m` and `reference` are in the same state, bit for bit: graph,
    /// numbering, rank columns, candidate CSR and the tick's flips.
    fn same_state(m: &UnitDiskMaintainer, reference: &UnitDiskMaintainer, tick: usize) {
        assert_eq!(m.graph(), reference.graph(), "tick {tick}");
        assert_eq!(
            m.grid.cell_order().items,
            reference.grid.cell_order().items,
            "tick {tick}"
        );
        assert_eq!(m.rank_of, reference.rank_of, "tick {tick}");
        assert_eq!(m.xs, reference.xs, "tick {tick}");
        assert_eq!(m.ys, reference.ys, "tick {tick}");
        assert_eq!(m.cstart, reference.cstart, "tick {tick}");
        assert_eq!(m.cand, reference.cand, "tick {tick}");
        assert_eq!(m.cedge, reference.cedge, "tick {tick}");
        assert_eq!(m.last_diff(), reference.last_diff(), "tick {tick}");
    }

    /// The half-stencil scan lists exactly the pairs within `R_TX + s`,
    /// each once, under its lower rank, ascending — checked against all
    /// pairs on layouts with boundary distances and coincident nodes.
    #[test]
    fn candidates_are_every_pair_within_reach_once() {
        let mut rng = SimRng::seed_from(4);
        for kind in 0..LAYOUTS {
            for n in [0usize, 1, 2, 3, 40, 120] {
                let (pts, rtx) = layout(kind, n, &mut rng);
                let m = UnitDiskMaintainer::new(&pts, rtx);
                let reach = 2.0 * rtx;
                let ranked = m.grid.cell_order().items;
                let mut want = Vec::new();
                for a in 0..n {
                    for b in a + 1..n {
                        let p = pts[ranked[a] as usize];
                        let q = pts[ranked[b] as usize];
                        if p.dist_sq(q) <= reach * reach {
                            want.push((a, b));
                        }
                    }
                }
                let mut got = Vec::new();
                for a in 0..n {
                    let row = &m.cand[m.cstart[a] as usize..m.cstart[a + 1] as usize];
                    assert!(row.windows(2).all(|w| w[0] < w[1]), "row {a} unsorted");
                    got.extend(row.iter().map(|&b| (a, b as usize)));
                }
                assert_eq!(got, want, "layout {kind}, n = {n}");
            }
        }
    }

    /// How many kinds [`layout`] draws.
    const LAYOUTS: u8 = 5;

    /// A start layout of `n` points and its `R_TX`:
    /// * 0 — uniform over a disk;
    /// * 1 — a half-`R_TX` lattice with `R_TX = 1`, so pairs sit at exactly
    ///   `R_TX` and at exactly `R_TX + s` (= 2), and sites repeat
    ///   (coincident nodes);
    /// * 2 — a strip one grid cell wide (`x` spread less than `R_TX`);
    /// * 3 — a strip one grid cell tall;
    /// * 4 — three clumps of coincident nodes.
    fn layout(kind: u8, n: usize, rng: &mut SimRng) -> (Vec<Point>, f64) {
        let rtx = if kind == 1 {
            1.0
        } else {
            rng.range_f64(0.5, 2.0)
        };
        if kind == 0 {
            return (deploy_uniform(&Disk::centered(5.0), n, rng), rtx);
        }
        let mut pick = |lo: f64, hi: f64| rng.range_f64(lo, hi);
        let pts = (0..n)
            .map(|_| match kind {
                1 => Point::new(0.5 * pick(0.0, 8.0).floor(), 0.5 * pick(0.0, 8.0).floor()),
                2 => Point::new(pick(0.0, rtx), pick(0.0, 10.0)),
                3 => Point::new(pick(0.0, 10.0), pick(0.0, rtx)),
                _ => [
                    Point::new(0.0, 0.0),
                    Point::new(rtx, 0.0),
                    Point::new(0.0, 2.0 * rtx),
                ][pick(0.0, 3.0) as usize % 3],
            })
            .collect();
        (pts, rtx)
    }

    /// One tick of motion that keeps each layout's character: the lattice
    /// moves by exact quarter steps, the strips along their length only,
    /// everything else by `step` in a random direction.
    fn shake(kind: u8, pts: &mut [Point], step: f64, rng: &mut SimRng) {
        for p in pts.iter_mut() {
            let ang = rng.range_f64(0.0, std::f64::consts::TAU);
            match kind {
                1 => {
                    p.x += 0.25 * (rng.range_f64(0.0, 3.0).floor() - 1.0);
                    p.y += 0.25 * (rng.range_f64(0.0, 3.0).floor() - 1.0);
                }
                2 => p.y += step * ang.cos(),
                3 => p.x += step * ang.cos(),
                _ => {
                    p.x += step * ang.cos();
                    p.y += step * ang.sin();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Incremental maintenance over random walks matches the O(n²)
        /// brute-force builder at every step, on every layout (boundary
        /// distances, coincident nodes, one-cell strips) from n = 0 up.
        /// Pool widths 1, 2 and 3 run side by side with the par floor
        /// dropped, so tiny instances take the pooled paths: their state
        /// and flip sequences agree on every tick, and each patch tick's
        /// flips replay the previous graph into the new one.
        #[test]
        fn prop_matches_brute_force(
            seed in 0u64..1000,
            kind in 0..LAYOUTS,
            n in 0usize..60,
            steps in 1usize..12,
            step_frac in 0.01f64..0.3,
        ) {
            let mut rng = SimRng::seed_from(seed);
            let (mut pts, rtx) = layout(kind, n, &mut rng);
            let mut ms: Vec<UnitDiskMaintainer> = (1..=3)
                .map(|t| {
                    UnitDiskMaintainer::new(&pts, rtx)
                        .with_workers(WorkerPool::new(t))
                        .with_par_floor(0)
                })
                .collect();
            prop_assert_eq!(ms[0].graph(), &build_unit_disk_brute(&pts, rtx));
            let mut prev = ms[0].graph().clone();
            for tick in 0..steps {
                shake(kind, &mut pts, rtx * step_frac, &mut rng);
                for m in &mut ms {
                    m.advance(&pts);
                }
                prop_assert_eq!(ms[0].graph(), &build_unit_disk_brute(&pts, rtx));
                for m in &ms[1..] {
                    same_state(m, &ms[0], tick);
                }
                if let Some(flips) = ms[0].last_diff() {
                    for f in flips {
                        prop_assert!(f.u < f.v);
                        if f.add {
                            prop_assert!(prev.add_edge(f.u, f.v), "stale add flip");
                        } else {
                            prop_assert!(prev.remove_edge(f.u, f.v), "stale remove flip");
                        }
                    }
                    prop_assert_eq!(&prev, ms[0].graph());
                }
                prev.copy_from(ms[0].graph());
            }
        }
    }
}
