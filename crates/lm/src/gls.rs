//! The Grid Location Service (GLS) baseline (Li et al., MobiCom 2000; §3.1
//! and Fig. 2 of the paper).
//!
//! GLS overlays the deployment area with a square divided recursively into
//! four: *order-1* squares are the smallest (side `l`), the whole area is
//! the order-`L+1` square. A node `v` recruits location servers with
//! decreasing density at increasing distance: for each order `i ≥ 2`, one
//! server in each of the **three sibling** order-(i-1) squares of `v`'s own
//! order-(i-1) square within its order-i square. Server selection uses the
//! eq.-(5) successor rule (least ID greater than `v`, circular), which *is*
//! balanced here because candidate squares contain arbitrary ID mixes.
//!
//! Costs modelled (per the GLS paper's behavior, adapted to our packet ×
//! hop unit; booked by `chlm_sim`'s `GlsScheme` from the tables
//! and diffs this module maintains):
//!
//! * **updates** — `v` refreshes its order-i servers each time it moves
//!   `2^(i-2) · l` since the last order-i update (feature (c): near servers
//!   hear often, far servers rarely);
//! * **handoff transfers** — when the selected server for an entry changes
//!   (the old server moved away, or `v` crossed a grid boundary), the entry
//!   travels old → new server.

use crate::hash::{hrw_select, hrw_weight, mod_successor_select};
use crate::query::Route;
use chlm_cluster::ElectionId;
use chlm_geom::{Point, Rect};
use chlm_graph::fasthash::FastMap;
use chlm_graph::NodeIdx;
use std::collections::HashMap;

/// Salt for the HRW server-selection variant, fixed so every node computes
/// the same table locally.
const GLS_HRW_SALT: u64 = 0x474C_535F_4852_5731; // "GLS_HRW1"

/// Server-selection rule for [`GlsAssignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlsSelect {
    /// GLS's eq.-(5) successor rule (the paper's baseline; balanced over
    /// the dense grid-cell ID mixes).
    #[default]
    ModSuccessor,
    /// Highest-random-weight hashing — the same rendezvous primitive CHLM
    /// uses for cluster servers, applied per grid cell. Used by the
    /// pluggable GLS scheme so both schemes share one selection family.
    Hrw,
}

/// The recursive grid of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridHierarchy {
    /// The order-`orders` square covering everything.
    pub root: Rect,
    /// Number of square orders (≥ 2); order 1 squares have side
    /// `root.side / 2^(orders-1)`.
    pub orders: usize,
}

impl GridHierarchy {
    /// Build a grid whose root square covers `bounds` and whose order-1
    /// squares have side ≥ `smallest_side`.
    pub fn covering(bounds: Rect, smallest_side: f64) -> Self {
        assert!(smallest_side > 0.0);
        let extent = bounds.width().max(bounds.height());
        let mut orders = 1usize;
        let mut side = smallest_side;
        while side < extent {
            side *= 2.0;
            orders += 1;
        }
        let root = Rect::new(
            bounds.min,
            Point::new(bounds.min.x + side, bounds.min.y + side),
        );
        GridHierarchy { root, orders }
    }

    /// Side length of an order-`i` square.
    pub fn side(&self, order: usize) -> f64 {
        assert!(order >= 1 && order <= self.orders);
        self.root.width() / (1 << (self.orders - order)) as f64
    }

    /// Cell coordinates of `p` at the given order.
    pub fn cell(&self, p: Point, order: usize) -> (u32, u32) {
        let s = self.side(order);
        let nx = (1u64 << (self.orders - order)) as f64;
        let cx = ((p.x - self.root.min.x) / s).floor().clamp(0.0, nx - 1.0);
        let cy = ((p.y - self.root.min.y) / s).floor().clamp(0.0, nx - 1.0);
        (cx as u32, cy as u32)
    }

    /// The three sibling order-`order` cells of the given cell inside its
    /// parent order-(order+1) square.
    pub fn siblings(&self, cell: (u32, u32), order: usize) -> [(u32, u32); 3] {
        assert!(order < self.orders, "root square has no siblings");
        let base = (cell.0 & !1, cell.1 & !1);
        let mut out = [(0, 0); 3];
        let mut idx = 0;
        for dy in 0..2 {
            for dx in 0..2 {
                let c = (base.0 + dx, base.1 + dy);
                if c != cell {
                    out[idx] = c;
                    idx += 1;
                }
            }
        }
        debug_assert_eq!(idx, 3);
        out
    }
}

/// Server table: for each node, `orders - 1` bands of up to three servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlsAssignment {
    n: usize,
    /// Bands per node (band `b` covers order `b + 2` in paper numbering).
    bands: usize,
    /// Row-major `n × bands × 3`; `NodeIdx::MAX` marks "sibling square
    /// empty, no server".
    servers: Vec<NodeIdx>,
}

/// Sentinel for an empty sibling square.
pub const NO_SERVER: NodeIdx = NodeIdx::MAX;

impl GlsAssignment {
    /// Compute the full server table for the given positions and IDs,
    /// under the eq.-(5) successor rule (the GLS baseline).
    pub fn compute(grid: &GridHierarchy, positions: &[Point], ids: &[ElectionId]) -> Self {
        Self::compute_with(grid, positions, ids, GlsSelect::ModSuccessor)
    }

    /// [`GlsAssignment::compute`] with an explicit selection rule. The
    /// occupied/empty slot pattern is rule-independent (a sibling square
    /// has a server iff it is non-empty); only *which* member serves
    /// changes.
    pub fn compute_with(
        grid: &GridHierarchy,
        positions: &[Point],
        ids: &[ElectionId],
        select: GlsSelect,
    ) -> Self {
        assert_eq!(positions.len(), ids.len());
        let n = positions.len();
        let bands = grid.orders.saturating_sub(1);
        let id_space = n.max(1) as u64;
        // Occupancy per order 1..orders-1: cell -> member nodes.
        let mut occupancy: Vec<HashMap<(u32, u32), Vec<NodeIdx>>> = Vec::with_capacity(bands);
        for order in 1..grid.orders {
            let mut map: HashMap<(u32, u32), Vec<NodeIdx>> = HashMap::new();
            for (v, &p) in positions.iter().enumerate() {
                map.entry(grid.cell(p, order))
                    .or_default()
                    .push(v as NodeIdx);
            }
            occupancy.push(map);
        }
        let mut servers = vec![NO_SERVER; n * bands * 3];
        let mut cand_ids: Vec<ElectionId> = Vec::new();
        for v in 0..n {
            for band in 0..bands {
                let order = band + 1; // sibling squares live at this order
                let cell = grid.cell(positions[v], order);
                let sibs = grid.siblings(cell, order);
                for (s, &sib) in sibs.iter().enumerate() {
                    let slot = (v * bands + band) * 3 + s;
                    if let Some(members) = occupancy[order - 1].get(&sib) {
                        cand_ids.clear();
                        cand_ids.extend(members.iter().map(|&m| ids[m as usize]));
                        let pick = match select {
                            GlsSelect::ModSuccessor => {
                                mod_successor_select(ids[v], &cand_ids, id_space)
                            }
                            GlsSelect::Hrw => hrw_select(ids[v], &cand_ids, GLS_HRW_SALT),
                        };
                        servers[slot] = members[pick];
                    }
                }
            }
        }
        GlsAssignment { n, bands, servers }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    pub fn band_count(&self) -> usize {
        self.bands
    }

    /// Servers of `v` in band `b` (order `b + 2`); entries may be
    /// [`NO_SERVER`].
    pub fn servers(&self, v: NodeIdx, band: usize) -> &[NodeIdx] {
        let base = (v as usize * self.bands + band) * 3;
        &self.servers[base..base + 3]
    }

    /// Number of entries each node stores (server load).
    pub fn entries_hosted(&self) -> Vec<u32> {
        let mut count = vec![0u32; self.n];
        for &s in &self.servers {
            if s != NO_SERVER {
                count[s as usize] += 1;
            }
        }
        count
    }

    /// Diff against a newer assignment: `(subject, band, old, new)` for
    /// every changed slot.
    pub fn diff(&self, new: &GlsAssignment) -> Vec<(NodeIdx, usize, NodeIdx, NodeIdx)> {
        assert_eq!(self.n, new.n);
        assert_eq!(self.bands, new.bands, "grids must match to diff");
        let mut out = Vec::new();
        for v in 0..self.n {
            for band in 0..self.bands {
                let a = self.servers(v as NodeIdx, band);
                let b = new.servers(v as NodeIdx, band);
                for s in 0..3 {
                    if a[s] != b[s] {
                        out.push((v as NodeIdx, band, a[s], b[s]));
                    }
                }
            }
        }
        out
    }
}

/// The selection key of one candidate for one subject, shaped so that
/// both rules reduce to a total-order comparison (see `key_beats`).
#[inline]
fn slot_key(
    select: GlsSelect,
    id_space: u64,
    subject: ElectionId,
    cand_id: ElectionId,
) -> (u64, u64) {
    match select {
        GlsSelect::Hrw => (hrw_weight(subject, cand_id, GLS_HRW_SALT), cand_id),
        GlsSelect::ModSuccessor => {
            let s1 = (subject + 1) % id_space;
            (((cand_id % id_space) + id_space - s1) % id_space, 0)
        }
    }
}

/// Whether candidate `m` with `key` beats the current winner `cur` with
/// `cur_key`. Exactly reproduces the linear scans in
/// [`GlsAssignment::compute_with`] over an ascending candidate list:
/// [`hrw_select`] takes the *first* maximum of `(weight, id)` and
/// [`mod_successor_select`] the *first* minimum gap, so full ties resolve
/// to the smallest node index either way.
#[inline]
fn key_beats(
    select: GlsSelect,
    key: (u64, u64),
    m: NodeIdx,
    cur_key: (u64, u64),
    cur: NodeIdx,
) -> bool {
    match select {
        GlsSelect::Hrw => key > cur_key || (key == cur_key && m < cur),
        GlsSelect::ModSuccessor => key.0 < cur_key.0 || (key.0 == cur_key.0 && m < cur),
    }
}

/// Winner over an ascending member list, with its key. `NO_SERVER` for an
/// empty list.
fn select_over(
    select: GlsSelect,
    id_space: u64,
    subject: ElectionId,
    ids: &[ElectionId],
    members: &[NodeIdx],
) -> (NodeIdx, (u64, u64)) {
    let mut cur = NO_SERVER;
    let mut cur_key = (0u64, 0u64);
    for &m in members {
        let key = slot_key(select, id_space, subject, ids[m as usize]);
        if cur == NO_SERVER || key_beats(select, key, m, cur_key, cur) {
            cur = m;
            cur_key = key;
        }
    }
    (cur, cur_key)
}

/// One changed square's membership delta this tick: `(cell, joined,
/// left)`.
type SquareDelta = ((u32, u32), Vec<NodeIdx>, Vec<NodeIdx>);

/// Incrementally maintained [`GlsAssignment`] — same table, same diffs,
/// without the per-tick full rescan.
///
/// [`GlsAssignment::compute_with`] costs `Σ_slots |members(square)|` hash
/// evaluations per tick, dominated by the coarse bands whose squares hold
/// `O(n)` occupants that barely change between ticks. Both selection
/// rules are *set functions* with a total-order tie-break (see
/// `key_beats`), so each slot's winner can be maintained under
/// occupancy deltas exactly:
///
/// * a node joining a square beats the cached winner iff its key does;
/// * a node leaving a square forces a rescan only when it *was* the
///   winner;
/// * a subject crossing a cell boundary rescans just its own three slots
///   at that band.
///
/// Per tick this costs `O(n · bands)` cell checks plus work proportional
/// to the churn (movers and the slots referencing their squares), instead
/// of the full `O(n · bands · |members|)` scan. The produced assignment
/// and the returned diff are bit-identical to recomputing from scratch
/// and diffing against the previous tick's table.
#[derive(Debug, Clone)]
pub struct GlsIncremental {
    select: GlsSelect,
    id_space: u64,
    bands: usize,
    n: usize,
    /// Current cell per `(node, band)` at order `band + 1`, `n × bands`.
    cells: Vec<(u32, u32)>,
    /// Per band: cell → occupants, kept sorted ascending (the scan order
    /// [`GlsAssignment::compute_with`] uses, so tie-breaks agree).
    occupancy: Vec<FastMap<(u32, u32), Vec<NodeIdx>>>,
    assignment: GlsAssignment,
    /// Winner key per slot, valid where `assignment.servers != NO_SERVER`.
    rank: Vec<(u64, u64)>,
    /// Slots first touched this tick, with their pre-tick server.
    touched: Vec<(usize, NodeIdx)>,
    touched_stamp: Vec<u32>,
    mover_stamp: Vec<u32>,
    stamp: u32,
    diff: Vec<(NodeIdx, usize, NodeIdx, NodeIdx)>,
    /// Per-band scratch of [`Self::update`], cleared and refilled for
    /// every band, never dropped: the nodes that changed cell, and the
    /// squares they left or joined (cell → index into `squares`). Only
    /// the first `square_of.len()` deltas are live; the rest are a pool
    /// whose inner vectors keep their capacity.
    movers: Vec<NodeIdx>,
    square_of: FastMap<(u32, u32), usize>,
    squares: Vec<SquareDelta>,
}

impl GlsIncremental {
    pub fn new(select: GlsSelect) -> Self {
        GlsIncremental {
            select,
            id_space: 1,
            bands: 0,
            n: 0,
            cells: Vec::new(),
            occupancy: Vec::new(),
            assignment: GlsAssignment {
                n: 0,
                bands: 0,
                servers: Vec::new(),
            },
            rank: Vec::new(),
            touched: Vec::new(),
            touched_stamp: Vec::new(),
            mover_stamp: Vec::new(),
            stamp: 0,
            diff: Vec::new(),
            movers: Vec::new(),
            square_of: FastMap::default(),
            squares: Vec::new(),
        }
    }

    /// The current server table (valid after the first [`Self::update`]).
    pub fn assignment(&self) -> &GlsAssignment {
        &self.assignment
    }

    /// The changed slots of the last [`Self::update`], as it returned them.
    pub fn diff(&self) -> &[(NodeIdx, usize, NodeIdx, NodeIdx)] {
        &self.diff
    }

    /// Advance to this tick's positions. Returns the up-to-date table and
    /// the changed slots versus the previous tick as `(subject, band,
    /// old, new)` in the order [`GlsAssignment::diff`] yields (subjects
    /// ascending, bands ascending, slots ascending). The first call
    /// builds the table and returns an empty diff.
    pub fn update(
        &mut self,
        grid: &GridHierarchy,
        positions: &[Point],
        ids: &[ElectionId],
    ) -> (&GlsAssignment, &[(NodeIdx, usize, NodeIdx, NodeIdx)]) {
        assert_eq!(positions.len(), ids.len());
        let n = positions.len();
        let bands = grid.orders.saturating_sub(1);
        self.diff.clear();
        if self.n != n || self.bands != bands {
            self.rebuild(grid, positions, ids);
            return (&self.assignment, &self.diff);
        }
        self.touched.clear();
        for band in 0..bands {
            let order = band + 1;
            self.stamp = self.stamp.wrapping_add(1);
            let stamp = self.stamp;
            // 1. Movers at this band, grouped into per-square deltas.
            self.square_of.clear();
            self.movers.clear();
            for v in 0..n {
                let nc = grid.cell(positions[v], order);
                let slot = v * bands + band;
                let oc = self.cells[slot];
                if nc == oc {
                    continue;
                }
                self.cells[slot] = nc;
                self.mover_stamp[v] = stamp;
                self.movers.push(v as NodeIdx);
                for (cell, joined) in [(oc, false), (nc, true)] {
                    let live = self.square_of.len();
                    let i = *self.square_of.entry(cell).or_insert(live);
                    if i == live {
                        // First touch this band: recycle a pooled delta.
                        match self.squares.get_mut(i) {
                            Some(pooled) => {
                                pooled.0 = cell;
                                pooled.1.clear();
                                pooled.2.clear();
                            }
                            None => self.squares.push((cell, Vec::new(), Vec::new())),
                        }
                    }
                    if joined {
                        self.squares[i].1.push(v as NodeIdx);
                    } else {
                        self.squares[i].2.push(v as NodeIdx);
                    }
                }
            }
            if self.movers.is_empty() {
                continue;
            }
            let squares = &self.squares[..self.square_of.len()];
            // 2. Apply deltas to the sorted occupancy lists.
            for (cell, joined, left) in squares {
                let members = self.occupancy[band].entry(*cell).or_default();
                for v in left {
                    // audit: binary_search on a list this struct keeps
                    // sorted; a miss means internal state corruption.
                    let at = members.binary_search(v).unwrap_or_else(|_| {
                        unreachable!("leaving node {v} absent from its square")
                    });
                    members.remove(at);
                }
                for v in joined {
                    let at = members
                        .binary_search(v)
                        .expect_err("joining node already present in square");
                    members.insert(at, *v);
                }
            }
            // 3. Stationary subjects referencing a changed square.
            for si in 0..squares.len() {
                let cell = squares[si].0;
                for sib in grid.siblings(cell, order) {
                    let Some(requesters) = self.occupancy[band].get(&sib) else {
                        continue;
                    };
                    // The slot index of `cell` as seen from `sib` is the
                    // same for every requester in `sib`.
                    // audit: infallible because siblings() is symmetric —
                    // `sib` came from siblings(cell), so cell and sib share
                    // a parent square and cell is among siblings(sib).
                    let s = grid
                        .siblings(sib, order)
                        .iter()
                        .position(|&c| c == cell)
                        .expect("sibling relation is symmetric");
                    for &v in requesters {
                        if self.mover_stamp[v as usize] == stamp {
                            continue; // rescanned in full below
                        }
                        let slot = (v as usize * bands + band) * 3 + s;
                        let cur = self.assignment.servers[slot];
                        let (_, joined, left) = &squares[si];
                        if cur != NO_SERVER && !left.contains(&cur) {
                            // Winner stayed: only joiners can beat it.
                            let subj = ids[v as usize];
                            let mut best = cur;
                            let mut best_key = self.rank[slot];
                            for &m in joined {
                                let key =
                                    slot_key(self.select, self.id_space, subj, ids[m as usize]);
                                if key_beats(self.select, key, m, best_key, best) {
                                    best = m;
                                    best_key = key;
                                }
                            }
                            if best != cur {
                                // A slot belongs to exactly one band, so
                                // this band's stamp marks it touched for
                                // the whole tick.
                                if self.touched_stamp[slot] != stamp {
                                    self.touched_stamp[slot] = stamp;
                                    self.touched.push((slot, cur));
                                }
                                self.assignment.servers[slot] = best;
                                self.rank[slot] = best_key;
                            }
                        } else {
                            // Square was empty, or its winner left.
                            let members = self.occupancy[band]
                                .get(&cell)
                                .map(Vec::as_slice)
                                .unwrap_or(&[]);
                            let (best, best_key) = select_over(
                                self.select,
                                self.id_space,
                                ids[v as usize],
                                ids,
                                members,
                            );
                            if best != cur {
                                if self.touched_stamp[slot] != stamp {
                                    self.touched_stamp[slot] = stamp;
                                    self.touched.push((slot, cur));
                                }
                                self.assignment.servers[slot] = best;
                                self.rank[slot] = best_key;
                            }
                        }
                    }
                }
            }
            // 4. Movers rescan all three of their slots at this band.
            for &v in &self.movers {
                let cell = self.cells[v as usize * bands + band];
                for (s, sib) in grid.siblings(cell, order).into_iter().enumerate() {
                    let slot = (v as usize * bands + band) * 3 + s;
                    let members = self.occupancy[band]
                        .get(&sib)
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    let (best, best_key) =
                        select_over(self.select, self.id_space, ids[v as usize], ids, members);
                    let cur = self.assignment.servers[slot];
                    if best != cur {
                        if self.touched_stamp[slot] != stamp {
                            self.touched_stamp[slot] = stamp;
                            self.touched.push((slot, cur));
                        }
                        self.assignment.servers[slot] = best;
                        self.rank[slot] = best_key;
                    }
                }
            }
        }
        // 5. Emit the net per-slot changes in diff order. The slot index
        // is already lexicographic in (subject, band, s).
        self.touched.sort_unstable_by_key(|&(slot, _)| slot);
        for &(slot, old) in &self.touched {
            let new = self.assignment.servers[slot];
            if new == old {
                continue; // changed and changed back within the tick
            }
            let v = (slot / 3 / bands) as NodeIdx;
            let band = (slot / 3) % bands;
            self.diff.push((v, band, old, new));
        }
        (&self.assignment, &self.diff)
    }

    /// Full build at the current positions (first tick, or a changed
    /// node-count/grid shape).
    fn rebuild(&mut self, grid: &GridHierarchy, positions: &[Point], ids: &[ElectionId]) {
        let n = positions.len();
        let bands = grid.orders.saturating_sub(1);
        self.n = n;
        self.bands = bands;
        self.id_space = n.max(1) as u64;
        self.cells = vec![(0, 0); n * bands];
        self.occupancy = vec![FastMap::default(); bands];
        self.rank = vec![(0, 0); n * bands * 3];
        self.touched_stamp = vec![0; n * bands * 3];
        self.mover_stamp = vec![0; n];
        self.stamp = 0;
        self.touched.clear();
        for band in 0..bands {
            let order = band + 1;
            for (v, &p) in positions.iter().enumerate() {
                let cell = grid.cell(p, order);
                self.cells[v * bands + band] = cell;
                // Ascending by construction: v runs 0..n.
                self.occupancy[band]
                    .entry(cell)
                    .or_default()
                    .push(v as NodeIdx);
            }
        }
        self.assignment = GlsAssignment {
            n,
            bands,
            servers: vec![NO_SERVER; n * bands * 3],
        };
        for v in 0..n {
            for band in 0..bands {
                let order = band + 1;
                let cell = self.cells[v * bands + band];
                for (s, sib) in grid.siblings(cell, order).into_iter().enumerate() {
                    let slot = (v * bands + band) * 3 + s;
                    let members = self.occupancy[band]
                        .get(&sib)
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    let (best, best_key) =
                        select_over(self.select, self.id_space, ids[v], ids, members);
                    self.assignment.servers[slot] = best;
                    self.rank[slot] = best_key;
                }
            }
        }
    }
}

/// Route a GLS location query without pricing it.
///
/// GLS routes a query for `target` through successively coarser grid
/// orders: starting from the requester's own position, at each order `i`
/// the query is forwarded to the node that *would be* `target`'s server
/// for the requester's sibling set — in our (already simplified, see the
/// module docs) model we resolve at the lowest order whose square
/// contains both endpoints (the route's `level`), asking `target`'s
/// server in that shared square's band. A priced lookup is the request to
/// the answering server plus the reply back.
///
/// Returns `None` when no server of the target exists in the shared
/// structure (e.g. all sibling squares empty — only in near-degenerate
/// deployments).
pub fn gls_resolve_route(
    grid: &GridHierarchy,
    assignment: &GlsAssignment,
    positions: &[Point],
    requester: NodeIdx,
    target: NodeIdx,
) -> Option<Route> {
    if requester == target {
        return Some(Route {
            level: 0,
            server: None,
        });
    }
    // Lowest order whose square contains both endpoints.
    let mut shared_order = None;
    for order in 1..=grid.orders {
        if grid.cell(positions[requester as usize], order)
            == grid.cell(positions[target as usize], order)
        {
            shared_order = Some(order);
            break;
        }
    }
    let shared = shared_order?;
    if shared == 1 {
        // Same order-1 square: everyone there knows everyone (the GLS
        // analog of level-1 cluster knowledge).
        return Some(Route {
            level: 1,
            server: None,
        });
    }
    // The target keeps servers in the three sibling squares of its
    // order-(shared-1) square; the requester lives in one of those
    // siblings, so its square holds a server for the target.
    let band = shared - 2; // band b covers order b + 2
    if band >= assignment.band_count() {
        return None;
    }
    let req_cell = grid.cell(positions[requester as usize], shared - 1);
    let tgt_cell = grid.cell(positions[target as usize], shared - 1);
    let sibs = grid.siblings(tgt_cell, shared - 1);
    let server = sibs
        .iter()
        .position(|&c| c == req_cell)
        .map(|slot| assignment.servers(target, band)[slot])
        .filter(|&s| s != NO_SERVER)
        .or_else(|| {
            // Requester not in a sibling slot with a live server: fall back
            // to any of the target's servers in this band.
            assignment
                .servers(target, band)
                .iter()
                .copied()
                .find(|&s| s != NO_SERVER)
        })?;
    Some(Route {
        level: shared,
        server: Some(server),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_geom::{Region, SimRng};

    fn square_points(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let r = Rect::square(side);
        let mut rng = SimRng::seed_from(seed);
        chlm_geom::region::deploy_uniform(&r, n, &mut rng)
    }

    #[test]
    fn grid_covering_geometry() {
        let g = GridHierarchy::covering(Rect::square(100.0), 10.0);
        assert!(g.root.width() >= 100.0);
        assert!(g.side(1) >= 10.0);
        assert_eq!(g.side(g.orders), g.root.width());
        // Sides double per order.
        for o in 1..g.orders {
            assert!((g.side(o + 1) / g.side(o) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cells_nest() {
        let g = GridHierarchy::covering(Rect::square(80.0), 5.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..200 {
            let p = Rect::square(80.0).sample(&mut rng);
            for o in 1..g.orders {
                let child = g.cell(p, o);
                let parent = g.cell(p, o + 1);
                assert_eq!((child.0 / 2, child.1 / 2), parent);
            }
        }
    }

    #[test]
    fn siblings_are_three_distinct_cells_in_parent() {
        let g = GridHierarchy::covering(Rect::square(64.0), 4.0);
        let cell = (3u32, 5u32);
        let sibs = g.siblings(cell, 1);
        assert_eq!(sibs.len(), 3);
        for s in sibs {
            assert_ne!(s, cell);
            assert_eq!((s.0 / 2, s.1 / 2), (cell.0 / 2, cell.1 / 2));
        }
    }

    /// The incremental maintainer must be bit-identical to full
    /// recomputation — same table, same diff, every tick, under both
    /// selection rules — over a mobility-like random walk with enough
    /// ticks to exercise joins, leaves, winner departures, emptied and
    /// repopulated squares, and subject cell crossings.
    #[test]
    fn incremental_matches_full_recompute() {
        let n = 160usize;
        let side = 90.0;
        let g = GridHierarchy::covering(Rect::square(side), 8.0);
        for (select, seed) in [(GlsSelect::ModSuccessor, 11u64), (GlsSelect::Hrw, 12)] {
            let mut rng = SimRng::seed_from(seed);
            let mut pts = square_points(n, side, seed);
            // Shuffled-permutation IDs, like the engine's fork(1) stream.
            let mut ids: Vec<ElectionId> = (0..n as u64).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.index(i + 1));
            }
            let mut inc = GlsIncremental::new(select);
            let mut prev: Option<GlsAssignment> = None;
            for tick in 0..60 {
                let full = GlsAssignment::compute_with(&g, &pts, &ids, select);
                let (got, diff) = inc.update(&g, &pts, &ids);
                assert_eq!(got, &full, "table diverged at tick {tick} ({select:?})");
                let want = prev.as_ref().map(|p| p.diff(&full)).unwrap_or_default();
                assert_eq!(diff, &want[..], "diff diverged at tick {tick} ({select:?})");
                prev = Some(full);
                // Random walk with reflective clamping; large steps so
                // coarse-band squares churn too.
                for p in &mut pts {
                    let dx = (rng.unit() - 0.5) * 9.0;
                    let dy = (rng.unit() - 0.5) * 9.0;
                    p.x = (p.x + dx).clamp(0.0, side);
                    p.y = (p.y + dy).clamp(0.0, side);
                }
            }
        }
    }

    #[test]
    fn assignment_servers_live_in_sibling_squares() {
        let pts = square_points(300, 100.0, 2);
        let ids: Vec<u64> = (0..300).collect();
        let g = GridHierarchy::covering(Rect::square(100.0), 12.0);
        let a = GlsAssignment::compute(&g, &pts, &ids);
        for v in 0..300u32 {
            for band in 0..a.band_count() {
                let order = band + 1;
                let own = g.cell(pts[v as usize], order);
                let sibs = g.siblings(own, order);
                for (i, &s) in a.servers(v, band).iter().enumerate() {
                    if s != NO_SERVER {
                        assert_eq!(g.cell(pts[s as usize], order), sibs[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn hrw_variant_fills_exactly_the_successor_slots() {
        // Slot occupancy is rule-independent; only the chosen member may
        // differ, and it must still live in the right sibling square.
        let pts = square_points(300, 100.0, 7);
        let ids: Vec<u64> = (0..300).collect();
        let g = GridHierarchy::covering(Rect::square(100.0), 12.0);
        let succ = GlsAssignment::compute_with(&g, &pts, &ids, GlsSelect::ModSuccessor);
        let hrw = GlsAssignment::compute_with(&g, &pts, &ids, GlsSelect::Hrw);
        assert_eq!(succ, GlsAssignment::compute(&g, &pts, &ids));
        let mut differs = false;
        for v in 0..300u32 {
            for band in 0..succ.band_count() {
                let order = band + 1;
                let sibs = g.siblings(g.cell(pts[v as usize], order), order);
                for (i, (&a, &b)) in succ
                    .servers(v, band)
                    .iter()
                    .zip(hrw.servers(v, band))
                    .enumerate()
                {
                    assert_eq!(a == NO_SERVER, b == NO_SERVER);
                    if b != NO_SERVER {
                        assert_eq!(g.cell(pts[b as usize], order), sibs[i]);
                    }
                    differs |= a != b;
                }
            }
        }
        assert!(differs, "HRW never disagreed with the successor rule");
    }

    #[test]
    fn server_density_decays_with_distance() {
        // Feature (b): more servers near v than far. Count servers within
        // r vs beyond: band widths double, so per-area density must fall.
        let pts = square_points(2000, 128.0, 3);
        let ids: Vec<u64> = (0..2000).collect();
        let g = GridHierarchy::covering(Rect::square(128.0), 8.0);
        let a = GlsAssignment::compute(&g, &pts, &ids);
        // Average server distance per band should grow.
        let mut band_means = Vec::new();
        for band in 0..a.band_count() {
            let mut total = 0.0;
            let mut cnt = 0usize;
            for v in 0..2000u32 {
                for &s in a.servers(v, band) {
                    if s != NO_SERVER {
                        total += pts[v as usize].dist(pts[s as usize]);
                        cnt += 1;
                    }
                }
            }
            if cnt > 0 {
                band_means.push(total / cnt as f64);
            }
        }
        assert!(band_means.len() >= 3);
        for w in band_means.windows(2) {
            assert!(w[1] > w[0], "server distance not growing: {band_means:?}");
        }
    }

    #[test]
    fn gls_query_same_square_free_and_self_free() {
        let pts = square_points(200, 80.0, 11);
        let ids: Vec<u64> = (0..200).collect();
        let g = GridHierarchy::covering(Rect::square(80.0), 10.0);
        let a = GlsAssignment::compute(&g, &pts, &ids);
        let free = |level| {
            Some(Route {
                level,
                server: None,
            })
        };
        assert_eq!(gls_resolve_route(&g, &a, &pts, 5, 5), free(0));
        // Find two nodes in the same order-1 square.
        'outer: for u in 0..200u32 {
            for v in (u + 1)..200u32 {
                if g.cell(pts[u as usize], 1) == g.cell(pts[v as usize], 1) {
                    assert_eq!(gls_resolve_route(&g, &a, &pts, u, v), free(1));
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn gls_query_resolves_across_grid() {
        let pts = square_points(400, 100.0, 12);
        let ids: Vec<u64> = (0..400).collect();
        let g = GridHierarchy::covering(Rect::square(100.0), 8.0);
        let a = GlsAssignment::compute(&g, &pts, &ids);
        let mut resolved = 0;
        for u in (0..400u32).step_by(13) {
            for v in (0..400u32).step_by(17) {
                if u == v {
                    continue;
                }
                if let Some(route) = gls_resolve_route(&g, &a, &pts, u, v) {
                    // A server is asked exactly when the endpoints share
                    // no order-1 square.
                    assert_eq!(route.server.is_some(), route.level >= 2);
                    resolved += 1;
                }
            }
        }
        assert!(resolved > 100, "only {resolved} queries resolved");
    }
}
