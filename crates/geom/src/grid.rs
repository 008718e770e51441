//! Uniform spatial hash grid.
//!
//! The unit-disk graph builder must find, for each node, all nodes within
//! `R_TX`. With the cell size set to the query radius, each query inspects
//! at most the 3x3 block of cells around the query point, so a full graph
//! rebuild is `O(n · d)` expected for fixed density — this is what keeps the
//! per-tick cost of the simulator linear in `n`.

use crate::point::Point;

/// Spatial hash grid over a set of points with a fixed cell size.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    inv_cell: f64,
    min: Point,
    cols: usize,
    rows: usize,
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `items` for cell c.
    starts: Vec<u32>,
    items: Vec<u32>,
    /// Placement cursor scratch, kept so `rebuild` allocates nothing once
    /// the grid has reached its steady-state size.
    cursor: Vec<u32>,
    n_points: usize,
}

/// A [`SpatialGrid`]'s points numbered by cell. Cells are row-major,
/// `cols × rows` of them; cell `c = cy · cols + cx` holds the points
/// `items[starts[c]..starts[c + 1]]`, in ascending index order (the
/// counting sort is stable). So `items` maps a *rank* to the point's
/// index, and points in the same or neighbouring cells get close ranks:
/// every point of cell `c` ranks below every point of a later cell.
#[derive(Debug, Clone, Copy)]
pub struct CellOrder<'a> {
    pub cols: usize,
    pub rows: usize,
    /// `cols · rows + 1` rank offsets, one run per cell.
    pub starts: &'a [u32],
    /// Rank → point index; a permutation of `0..len`.
    pub items: &'a [u32],
}

impl SpatialGrid {
    /// Build a grid over `points` with the given `cell` size (normally the
    /// query radius). Handles the empty set.
    pub fn build(points: &[Point], cell: f64) -> Self {
        let mut grid = SpatialGrid {
            cell,
            inv_cell: 1.0 / cell,
            min: Point::ORIGIN,
            cols: 1,
            rows: 1,
            starts: Vec::new(),
            items: Vec::new(),
            cursor: Vec::new(),
            n_points: 0,
        };
        grid.rebuild(points, cell);
        grid
    }

    /// Re-index a new point set in place, reusing the CSR buffers. After the
    /// first few calls at a stable population this allocates nothing.
    pub fn rebuild(&mut self, points: &[Point], cell: f64) {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        self.cell = cell;
        self.inv_cell = 1.0 / cell;
        self.n_points = points.len();
        if points.is_empty() {
            self.min = Point::ORIGIN;
            self.cols = 1;
            self.rows = 1;
            self.starts.clear();
            self.starts.extend_from_slice(&[0, 0]);
            self.items.clear();
            return;
        }
        let mut min = points[0];
        let mut max = points[0];
        for p in points {
            debug_assert!(p.is_finite(), "non-finite point in grid");
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        let inv_cell = self.inv_cell;
        let cols = (((max.x - min.x) * inv_cell).floor() as usize) + 1;
        let rows = (((max.y - min.y) * inv_cell).floor() as usize) + 1;
        let n_cells = cols * rows;
        self.min = min;
        self.cols = cols;
        self.rows = rows;

        // Counting sort into CSR: one pass to count, one to place.
        self.starts.clear();
        self.starts.resize(n_cells + 1, 0);
        let cell_of = |p: &Point| -> usize {
            let cx = ((p.x - min.x) * inv_cell).floor() as usize;
            let cy = ((p.y - min.y) * inv_cell).floor() as usize;
            cy.min(rows - 1) * cols + cx.min(cols - 1)
        };
        for p in points {
            self.starts[cell_of(p) + 1] += 1;
        }
        for c in 0..n_cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts);
        self.items.clear();
        self.items.resize(points.len(), 0);
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            self.items[self.cursor[c] as usize] = i as u32;
            self.cursor[c] += 1;
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// The grid's cell order: its CSR, read as a numbering of the points.
    pub fn cell_order(&self) -> CellOrder<'_> {
        CellOrder {
            cols: self.cols,
            rows: self.rows,
            starts: &self.starts,
            items: &self.items,
        }
    }

    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.min.x) * self.inv_cell).floor();
        let cy = ((p.y - self.min.y) * self.inv_cell).floor();
        (
            (cx.max(0.0) as usize).min(self.cols - 1),
            (cy.max(0.0) as usize).min(self.rows - 1),
        )
    }

    /// Visit indices of all points within `radius` of `q` (inclusive).
    ///
    /// `radius` must be ≤ the cell size for the 3x3 block scan to be
    /// complete; this is asserted. Visits include the query point itself if
    /// it is one of the indexed points.
    pub fn for_each_within<F: FnMut(u32)>(
        &self,
        points: &[Point],
        q: Point,
        radius: f64,
        mut f: F,
    ) {
        assert!(
            radius <= self.cell * (1.0 + 1e-9),
            "query radius {radius} exceeds cell size {}",
            self.cell
        );
        if self.n_points == 0 {
            return;
        }
        let (cx, cy) = self.cell_coords(q);
        let r_sq = radius * radius;
        let x0 = cx.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y0 = cy.saturating_sub(1);
        let y1 = (cy + 1).min(self.rows - 1);
        for gy in y0..=y1 {
            for gx in x0..=x1 {
                let c = gy * self.cols + gx;
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                for &i in &self.items[lo..hi] {
                    if points[i as usize].dist_sq(q) <= r_sq {
                        f(i);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{deploy_uniform, Disk};
    use crate::rng::SimRng;

    /// What `for_each_within` visits, in visiting order.
    fn within(g: &SpatialGrid, points: &[Point], q: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        g.for_each_within(points, q, radius, |i| out.push(i));
        out
    }

    fn brute_force(points: &[Point], q: Point, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(q) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_grid_queries_nothing() {
        let g = SpatialGrid::build(&[], 1.0);
        assert!(g.is_empty());
        assert!(within(&g, &[], Point::ORIGIN, 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let pts = vec![Point::new(0.5, 0.5)];
        let g = SpatialGrid::build(&pts, 1.0);
        assert_eq!(within(&g, &pts, Point::ORIGIN, 1.0), vec![0]);
        assert!(within(&g, &pts, Point::new(5.0, 5.0), 1.0).is_empty());
    }

    #[test]
    fn matches_brute_force_random() {
        let d = Disk::centered(10.0);
        let mut rng = SimRng::seed_from(5);
        let pts = deploy_uniform(&d, 400, &mut rng);
        let r = 1.3;
        let g = SpatialGrid::build(&pts, r);
        for qi in 0..pts.len() {
            let mut got = within(&g, &pts, pts[qi], r);
            got.sort_unstable();
            let want = brute_force(&pts, pts[qi], r);
            assert_eq!(got, want, "mismatch at query {qi}");
        }
    }

    #[test]
    fn query_radius_smaller_than_cell_ok() {
        let d = Disk::centered(10.0);
        let mut rng = SimRng::seed_from(6);
        let pts = deploy_uniform(&d, 200, &mut rng);
        let g = SpatialGrid::build(&pts, 2.0);
        for qi in (0..pts.len()).step_by(7) {
            let mut got = within(&g, &pts, pts[qi], 1.0);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, pts[qi], 1.0));
        }
    }

    #[test]
    #[should_panic]
    fn oversized_radius_panics() {
        let pts = vec![Point::ORIGIN];
        let g = SpatialGrid::build(&pts, 1.0);
        within(&g, &pts, Point::ORIGIN, 2.0);
    }

    #[test]
    fn query_from_far_outside_bounds() {
        let pts = vec![Point::ORIGIN, Point::new(1.0, 1.0)];
        let g = SpatialGrid::build(&pts, 1.0);
        // Far-away queries must not panic or wrap.
        assert!(within(&g, &pts, Point::new(-100.0, 50.0), 1.0).is_empty());
    }

    #[test]
    fn cell_order_is_a_stable_cell_sort() {
        let d = Disk::centered(6.0);
        let mut rng = SimRng::seed_from(8);
        let pts = deploy_uniform(&d, 300, &mut rng);
        let g = SpatialGrid::build(&pts, 1.1);
        let order = g.cell_order();
        assert_eq!(order.starts.len(), order.cols * order.rows + 1);
        let mut seen = order.items.to_vec();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..pts.len() as u32));
        for c in 0..order.cols * order.rows {
            let run = &order.items[order.starts[c] as usize..order.starts[c + 1] as usize];
            assert!(run.windows(2).all(|w| w[0] < w[1]), "cell {c} not stable");
            for &i in run {
                let (cx, cy) = g.cell_coords(pts[i as usize]);
                assert_eq!(cy * order.cols + cx, c);
            }
        }
    }

    #[test]
    fn collinear_points_degenerate_bbox() {
        // All points on a horizontal line: rows collapses to 1.
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f64, 3.0)).collect();
        let g = SpatialGrid::build(&pts, 1.5);
        let mut got = within(&g, &pts, Point::new(10.0, 3.0), 1.5);
        got.sort_unstable();
        assert_eq!(got, brute_force(&pts, Point::new(10.0, 3.0), 1.5));
    }
}
