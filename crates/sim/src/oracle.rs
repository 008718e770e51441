//! Hop-distance oracles.
//!
//! Handoff cost is packets × hops, so the engine needs hop distances
//! between arbitrary node pairs every tick. Exact BFS is `O(n + m)` per
//! distinct source; the Euclidean proxy `dist / R_TX × calibration`
//! is `O(1)` and, on fixed-density unit-disk graphs, accurate to within a
//! few percent once calibrated (the detour ratio of such graphs is a
//! constant ≈ 1.1–1.4 at the degrees we simulate).
//!
//! The BFS oracle keeps no rows of its own: `hops(a, b)` reads
//! [`Graph::hop_row`]`(a)[b]`, the snapshot's one shortest-path row store,
//! so a row priced here is the row a packet sent from `a` over the same
//! `&Graph` reads its hop count from (and the other way round), and it
//! lives until the topology stage next mutates the graph. A row nobody
//! warmed is one scalar BFS on first use; inside a tick `Transport::carry`
//! warms the `src` rows of a whole batch of legs first
//! ([`Graph::fill_hop_rows`]).

use chlm_geom::Point;
use chlm_graph::traversal::UNREACHABLE;
use chlm_graph::{Graph, NodeIdx};
use chlm_par::WorkerPool;

/// Conservative detour factor used for disconnected pairs when no
/// startup-measured calibration is available (`n < 2`, nothing sampled).
pub const DEFAULT_DETOUR: f64 = 1.3;

/// A per-tick hop-distance oracle over one topology snapshot.
pub struct DistanceOracle<'a> {
    graph: &'a Graph,
    positions: &'a [Point],
    rtx: f64,
    /// `None` → exact BFS over [`Graph::hop_row`].
    calibration: Option<f64>,
    /// Detour factor pricing *disconnected* pairs under the BFS oracle
    /// (the startup-measured calibration; [`DEFAULT_DETOUR`] otherwise).
    fallback: f64,
}

impl<'a> DistanceOracle<'a> {
    /// Exact-BFS oracle. Disconnected pairs fall back to the Euclidean
    /// proxy at [`DEFAULT_DETOUR`]; thread the startup-measured
    /// calibration in with [`DistanceOracle::with_fallback`].
    pub fn bfs(graph: &'a Graph, positions: &'a [Point], rtx: f64) -> Self {
        DistanceOracle {
            graph,
            positions,
            rtx,
            calibration: None,
            fallback: DEFAULT_DETOUR,
        }
    }

    /// Set the detour factor pricing disconnected pairs (the
    /// startup-measured calibration the config carries).
    pub fn with_fallback(mut self, fallback: f64) -> Self {
        assert!(fallback > 0.0 && fallback.is_finite());
        self.fallback = fallback;
        self
    }

    /// Euclidean-proxy oracle with the given calibration factor.
    pub fn euclidean(graph: &'a Graph, positions: &'a [Point], rtx: f64, calibration: f64) -> Self {
        assert!(calibration > 0.0 && calibration.is_finite());
        DistanceOracle {
            graph,
            positions,
            rtx,
            calibration: Some(calibration),
            fallback: calibration,
        }
    }

    /// Warm the rows `hops(source, _)` reads, for every source in
    /// `sources`: [`Graph::fill_hop_rows`] on a BFS oracle, nothing on a
    /// Euclidean one. Answers are identical to not prefilling at all, at
    /// every thread count. The engine does not call this — its transports
    /// hand their legs' roots to the graph directly; it serves callers
    /// that price outside a tick (today: tests).
    pub fn prefill(&self, sources: &[NodeIdx], workers: &WorkerPool) {
        if self.calibration.is_none() {
            self.graph.fill_hop_rows(sources, workers);
        }
    }

    /// Hop distance from `a` to `b`. Disconnected pairs are priced at the
    /// Euclidean proxy (the handoff would be deferred, not free; this keeps
    /// costs finite and conservative).
    pub fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
        if a == b {
            return 0.0;
        }
        match self.calibration {
            Some(c) => self.euclid_estimate(a, b, c),
            None => match self.graph.hop_row(a)[b as usize] {
                UNREACHABLE => self.euclid_estimate(a, b, self.fallback),
                hops => hops as f64,
            },
        }
    }

    fn euclid_estimate(&self, a: NodeIdx, b: NodeIdx, calibration: f64) -> f64 {
        let d = self.positions[a as usize].dist(self.positions[b as usize]);
        (d / self.rtx * calibration).max(1.0)
    }
}

/// Measure the BFS/Euclidean detour calibration on a topology by sampling
/// `samples` connected pairs. Returns the mean ratio
/// `bfs_hops / (euclidean / rtx)`, or [`DEFAULT_DETOUR`] when nothing can
/// be sampled.
pub fn calibrate(
    graph: &Graph,
    positions: &[Point],
    rtx: f64,
    samples: usize,
    rng: &mut chlm_geom::SimRng,
) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        return DEFAULT_DETOUR;
    }
    let mut total_ratio = 0.0;
    let mut count = 0usize;
    for _ in 0..samples {
        let a = rng.index(n) as NodeIdx;
        let d = graph.hop_row(a);
        for _ in 0..4 {
            let b = rng.index(n) as NodeIdx;
            if a == b || d[b as usize] == UNREACHABLE || d[b as usize] < 2 {
                continue;
            }
            let euclid = positions[a as usize].dist(positions[b as usize]) / rtx;
            if euclid > 0.5 {
                total_ratio += d[b as usize] as f64 / euclid;
                count += 1;
            }
        }
    }
    if count == 0 {
        DEFAULT_DETOUR
    } else {
        total_ratio / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_geom::region::deploy_uniform;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::traversal::bfs_distances;
    use chlm_graph::unit_disk::build_unit_disk;

    fn setup(n: usize, seed: u64) -> (Graph, Vec<Point>, f64) {
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let mut rng = SimRng::seed_from(seed);
        let pts = deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        (g, pts, rtx)
    }

    #[test]
    fn bfs_oracle_matches_bfs() {
        let (g, pts, rtx) = setup(200, 1);
        let mut o = DistanceOracle::bfs(&g, &pts, rtx);
        let d0 = bfs_distances(&g, 0);
        for b in 1..50u32 {
            if d0[b as usize] != UNREACHABLE {
                assert_eq!(o.hops(0, b), d0[b as usize] as f64);
            }
        }
        assert_eq!(o.hops(3, 3), 0.0);
        // One source was asked; the diagonal never reaches the graph.
        assert_eq!(g.hop_rows_cached(), 1);
    }

    #[test]
    fn euclidean_oracle_close_to_bfs_after_calibration() {
        let (g, pts, rtx) = setup(600, 2);
        let mut rng = SimRng::seed_from(3);
        let c = calibrate(&g, &pts, rtx, 20, &mut rng);
        assert!(c > 0.9 && c < 2.0, "calibration {c}");
        let mut eo = DistanceOracle::euclidean(&g, &pts, rtx, c);
        let mut bo = DistanceOracle::bfs(&g, &pts, rtx);
        // Mean relative error over sampled pairs should be modest.
        let mut err = 0.0;
        let mut count = 0;
        for a in (0..600u32).step_by(37) {
            for b in (1..600u32).step_by(53) {
                let exact = bo.hops(a, b);
                if exact >= 3.0 {
                    err += (eo.hops(a, b) - exact).abs() / exact;
                    count += 1;
                }
            }
        }
        let mean_err = err / count as f64;
        assert!(mean_err < 0.25, "mean relative error {mean_err}");
    }

    /// An oracle over a graph whose memo earlier oracles already filled
    /// answers exactly like one over a cold copy of the same graph.
    #[test]
    fn memoised_rows_give_identical_answers() {
        let (g, pts, rtx) = setup(150, 5);
        let mut o = DistanceOracle::bfs(&g, &pts, rtx);
        let _ = o.hops(0, 5);
        let _ = o.hops(7, 9);
        assert_eq!(g.hop_rows_cached(), 2);
        let cold = g.clone();
        let mut warm = DistanceOracle::bfs(&g, &pts, rtx);
        let mut fresh = DistanceOracle::bfs(&cold, &pts, rtx);
        for (a, b) in [(11u32, 17u32), (3, 140), (17, 11), (0, 0), (0, 140), (7, 9)] {
            assert_eq!(warm.hops(a, b), fresh.hops(a, b));
        }
        // Sources {0, 7} were warm, {3, 11, 17} new; the cold copy ran all five.
        assert_eq!(g.hop_rows_cached(), 5);
        assert_eq!(cold.hop_rows_cached(), 5);
    }

    /// The satellite bugfix pin: disconnected pairs under the BFS oracle
    /// must be priced with the *threaded* calibration, not a hardcoded
    /// detour constant.
    #[test]
    fn disconnected_fallback_uses_threaded_calibration() {
        // Two far-apart components: 0–1 and 2–3.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(40.0, 0.0),
            Point::new(40.5, 0.0),
        ];
        let g = build_unit_disk(&pts, 1.0);
        let calib = 1.7;
        let mut o = DistanceOracle::bfs(&g, &pts, 1.0).with_fallback(calib);
        let expect = pts[0].dist(pts[2]) / 1.0 * calib;
        assert_eq!(o.hops(0, 2), expect.max(1.0));
        // A different calibration gives a different price: the old
        // hardcoded 1.3 cannot sneak back in.
        let mut other = DistanceOracle::bfs(&g, &pts, 1.0).with_fallback(1.3);
        assert_ne!(o.hops(0, 2), other.hops(0, 2));
        // Connected pairs stay exact BFS.
        assert_eq!(o.hops(0, 1), 1.0);
    }

    #[test]
    fn prefill_matches_lazy_bfs_any_thread_count() {
        let (g, pts, rtx) = setup(300, 7);
        let sources: Vec<NodeIdx> = vec![5, 17, 17, 3, 250, 5, 90];
        let pairs: Vec<(NodeIdx, NodeIdx)> = sources
            .iter()
            .flat_map(|&a| [(a, 0u32), (a, 123), (a, 299)])
            .collect();
        let mut lazy = DistanceOracle::bfs(&g, &pts, rtx);
        let want: Vec<f64> = pairs.iter().map(|&(a, b)| lazy.hops(a, b)).collect();
        for threads in [1usize, 2, 8] {
            // A clone starts with an empty memo, so every row below is this
            // pool's own work.
            let cold = g.clone();
            let mut o = DistanceOracle::bfs(&cold, &pts, rtx);
            o.prefill(&sources, &chlm_par::WorkerPool::new(threads));
            assert_eq!(cold.hop_rows_cached(), 5, "one row per distinct source");
            let got: Vec<f64> = pairs.iter().map(|&(a, b)| o.hops(a, b)).collect();
            assert_eq!(got, want, "threads {threads}");
            assert_eq!(cold.hop_rows_cached(), 5, "priced from the prefilled rows");
        }
    }

    /// Rows outlive the oracle that asked for them: a second oracle over
    /// the same snapshot adds only the sources the first never saw, and a
    /// Euclidean oracle asks for none.
    #[test]
    fn prefill_warms_the_memo_every_oracle_shares() {
        let (g, pts, rtx) = setup(120, 8);
        let pool = chlm_par::WorkerPool::new(2);
        DistanceOracle::bfs(&g, &pts, rtx).prefill(&[1, 2, 3], &pool);
        assert_eq!(g.hop_rows_cached(), 3);
        let mut second = DistanceOracle::bfs(&g, &pts, rtx);
        second.prefill(&[3, 4, 5, 6], &pool);
        assert_eq!(g.hop_rows_cached(), 6);
        DistanceOracle::euclidean(&g, &pts, rtx, 1.3).prefill(&[7, 8], &pool);
        assert_eq!(g.hop_rows_cached(), 6);
        let cold = g.clone();
        let mut fresh = DistanceOracle::bfs(&cold, &pts, rtx);
        assert_eq!(second.hops(4, 90), fresh.hops(4, 90));
    }

    #[test]
    fn minimum_one_hop_for_distinct_nodes() {
        let (g, pts, rtx) = setup(50, 4);
        let mut o = DistanceOracle::euclidean(&g, &pts, rtx, 1.3);
        for b in 1..50u32 {
            assert!(o.hops(0, b) >= 1.0);
        }
    }
}
