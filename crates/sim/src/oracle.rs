//! The Euclidean hop estimate and its calibration.
//!
//! Handoff cost is packets × hops, so the engine needs hop distances
//! between arbitrary node pairs every tick (`crate::cost`). Exact BFS is
//! `O(n + m)` per distinct source; the Euclidean proxy
//! [`euclidean_hops`], `dist / R_TX × calibration`, is `O(1)` and, on
//! fixed-density unit-disk graphs, accurate to within a few percent once
//! calibrated (the detour ratio of such graphs is a constant ≈ 1.1–1.4
//! at the degrees we simulate). [`calibrate`] measures that ratio once at
//! startup; the estimate also prices the pairs the exact rules cannot
//! (disconnected under BFS, unroutable under hierarchical routing).

use chlm_geom::Point;
use chlm_graph::traversal::UNREACHABLE;
use chlm_graph::{Graph, NodeIdx};

/// Conservative detour factor used for disconnected pairs when no
/// startup-measured calibration is available (`n < 2`, nothing sampled),
/// and the fixed factor of the experiments that price without a world.
pub const DEFAULT_DETOUR: f64 = 1.3;

/// The Euclidean hop estimate between two points: `distance / rtx ×
/// calibration`, at least one hop. It has no diagonal rule of its own
/// (coincident points cost one hop); pricers answer `a == b` with 0
/// before they ask it.
#[inline]
pub fn euclidean_hops(a: Point, b: Point, rtx: f64, calibration: f64) -> f64 {
    (a.dist(b) / rtx * calibration).max(1.0)
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
    use crate::config::HopMetric;
    use crate::cost::{CostInputs, HopPricer, Pricing};
    use chlm_cluster::{Hierarchy, HierarchyOptions};
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

    /// `pairs` priced by a [`HopMetric::Bfs`] pricer over `g` whose
    /// unreachable pairs fall back to `calibration`.
    fn bfs_prices(
        g: &Graph,
        pts: &[Point],
        rtx: f64,
        calibration: f64,
        pairs: &[(NodeIdx, NodeIdx)],
    ) -> Vec<f64> {
        let ids: Vec<u64> = (0..g.node_count() as u64).collect();
        let h = Hierarchy::build(&ids, g, HierarchyOptions::default());
        let inputs = CostInputs {
            graph: g,
            positions: pts,
            hierarchy: &h,
            rtx,
            sources: &[],
        };
        let mut pricing = Pricing::new(HopMetric::Bfs, calibration);
        let mut pricer = pricing.pricer(&inputs);
        pairs.iter().map(|&(a, b)| pricer.hops(a, b)).collect()
    }

    #[test]
    fn euclidean_oracle_close_to_bfs_after_calibration() {
        let (g, pts, rtx) = setup(600, 2);
        let mut rng = SimRng::seed_from(3);
        let c = calibrate(&g, &pts, rtx, 20, &mut rng);
        assert!(c > 0.9 && c < 2.0, "calibration {c}");
        // Mean relative error over sampled pairs should be modest.
        let mut err = 0.0;
        let mut count = 0;
        for a in (0..600u32).step_by(37) {
            let row = bfs_distances(&g, a);
            for b in (1..600u32).step_by(53) {
                let exact = row[b as usize];
                if exact >= 3 && exact != UNREACHABLE {
                    let exact = f64::from(exact);
                    let estimate = euclidean_hops(pts[a as usize], pts[b as usize], rtx, c);
                    err += (estimate - exact).abs() / exact;
                    count += 1;
                }
            }
        }
        let mean_err = err / count as f64;
        assert!(mean_err < 0.25, "mean relative error {mean_err}");
    }

    /// A pricer over a graph whose memo earlier pricers already filled
    /// answers exactly like one over a cold copy of the same graph.
    #[test]
    fn memoised_rows_give_identical_answers() {
        let (g, pts, rtx) = setup(150, 5);
        let _ = bfs_prices(&g, &pts, rtx, DEFAULT_DETOUR, &[(0, 5), (7, 9)]);
        assert_eq!(g.hop_rows_cached(), 2);
        let cold = g.clone();
        let pairs = [(11u32, 17u32), (3, 140), (17, 11), (0, 0), (0, 140), (7, 9)];
        assert_eq!(
            bfs_prices(&g, &pts, rtx, DEFAULT_DETOUR, &pairs),
            bfs_prices(&cold, &pts, rtx, DEFAULT_DETOUR, &pairs)
        );
        // Sources {0, 7} were warm, {3, 11, 17} new; the cold copy ran all five.
        assert_eq!(g.hop_rows_cached(), 5);
        assert_eq!(cold.hop_rows_cached(), 5);
    }

    /// The satellite bugfix pin: disconnected pairs under BFS pricing
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
        let priced = bfs_prices(&g, &pts, 1.0, calib, &[(0, 2), (0, 1)]);
        let expect = pts[0].dist(pts[2]) / 1.0 * calib;
        assert_eq!(priced[0], expect.max(1.0));
        // A different calibration gives a different price: the old
        // hardcoded 1.3 cannot sneak back in.
        assert_ne!(priced[0], bfs_prices(&g, &pts, 1.0, 1.3, &[(0, 2)])[0]);
        // Connected pairs stay exact BFS.
        assert_eq!(priced[1], 1.0);
    }

    /// At least one hop between any two points, coincident ones included:
    /// the estimate has no diagonal rule.
    #[test]
    fn minimum_one_hop_for_distinct_nodes() {
        let (_, pts, rtx) = setup(50, 4);
        for b in 0..50 {
            assert!(euclidean_hops(pts[0], pts[b], rtx, DEFAULT_DETOUR) >= 1.0);
        }
        assert_eq!(euclidean_hops(pts[0], pts[0], rtx, DEFAULT_DETOUR), 1.0);
    }
}
