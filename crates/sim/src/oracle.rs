//! Hop-distance oracles.
//!
//! Handoff cost is packets × hops, so the engine needs hop distances
//! between arbitrary node pairs every tick. Exact BFS is `O(n + m)` per
//! distinct source; the Euclidean proxy `dist / R_TX × calibration`
//! is `O(1)` and, on fixed-density unit-disk graphs, accurate to within a
//! few percent once calibrated (the detour ratio of such graphs is a
//! constant ≈ 1.1–1.4 at the degrees we simulate).

use chlm_geom::Point;
use chlm_graph::traversal::{bfs_distances, bfs_distances_into, UNREACHABLE};
use chlm_graph::{Graph, NodeIdx};
use chlm_par::WorkerPool;
use std::collections::BTreeMap;

/// Conservative detour factor used for disconnected pairs when no
/// startup-measured calibration is available (`n < 2`, nothing sampled).
pub const DEFAULT_DETOUR: f64 = 1.3;

/// A per-tick hop-distance oracle over one topology snapshot.
pub struct DistanceOracle<'a> {
    graph: &'a Graph,
    positions: &'a [Point],
    rtx: f64,
    /// `None` → exact BFS with per-source caching.
    calibration: Option<f64>,
    /// Detour factor pricing *disconnected* pairs under the BFS oracle
    /// (the startup-measured calibration; [`DEFAULT_DETOUR`] otherwise).
    fallback: f64,
    // Ordered map by policy for accounting-adjacent state (lookup-only
    // today; the log-factor on top of an O(n+m) BFS is noise).
    cache: BTreeMap<NodeIdx, Vec<u32>>,
    /// Spare distance buffers recycled across ticks (see [`Self::into_pool`]).
    pool: Vec<Vec<u32>>,
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
            cache: BTreeMap::new(),
            pool: Vec::new(),
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
            cache: BTreeMap::new(),
            pool: Vec::new(),
        }
    }

    /// Seed the oracle with distance buffers recycled from a previous tick's
    /// oracle (the values are stale; buffers are overwritten before use).
    pub fn with_pool(mut self, pool: Vec<Vec<u32>>) -> Self {
        self.pool = pool;
        self
    }

    /// Tear down, handing back every distance buffer (cached and spare) so
    /// the next tick's oracle can reuse the allocations.
    pub fn into_pool(self) -> Vec<Vec<u32>> {
        let mut pool = self.pool;
        pool.extend(self.cache.into_values());
        pool
    }

    /// Compute the BFS distance rows for `sources` (sorted, deduped here)
    /// into pooled buffers across `workers` threads and install them in
    /// the per-source cache, so subsequent [`DistanceOracle::hops`] calls
    /// for those sources are lock-free lookups. Each row is an
    /// independent BFS into its own buffer and the cache is filled from
    /// an index-ordered result set, so the oracle's answers are identical
    /// for every thread count (and identical to not prefilling at all —
    /// only *when* a row is computed changes). No-op on Euclidean oracles.
    pub fn prefill(&mut self, sources: &[NodeIdx], workers: &WorkerPool) {
        if self.calibration.is_some() || sources.is_empty() {
            return;
        }
        let mut jobs: Vec<(NodeIdx, Vec<u32>)> = Vec::with_capacity(sources.len());
        let owned: Vec<NodeIdx>;
        let order: &[NodeIdx] = if sources.windows(2).all(|w| w[0] < w[1]) {
            sources // already strictly ascending: no copy needed
        } else {
            let mut v = sources.to_owned();
            v.sort_unstable();
            v.dedup();
            owned = v;
            &owned
        };
        for &s in order {
            if !self.cache.contains_key(&s) {
                jobs.push((s, self.pool.pop().unwrap_or_default()));
            }
        }
        let graph = self.graph;
        workers.for_each_mut(&mut jobs, |(src, buf)| {
            bfs_distances_into(graph, *src, buf);
        });
        for (src, buf) in jobs {
            self.cache.insert(src, buf);
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
            None => {
                let graph = self.graph;
                let pool = &mut self.pool;
                let d = self.cache.entry(a).or_insert_with(|| {
                    let mut buf = pool.pop().unwrap_or_default();
                    bfs_distances_into(graph, a, &mut buf);
                    buf
                });
                let hops = d[b as usize];
                if hops == UNREACHABLE {
                    self.euclid_estimate(a, b, self.fallback)
                } else {
                    hops as f64
                }
            }
        }
    }

    fn euclid_estimate(&self, a: NodeIdx, b: NodeIdx, calibration: f64) -> f64 {
        let d = self.positions[a as usize].dist(self.positions[b as usize]);
        (d / self.rtx * calibration).max(1.0)
    }

    /// Number of BFS computations cached so far (diagnostics).
    pub fn cached_sources(&self) -> usize {
        self.cache.len()
    }
}

/// Measure the BFS/Euclidean detour calibration on a topology by sampling
/// `samples` connected pairs. Returns the mean ratio
/// `bfs_hops / (euclidean / rtx)`, or a conservative default of 1.3 when
/// nothing can be sampled.
pub fn calibrate(
    graph: &Graph,
    positions: &[Point],
    rtx: f64,
    samples: usize,
    rng: &mut chlm_geom::SimRng,
) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        return 1.3;
    }
    let mut total_ratio = 0.0;
    let mut count = 0usize;
    for _ in 0..samples {
        let a = rng.index(n) as NodeIdx;
        let d = bfs_distances(graph, a);
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
        1.3
    } else {
        total_ratio / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_geom::region::deploy_uniform;
    use chlm_geom::{Disk, SimRng};
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
        assert!(o.cached_sources() >= 1);
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

    #[test]
    fn pooled_buffers_give_identical_answers() {
        let (g, pts, rtx) = setup(150, 5);
        let mut o = DistanceOracle::bfs(&g, &pts, rtx);
        let _ = o.hops(0, 5);
        let _ = o.hops(7, 9);
        let pool = o.into_pool();
        assert_eq!(pool.len(), 2);
        let mut pooled = DistanceOracle::bfs(&g, &pts, rtx).with_pool(pool);
        let mut fresh = DistanceOracle::bfs(&g, &pts, rtx);
        for (a, b) in [(11u32, 17u32), (3, 140), (17, 11), (0, 0)] {
            assert_eq!(pooled.hops(a, b), fresh.hops(a, b));
        }
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
            let mut o = DistanceOracle::bfs(&g, &pts, rtx);
            o.prefill(&sources, &chlm_par::WorkerPool::new(threads));
            assert_eq!(o.cached_sources(), 5, "dedup failed");
            let got: Vec<f64> = pairs.iter().map(|&(a, b)| o.hops(a, b)).collect();
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn prefill_reuses_pooled_buffers() {
        let (g, pts, rtx) = setup(120, 8);
        let mut first = DistanceOracle::bfs(&g, &pts, rtx);
        first.prefill(&[1, 2, 3], &chlm_par::WorkerPool::new(2));
        let pool = first.into_pool();
        assert_eq!(pool.len(), 3);
        let mut second = DistanceOracle::bfs(&g, &pts, rtx).with_pool(pool);
        second.prefill(&[4, 5, 6], &chlm_par::WorkerPool::new(2));
        // All three rows came from the pool: nothing left over.
        assert!(second.pool.is_empty());
        let mut fresh = DistanceOracle::bfs(&g, &pts, rtx);
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
