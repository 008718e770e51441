//! Pluggable hop-cost models.
//!
//! Everything the engine prices — handoff transfers, registrations, GLS
//! maintenance, query sampling — reduces to "how many packet
//! transmissions from node `a` to node `b`". A [`CostModel`] owns the
//! per-tick machinery that answers that question and lends the engine a
//! [`HopPricer`] scoped to one topology snapshot:
//!
//! * [`BfsCostModel`] — exact BFS on the level-0 graph, read off the
//!   snapshot's shared row store [`Graph::hop_row`] ([`HopMetric::Bfs`]);
//! * [`EuclideanCostModel`] — `distance / R_TX × calibration`
//!   ([`HopMetric::EuclideanCalibrated`] / [`HopMetric::Euclidean`]);
//! * [`HierRoutingCostModel`] — the paper's strict hierarchical forwarding
//!   over [`chlm_routing::NextHopTable`], so stretch is priced in instead
//!   of assumed away ([`HopMetric::HierRouting`]).
//!
//! The scoped-lend shape (`with_pricer` hands a `&mut dyn HopPricer` to a
//! closure) lets a model borrow the tick's graph/positions without storing
//! lifetimes in the engine. No model keeps or computes shortest-path rows:
//! the BFS rows live on the `Graph` they describe, where the packet
//! transports of every bank find the same ones, are warmed a batch of legs
//! at a time by the transport that carries them
//! ([`crate::transport`], rule 4), and die with the graph's next mutation.

use crate::config::HopMetric;
use crate::oracle::{DistanceOracle, DEFAULT_DETOUR};
use chlm_cluster::Hierarchy;
use chlm_geom::Point;
use chlm_graph::{Graph, NodeIdx};
use chlm_routing::nexthop::NextHopTable;

/// A hop-distance pricer over one topology snapshot. `hops(a, b)` is the
/// packet-transmission cost of moving one message from `a` to `b`;
/// `hops(a, a) == 0`.
pub trait HopPricer {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64;
}

impl HopPricer for DistanceOracle<'_> {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
        DistanceOracle::hops(self, a, b)
    }
}

/// Everything a cost model may need to build its per-tick pricer. All
/// references describe the *current* tick's snapshot.
pub struct CostInputs<'a> {
    pub graph: &'a Graph,
    pub positions: &'a [Point],
    pub hierarchy: &'a Hierarchy,
    pub rtx: f64,
    /// Unread: no model computes rows ahead of pricing, the transports
    /// warm the rows their own legs read (`Transport::carry`). Kept, and
    /// passed `&[]`, because the frozen `benchmark/` harness constructs
    /// it; goes with `[benchmark]` v2 (ROADMAP). `DistanceOracle::prefill`
    /// likewise survives only as the wrapper over `Graph::fill_hop_rows`
    /// its tests call (`oracle::tests::prefill_*`, `thread_invariance`).
    pub sources: &'a [NodeIdx],
}

/// A pluggable hop-cost model. Implementations own whatever cross-tick
/// state they need (calibration constants, routing tables) and lend a
/// [`HopPricer`] scoped to one snapshot.
pub trait CostModel {
    /// Build a pricer for `inputs` and hand it to `scope`.
    fn with_pricer(&mut self, inputs: &CostInputs<'_>, scope: &mut dyn FnMut(&mut dyn HopPricer));
}

/// Exact-BFS pricing off [`Graph::hop_row`]. The model computes no row
/// itself: whoever carries a batch of legs warms the rows they read
/// (`Transport::carry`), and a row nobody warmed is one scalar BFS on
/// first use. Disconnected pairs are priced with the startup-measured
/// calibration (not a hardcoded detour).
pub struct BfsCostModel {
    calibration: f64,
}

impl BfsCostModel {
    pub fn new(calibration: f64) -> Self {
        BfsCostModel { calibration }
    }
}

impl Default for BfsCostModel {
    /// The conservative default detour factor.
    fn default() -> Self {
        BfsCostModel::new(DEFAULT_DETOUR)
    }
}

impl CostModel for BfsCostModel {
    fn with_pricer(&mut self, inputs: &CostInputs<'_>, scope: &mut dyn FnMut(&mut dyn HopPricer)) {
        let mut oracle = DistanceOracle::bfs(inputs.graph, inputs.positions, inputs.rtx)
            .with_fallback(self.calibration);
        scope(&mut oracle);
    }
}

/// Euclidean-proxy pricing with a fixed calibration factor (either
/// startup-measured or supplied by the config).
pub struct EuclideanCostModel {
    calibration: f64,
}

impl EuclideanCostModel {
    pub fn new(calibration: f64) -> Self {
        assert!(calibration > 0.0 && calibration.is_finite());
        EuclideanCostModel { calibration }
    }
}

impl CostModel for EuclideanCostModel {
    fn with_pricer(&mut self, inputs: &CostInputs<'_>, scope: &mut dyn FnMut(&mut dyn HopPricer)) {
        let mut oracle =
            DistanceOracle::euclidean(inputs.graph, inputs.positions, inputs.rtx, self.calibration);
        scope(&mut oracle);
    }
}

/// Pricer over a strict hierarchical routing table: walks
/// [`NextHopTable`] next hops and counts transmissions, falling back to
/// the Euclidean estimate scaled by `fallback` (the startup-measured
/// detour ratio, same as the BFS oracle's unreachable fallback) when no
/// table route exists. A walk is a few array reads per hop, cheaper than
/// any memo keyed by the pair, so nothing is cached.
struct HierPricer<'a> {
    table: &'a NextHopTable,
    positions: &'a [Point],
    rtx: f64,
    fallback: f64,
}

impl HopPricer for HierPricer<'_> {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
        match self.table.route_hops(a, b) {
            Some(h) => h as f64,
            None => {
                let d = self.positions[a as usize].dist(self.positions[b as usize]);
                (d / self.rtx * self.fallback).max(1.0)
            }
        }
    }
}

/// The paper's forwarding substrate as a cost model: each tick rebuilds
/// the hierarchy's per-node routing tables — `O(n · L · α · deg)`, see
/// [`NextHopTable::build`] — and prices pairs by the actual table-driven
/// walk, hierarchical stretch included. The table and its build scratch
/// are kept across ticks and refilled in place, so steady-state pricing
/// does not allocate.
pub struct HierRoutingCostModel {
    calibration: f64,
    table: NextHopTable,
}

impl HierRoutingCostModel {
    pub fn new(calibration: f64) -> Self {
        assert!(calibration > 0.0 && calibration.is_finite());
        HierRoutingCostModel {
            calibration,
            table: NextHopTable::default(),
        }
    }
}

impl Default for HierRoutingCostModel {
    /// Conservative default detour factor for unroutable pairs.
    fn default() -> Self {
        HierRoutingCostModel::new(DEFAULT_DETOUR)
    }
}

impl CostModel for HierRoutingCostModel {
    fn with_pricer(&mut self, inputs: &CostInputs<'_>, scope: &mut dyn FnMut(&mut dyn HopPricer)) {
        self.table.rebuild(inputs.hierarchy);
        scope(&mut HierPricer {
            table: &self.table,
            positions: inputs.positions,
            rtx: inputs.rtx,
            fallback: self.calibration,
        });
    }
}

/// The cost model dictated by `metric`; `calibration` is the
/// startup-measured detour ratio consumed by
/// [`HopMetric::EuclideanCalibrated`] and by the disconnected/unroutable
/// fallbacks of the BFS and hierarchical models. `_threads` is unread (no
/// model runs a pool) and kept, like [`CostInputs::sources`], for the
/// frozen `benchmark/` harness.
pub fn cost_model_for(metric: HopMetric, calibration: f64, _threads: usize) -> Box<dyn CostModel> {
    match metric {
        HopMetric::Bfs => Box::new(BfsCostModel::new(calibration)),
        HopMetric::EuclideanCalibrated => Box::new(EuclideanCostModel::new(calibration)),
        HopMetric::Euclidean(c) => Box::new(EuclideanCostModel::new(c)),
        HopMetric::HierRouting => Box::new(HierRoutingCostModel::new(calibration)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_cluster::HierarchyOptions;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::unit_disk::build_unit_disk;

    fn setup(n: usize, seed: u64) -> (Graph, Vec<Point>, f64, Hierarchy) {
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let mut rng = SimRng::seed_from(seed);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        let ids = rng.permutation(n);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        (g, pts, rtx, h)
    }

    fn price_all(
        model: &mut dyn CostModel,
        inputs: &CostInputs<'_>,
        pairs: &[(u32, u32)],
    ) -> Vec<f64> {
        let mut out = Vec::new();
        model.with_pricer(inputs, &mut |pricer| {
            out = pairs.iter().map(|&(a, b)| pricer.hops(a, b)).collect();
        });
        out
    }

    #[test]
    fn bfs_model_matches_oracle() {
        let (g, pts, rtx, h) = setup(150, 1);
        let inputs = CostInputs {
            graph: &g,
            positions: &pts,
            hierarchy: &h,
            rtx,
            sources: &[],
        };
        let pairs = [(0u32, 5u32), (7, 9), (3, 3), (10, 120)];
        let mut model = BfsCostModel::default();
        let priced = price_all(&mut model, &inputs, &pairs);
        let mut oracle = DistanceOracle::bfs(&g, &pts, rtx);
        for (&(a, b), &p) in pairs.iter().zip(&priced) {
            assert_eq!(p, oracle.hops(a, b));
        }
        // The model kept nothing: the three rows it priced from are on the
        // graph, which is where the oracle above found them.
        assert_eq!(g.hop_rows_cached(), 3);
    }

    #[test]
    fn euclidean_model_matches_oracle() {
        let (g, pts, rtx, h) = setup(100, 2);
        let inputs = CostInputs {
            graph: &g,
            positions: &pts,
            hierarchy: &h,
            rtx,
            sources: &[],
        };
        let mut model = EuclideanCostModel::new(1.2);
        let priced = price_all(&mut model, &inputs, &[(0, 40), (1, 1)]);
        let mut oracle = DistanceOracle::euclidean(&g, &pts, rtx, 1.2);
        assert_eq!(priced[0], oracle.hops(0, 40));
        assert_eq!(priced[1], 0.0);
    }

    /// Strict hierarchical routing can only ever lengthen a path: for every
    /// sampled pair the table-walk hop count must be ≥ the BFS shortest
    /// path (stretch ≥ 1).
    #[test]
    fn hier_routing_stretch_at_least_one() {
        let (g, pts, rtx, h) = setup(220, 3);
        let inputs = CostInputs {
            graph: &g,
            positions: &pts,
            hierarchy: &h,
            rtx,
            sources: &[],
        };
        let table = NextHopTable::build(&h);
        let mut rng = SimRng::seed_from(4);
        let mut pairs = Vec::new();
        while pairs.len() < 60 {
            let a = rng.index(220) as NodeIdx;
            let b = rng.index(220) as NodeIdx;
            // Only routable pairs: the fallback estimate is not a walk.
            if table.route_hops(a, b).is_some() {
                pairs.push((a, b));
            }
        }
        let mut hier = HierRoutingCostModel::default();
        let hier_hops = price_all(&mut hier, &inputs, &pairs);
        let mut bfs = BfsCostModel::default();
        let bfs_hops = price_all(&mut bfs, &inputs, &pairs);
        for ((&(a, b), &hh), &bh) in pairs.iter().zip(&hier_hops).zip(&bfs_hops) {
            assert!(
                hh >= bh,
                "hier routing undercut BFS: pair ({a},{b}) hier {hh} < bfs {bh}"
            );
            if a != b {
                assert!(hh / bh >= 1.0, "stretch < 1 for ({a},{b})");
            }
        }
    }

    /// Degenerate snapshots — empty, single node, a pair, edgeless, two
    /// components, a level-1 cluster with a member cut off after the
    /// election — price without panicking: 0 on the diagonal, a finite
    /// cost of at least one transmission elsewhere, on every reuse of the
    /// model's recycled table.
    #[test]
    fn hier_routing_prices_degenerate_snapshots() {
        let star = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)]);
        let mut cut_off = Hierarchy::build(&[9, 1, 2, 3, 4], &star, HierarchyOptions::default());
        cut_off.levels[0].graph.remove_edge(0, 1);
        let build = |g: Graph| {
            let ids: Vec<u64> = (0..g.node_count() as u64).rev().collect();
            Hierarchy::build(&ids, &g, HierarchyOptions::default())
        };
        let snapshots = [
            build(Graph::with_nodes(0)),
            build(Graph::with_nodes(1)),
            build(Graph::with_nodes(2)),
            build(Graph::from_edges(2, &[(0, 1)])),
            build(Graph::with_nodes(6)),
            build(Graph::from_edges(
                7,
                &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)],
            )),
            cut_off,
        ];
        let mut model = HierRoutingCostModel::default();
        for h in &snapshots {
            let n = h.node_count();
            let g = &h.levels[0].graph;
            let pts: Vec<Point> = (0..n).map(|v| Point::new(v as f64, 0.0)).collect();
            let inputs = CostInputs {
                graph: g,
                positions: &pts,
                hierarchy: h,
                rtx: 1.5,
                sources: &[],
            };
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|a| (0..n as u32).map(move |b| (a, b)))
                .collect();
            for (&(a, b), hops) in pairs.iter().zip(price_all(&mut model, &inputs, &pairs)) {
                if a == b {
                    assert_eq!(hops, 0.0);
                } else {
                    assert!(hops.is_finite() && hops >= 1.0, "n={n} ({a},{b}): {hops}");
                }
            }
        }
    }

    #[test]
    fn cost_model_for_dispatches() {
        let (g, pts, rtx, h) = setup(80, 5);
        let inputs = CostInputs {
            graph: &g,
            positions: &pts,
            hierarchy: &h,
            rtx,
            sources: &[],
        };
        let pairs = [(2u32, 40u32)];
        let a = price_all(
            &mut *cost_model_for(HopMetric::Euclidean(1.2), 9.9, 1),
            &inputs,
            &pairs,
        );
        let b = price_all(
            &mut *cost_model_for(HopMetric::EuclideanCalibrated, 1.2, 1),
            &inputs,
            &pairs,
        );
        assert_eq!(a, b);
        let c = price_all(
            &mut *cost_model_for(HopMetric::Bfs, 1.0, 2),
            &inputs,
            &pairs,
        );
        let d = price_all(
            &mut *cost_model_for(HopMetric::HierRouting, 1.0, 1),
            &inputs,
            &pairs,
        );
        assert!(c[0] >= 1.0, "BFS priced {}", c[0]);
        assert!(d[0] >= 1.0, "hier routing priced {}", d[0]);
        if NextHopTable::build(&h).route_hops(2, 40).is_some() {
            assert!(d[0] >= c[0], "hier routing {} undercut BFS {}", d[0], c[0]);
        }
    }
}
