//! Hop pricing: one cost model, one pricer.
//!
//! Everything the engine prices — handoff transfers, registrations, GLS
//! maintenance, query sampling — reduces to "how many packet
//! transmissions from node `a` to node `b`". [`Pricing`] is the one
//! [`CostModel`]: it holds the [`HopMetric`]'s rule, the calibration and
//! (under [`HopMetric::HierRouting`]) the routing table it refills each
//! tick, and lends the engine one [`Pricer`] scoped to one topology
//! snapshot. A pricer answers a pair in three steps:
//!
//! 1. `a == b` costs 0;
//! 2. otherwise the rule's exact count, when it has one: the BFS
//!    distance [`Graph::hops`]`(a, b)` under [`HopMetric::Bfs`] when `b`
//!    is reachable, the walk over [`NextHopTable`] under
//!    [`HopMetric::HierRouting`] when a table route exists, none under
//!    the Euclidean metrics;
//! 3. with no exact count, the one Euclidean estimate
//!    [`crate::oracle::euclidean_hops`] at the calibration (the
//!    startup-measured detour ratio, or `c` for [`HopMetric::Euclidean`]).
//!
//! The scoped-lend shape (`with_pricer` hands a `&mut dyn HopPricer` to a
//! closure) lets the model borrow the tick's graph/positions without
//! storing lifetimes in the engine. The model keeps and computes no
//! shortest-path distances: the BFS distances live on the `Graph` they
//! describe, where the packet transports of every bank find the same
//! ones, are warmed a batch of legs at a time by the transport that
//! carries them ([`crate::transport`], rule 4), and die with the graph's
//! next mutation.

use crate::config::HopMetric;
use crate::oracle::euclidean_hops;
use chlm_cluster::Hierarchy;
use chlm_geom::Point;
use chlm_graph::traversal::UNREACHABLE;
use chlm_graph::{Graph, NodeIdx};
use chlm_routing::nexthop::NextHopTable;

/// A hop-distance pricer over one topology snapshot. `hops(a, b)` is the
/// packet-transmission cost of moving one message from `a` to `b`;
/// `hops(a, a) == 0`.
pub trait HopPricer {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64;
}

/// Everything a cost model may need to build its per-tick pricer. All
/// references describe the *current* tick's snapshot.
pub struct CostInputs<'a> {
    pub graph: &'a Graph,
    pub positions: &'a [Point],
    pub hierarchy: &'a Hierarchy,
    pub rtx: f64,
    /// Unread: the model computes no rows ahead of pricing; the
    /// multiplexer warms every row a tick's legs read, once, before any
    /// bank prices (rule 4 of `crate::transport`).
    /// Kept, and passed `&[]`, because the frozen `benchmark/` harness
    /// constructs it; goes with `[benchmark]` v2 (ROADMAP).
    pub sources: &'a [NodeIdx],
}

/// A hop-cost model: owns whatever cross-tick state pricing needs and
/// lends a [`HopPricer`] scoped to one snapshot. [`Pricing`] is the one
/// implementation; the trait stays because the frozen `benchmark/`
/// harness names it.
pub trait CostModel {
    /// Build a pricer for `inputs` and hand it to `scope`.
    fn with_pricer(&mut self, inputs: &CostInputs<'_>, scope: &mut dyn FnMut(&mut dyn HopPricer));
}

/// The cost model of one [`HopMetric`]. Under
/// [`HopMetric::HierRouting`] each tick rebuilds the hierarchy's per-node
/// routing tables in place, so steady-state pricing does not allocate:
/// `O(n · L · α · deg)` with no whole-graph search, since a level-0 row
/// reads one-hop rings, a sibling gradient searches its parent cluster's
/// induced subgraph, and the top level, which no route reads, is not
/// stored (see [`NextHopTable::build`]). The other metrics keep no state
/// but the calibration.
pub struct Pricing {
    metric: HopMetric,
    calibration: f64,
    table: NextHopTable,
}

impl Pricing {
    /// The model for `metric`. `calibration` is the startup-measured
    /// detour ratio: it prices [`HopMetric::EuclideanCalibrated`] and the
    /// disconnected/unroutable pairs of the BFS and hierarchical rules;
    /// [`HopMetric::Euclidean`] carries its own.
    pub fn new(metric: HopMetric, calibration: f64) -> Self {
        let calibration = match metric {
            HopMetric::Euclidean(c) => c,
            HopMetric::Bfs | HopMetric::EuclideanCalibrated | HopMetric::HierRouting => calibration,
        };
        assert!(calibration > 0.0 && calibration.is_finite());
        Pricing {
            metric,
            calibration,
            table: NextHopTable::default(),
        }
    }

    /// The pricer over `inputs`' snapshot (refilling the routing table
    /// first under [`HopMetric::HierRouting`]).
    pub fn pricer<'a>(&'a mut self, inputs: &CostInputs<'a>) -> Pricer<'a> {
        if self.metric == HopMetric::HierRouting {
            self.table.rebuild(inputs.hierarchy);
        }
        Pricer {
            metric: self.metric,
            calibration: self.calibration,
            table: &self.table,
            graph: inputs.graph,
            positions: inputs.positions,
            rtx: inputs.rtx,
        }
    }
}

impl CostModel for Pricing {
    fn with_pricer(&mut self, inputs: &CostInputs<'_>, scope: &mut dyn FnMut(&mut dyn HopPricer)) {
        scope(&mut self.pricer(inputs));
    }
}

/// [`Pricing`]'s pricer over one snapshot; see the module docs for the
/// three steps of [`HopPricer::hops`].
pub struct Pricer<'a> {
    metric: HopMetric,
    calibration: f64,
    table: &'a NextHopTable,
    graph: &'a Graph,
    positions: &'a [Point],
    rtx: f64,
}

impl HopPricer for Pricer<'_> {
    fn hops(&mut self, a: NodeIdx, b: NodeIdx) -> f64 {
        if a == b {
            return 0.0;
        }
        let exact = match self.metric {
            HopMetric::Bfs => Some(self.graph.hops(a, b)).filter(|&h| h != UNREACHABLE),
            HopMetric::HierRouting => self.table.route_hops(a, b),
            HopMetric::EuclideanCalibrated | HopMetric::Euclidean(_) => None,
        };
        match exact {
            Some(h) => h as f64,
            None => euclidean_hops(
                self.positions[a as usize],
                self.positions[b as usize],
                self.rtx,
                self.calibration,
            ),
        }
    }
}

/// [`Pricing::new`] boxed, for the frozen `benchmark/` harness, which
/// names this function. `_threads` is unread (no model runs a pool) and
/// kept, like [`CostInputs::sources`], for that harness.
pub fn cost_model_for(metric: HopMetric, calibration: f64, _threads: usize) -> Box<dyn CostModel> {
    Box::new(Pricing::new(metric, calibration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DEFAULT_DETOUR;
    use chlm_cluster::HierarchyOptions;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::traversal::bfs_distances;
    use chlm_graph::unit_disk::build_unit_disk;
    use proptest::prelude::*;

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

    fn inputs<'a>(g: &'a Graph, pts: &'a [Point], rtx: f64, h: &'a Hierarchy) -> CostInputs<'a> {
        CostInputs {
            graph: g,
            positions: pts,
            hierarchy: h,
            rtx,
            sources: &[],
        }
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

    /// The boxed model the frozen harness builds prices BFS pairs off
    /// `bfs_distances`, and keeps nothing: the three rows it priced from
    /// are on the graph.
    #[test]
    fn bfs_model_matches_oracle() {
        let (g, pts, rtx, h) = setup(150, 1);
        let pairs = [(0u32, 5u32), (7, 9), (3, 3), (10, 120)];
        let priced = price_all(
            &mut *cost_model_for(HopMetric::Bfs, DEFAULT_DETOUR, 1),
            &inputs(&g, &pts, rtx, &h),
            &pairs,
        );
        for (&(a, b), &p) in pairs.iter().zip(&priced) {
            let want = if a == b {
                0.0
            } else {
                f64::from(bfs_distances(&g, a)[b as usize])
            };
            assert_eq!(p, want, "({a},{b})");
        }
        assert_eq!(g.hop_roots().count(), 3);
    }

    #[test]
    fn euclidean_model_matches_oracle() {
        let (g, pts, rtx, h) = setup(100, 2);
        let priced = price_all(
            &mut *cost_model_for(HopMetric::Euclidean(1.2), DEFAULT_DETOUR, 1),
            &inputs(&g, &pts, rtx, &h),
            &[(0, 40), (1, 1)],
        );
        assert_eq!(priced[0], euclidean_hops(pts[0], pts[40], rtx, 1.2));
        assert_eq!(priced[1], 0.0);
    }

    /// Strict hierarchical routing can only ever lengthen a path: for every
    /// sampled routable pair the table-walk hop count must be ≥ the BFS
    /// shortest path (stretch ≥ 1).
    #[test]
    fn hier_routing_stretch_at_least_one() {
        let (g, pts, rtx, h) = setup(220, 3);
        let inputs = inputs(&g, &pts, rtx, &h);
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
        let mut hier = Pricing::new(HopMetric::HierRouting, DEFAULT_DETOUR);
        let hier_hops = price_all(&mut hier, &inputs, &pairs);
        let mut bfs = Pricing::new(HopMetric::Bfs, DEFAULT_DETOUR);
        let bfs_hops = price_all(&mut bfs, &inputs, &pairs);
        for ((&(a, b), &hh), &bh) in pairs.iter().zip(&hier_hops).zip(&bfs_hops) {
            assert!(
                hh >= bh,
                "hier routing undercut BFS: pair ({a},{b}) hier {hh} < bfs {bh}"
            );
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
        let mut model = Pricing::new(HopMetric::HierRouting, DEFAULT_DETOUR);
        for h in &snapshots {
            let n = h.node_count();
            let pts: Vec<Point> = (0..n).map(|v| Point::new(v as f64, 0.0)).collect();
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|a| (0..n as u32).map(move |b| (a, b)))
                .collect();
            let inputs = inputs(&h.levels[0].graph, &pts, 1.5, h);
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
        let inputs = inputs(&g, &pts, rtx, &h);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The pricer against each rule's own reference, every pair of a
        /// random deployment (sparse radii leave it disconnected): the
        /// diagonal is 0 and reads no row; `Bfs` is `bfs_distances` where
        /// reachable; `HierRouting` is the table walk where one exists, and
        /// never under `Bfs` there; every other pair, and every pair of the
        /// Euclidean metrics, is the estimate at the metric's calibration;
        /// every off-diagonal price is finite and at least one hop. Only
        /// `Bfs` leaves rows on the graph.
        #[test]
        fn pricer_matches_each_rule_reference(
            seed in 0u64..10_000,
            n in 1usize..48,
            rtx in 0.4f64..2.5,
            calibration in 0.5f64..3.0,
            fixed in 0.5f64..3.0,
        ) {
            let mut rng = SimRng::seed_from(seed);
            let pts = chlm_geom::region::deploy_uniform(&Disk::centered(4.0), n, &mut rng);
            let g = build_unit_disk(&pts, rtx);
            let h = Hierarchy::build(&rng.permutation(n), &g, HierarchyOptions::default());
            let table = NextHopTable::build(&h);
            let rows: Vec<Vec<u32>> = (0..n as NodeIdx).map(|a| bfs_distances(&g, a)).collect();
            let estimate = |a: NodeIdx, b: NodeIdx, c: f64| {
                euclidean_hops(pts[a as usize], pts[b as usize], rtx, c)
            };
            let metrics = [
                HopMetric::Bfs,
                HopMetric::EuclideanCalibrated,
                HopMetric::Euclidean(fixed),
                HopMetric::HierRouting,
            ];
            for metric in metrics {
                // A clone starts with no rows, so every row counted below
                // is this metric's own.
                let cold = g.clone();
                let mut pricing = Pricing::new(metric, calibration);
                let mut pricer = pricing.pricer(&inputs(&cold, &pts, rtx, &h));
                for a in 0..n as NodeIdx {
                    prop_assert_eq!(pricer.hops(a, a), 0.0);
                }
                prop_assert_eq!(cold.hop_roots().count(), 0);
                for a in 0..n as NodeIdx {
                    for b in (0..n as NodeIdx).filter(|&b| b != a) {
                        let got = pricer.hops(a, b);
                        let bfs = rows[a as usize][b as usize];
                        let want = match metric {
                            HopMetric::Bfs if bfs != UNREACHABLE => f64::from(bfs),
                            HopMetric::Bfs | HopMetric::EuclideanCalibrated => {
                                estimate(a, b, calibration)
                            }
                            HopMetric::Euclidean(c) => estimate(a, b, c),
                            HopMetric::HierRouting => match table.route_hops(a, b) {
                                Some(walk) => {
                                    prop_assert!(walk >= bfs, "({}, {}) walk {} < bfs {}", a, b, walk, bfs);
                                    f64::from(walk)
                                }
                                None => estimate(a, b, calibration),
                            },
                        };
                        prop_assert_eq!(got, want, "{:?} ({}, {})", metric, a, b);
                        prop_assert!(got.is_finite() && got >= 1.0, "{:?} ({}, {}): {}", metric, a, b, got);
                    }
                }
                // Every source but the last searched once: by then each of
                // its pairs was answered from the other end.
                let want_rows = if metric == HopMetric::Bfs && n > 1 { n - 1 } else { 0 };
                prop_assert_eq!(cold.hop_roots().count(), want_rows, "{:?}", metric);
            }
        }
    }
}
