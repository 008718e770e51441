//! One shortest-path row per root per snapshot, whoever asks.
//!
//! The BFS pricer (`Pricer` under `HopMetric::Bfs`) and every packet
//! network (`chlm_proto::PacketNetwork`) keep no rows of their own: they
//! read `Graph::hop_row`, the memo on the snapshot they were all handed. These
//! tests pin the sharing itself — the values are pinned everywhere else
//! (`parity`, `query_parity`, `multiplex_equivalence`, the goldens) — and
//! who asks: inside a tick rows are warmed by `Transport::carry`, a batch
//! of legs at a time (`Graph::fill_hop_rows`), only under BFS pricing or
//! packet execution, and identically at every pool width. CI reruns this
//! file under `CHLM_SHUFFLE_MERGE=1`, which puts the multi-threaded sides
//! of the comparisons below under an adversarial claim order.

use std::cell::RefCell;
use std::rc::Rc;

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::region::deploy_uniform;
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_proto::message::{LmMessage, Packet};
use chlm_proto::network::PacketNetwork;
use chlm_sim::cost::{CostInputs, Pricing};
use chlm_sim::oracle::DEFAULT_DETOUR;
use chlm_sim::{
    Backend, HopMetric, HopPricer, LmScheme, MultiplexSim, Observer, SimConfig, SimReport, TickCtx,
    VariantSpec,
};

/// After the BFS pricer prices `(a, x)` and `(a, y)` and two separate
/// packet networks handed the same `&Graph` each deliver a packet *from*
/// `a`, the graph holds exactly one row — `a`'s — and the executed
/// transmissions are its entries. (At the parent of the PR that introduced
/// the memo each of the three kept a private copy; until packets read
/// `hop_row(src)[dst]`, a packet to `x` also filled `x`'s row.)
#[test]
fn pricer_and_packet_networks_share_one_row() {
    let n = 80;
    let density = 1.25;
    let rtx = chlm_geom::rtx_for_degree(12.0, density);
    let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
    let pts = deploy_uniform(&region, n, &mut SimRng::seed_from(9));
    let g = build_unit_disk(&pts, rtx);
    let (a, x, y) = (7u32, 31u32, 64u32);

    let ids: Vec<u64> = (0..n as u64).collect();
    let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
    let mut pricing = Pricing::new(HopMetric::Bfs, DEFAULT_DETOUR);
    let mut pricer = pricing.pricer(&CostInputs {
        graph: &g,
        positions: &pts,
        hierarchy: &h,
        rtx,
        sources: &[],
    });
    let priced = [pricer.hops(a, x), pricer.hops(a, y)];
    assert_eq!(g.hop_rows_cached(), 1);

    for (dst, price) in [x, y].into_iter().zip(priced) {
        let mut net = PacketNetwork::new(0.001);
        net.send(
            &g,
            Packet {
                src: a,
                dst,
                msg: LmMessage::Query {
                    requester: a,
                    target: dst,
                },
                sent_at: 0.0,
            },
        );
        let stats = net.run();
        assert_eq!(stats.delivered, 1, "fixture must be connected");
        assert_eq!(stats.transmissions as f64, price);
        assert_eq!(g.hop_rows_cached(), 1, "a network derived a row of its own");
    }
}

/// Reads the snapshot's memo after its bank — and so, placed on the last
/// bank, after every bank — has accounted the tick.
struct RowCount {
    out: Rc<RefCell<Vec<(usize, usize)>>>,
}

impl Observer for RowCount {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        self.out
            .borrow_mut()
            .push((ctx.graph.hop_rows_cached(), ctx.query_arrivals.len()));
    }
}

/// 3 schemes × `backends`, all pricing with `metric`.
fn fan_out(metric: HopMetric, backends: &[Backend]) -> Vec<VariantSpec> {
    let mut variants = Vec::new();
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for &backend in backends {
            variants.push(VariantSpec::new(
                format!("{scheme:?}/{backend:?}"),
                scheme,
                metric,
                backend,
            ));
        }
    }
    variants
}

/// The E27-shaped world the fan-outs below run over: lookups on, degree 12.
fn e27_world(n: usize, threads: usize) -> SimConfig {
    SimConfig::builder(n)
        .target_degree(12.0)
        .duration(2.0)
        .warmup(0.5)
        .seed(5)
        .query_rate(2.0)
        .hop_metric(HopMetric::Bfs)
        .threads(threads)
        .build()
}

/// Run `variants` over `base`'s world; per tick, what [`RowCount`] read
/// after the last bank, and the banks' reports.
fn run_counting_rows(
    base: &SimConfig,
    variants: &[VariantSpec],
) -> (Vec<(usize, usize)>, Vec<SimReport>) {
    let mut mx = MultiplexSim::new(base, variants);
    let seen = Rc::new(RefCell::new(Vec::new()));
    mx.add_observer(variants.len() - 1, Box::new(RowCount { out: seen.clone() }));
    for _ in 0..base.tick_count() {
        mx.step();
    }
    let reports = mx.finish();
    let seen = seen.borrow().clone();
    assert_eq!(seen.len(), base.tick_count());
    (seen, reports)
}

/// The six-bank E27 fan-out (3 schemes × {analytic, packet}, BFS pricing,
/// lookups on) leaves at most one row per node on the tick's graph: the
/// three pricer scopes and the 6 × 8 per-shard networks of a tick all
/// filled the same memo. Before it, the same tick derived 5.4 rows per
/// node, each in a private map.
#[test]
fn six_bank_fan_out_keeps_at_most_one_row_per_node() {
    let n = 128;
    let base = e27_world(n, 1);
    let variants = fan_out(HopMetric::Bfs, &[Backend::Analytic, Backend::packet()]);
    let (seen, _) = run_counting_rows(&base, &variants);
    for (tick, &(rows, lookups)) in seen.iter().enumerate() {
        assert!(rows <= n, "tick {tick}: {rows} rows for {n} nodes");
        // Every lookup is priced or executed by some bank, so a tick with
        // lookups cannot leave the shared memo empty.
        assert!(
            lookups == 0 || rows > 0,
            "tick {tick}: nobody used the memo"
        );
    }
    assert!(
        seen.iter().any(|&(rows, _)| rows > 0),
        "no tick used BFS rows"
    );
}

/// Which rows a tick computes is decided by its legs, not by how they were
/// batched or who ran the batches: the same six banks at 1, 2 and 8
/// threads leave the same number of rows behind every tick — exactly the
/// roots some leg read, no row the 64-lane kernel happened to have in a
/// word — and the same six reports.
#[test]
fn six_bank_fan_out_fills_the_same_rows_at_every_pool_width() {
    let variants = fan_out(HopMetric::Bfs, &[Backend::Analytic, Backend::packet()]);
    let (serial_rows, serial_reports) = run_counting_rows(&e27_world(160, 1), &variants);
    assert!(serial_rows.iter().any(|&(rows, _)| rows > 64));
    for threads in [2, 8] {
        let (rows, reports) = run_counting_rows(&e27_world(160, threads), &variants);
        assert_eq!(rows, serial_rows, "threads {threads}");
        assert_eq!(reports, serial_reports, "threads {threads}");
    }
}

/// Packet banks read the rows analytic banks over the same legs read
/// (`hop_row(src)`, rule 4 of `transport.rs`), so adding the three packet
/// banks to the E27-shaped fan-out leaves the memo exactly as full, tick
/// for tick, as the three analytic banks alone do.
#[test]
fn packet_banks_fill_no_row_of_their_own() {
    let base = e27_world(160, 1);
    let (analytic, _) = run_counting_rows(&base, &fan_out(HopMetric::Bfs, &[Backend::Analytic]));
    assert!(analytic.iter().any(|&(rows, _)| rows > 0));
    let (both, _) = run_counting_rows(
        &base,
        &fan_out(HopMetric::Bfs, &[Backend::Analytic, Backend::packet()]),
    );
    assert_eq!(both, analytic);
}

/// Under Euclidean or table-driven pricing an analytic transport has no
/// use for shortest-path rows, and its `carry` asks the graph for none —
/// on the 65k-node worlds that is what keeps the row store out of the
/// tick altogether.
#[test]
fn euclidean_and_hier_analytic_banks_ask_for_no_row() {
    let base = e27_world(128, 2);
    for metric in [HopMetric::EuclideanCalibrated, HopMetric::HierRouting] {
        let (seen, reports) = run_counting_rows(&base, &fan_out(metric, &[Backend::Analytic]));
        assert!(reports.iter().all(|r| r.total_overhead() > 0.0));
        assert!(seen.iter().any(|&(_, lookups)| lookups > 0));
        for (tick, &(rows, _)) in seen.iter().enumerate() {
            assert_eq!(rows, 0, "{metric:?}, tick {tick}");
        }
    }
}
