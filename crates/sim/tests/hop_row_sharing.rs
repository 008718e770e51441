//! One shortest-path row per root per snapshot, whoever asks.
//!
//! The BFS pricer (`DistanceOracle`) and every packet network
//! (`chlm_proto::PacketNetwork`) keep no rows of their own: they read
//! `Graph::hop_row`, the memo on the snapshot they were all handed. These
//! tests pin the sharing itself — the values are pinned everywhere else
//! (`parity`, `query_parity`, `multiplex_equivalence`, the goldens).

use std::cell::RefCell;
use std::rc::Rc;

use chlm_geom::region::deploy_uniform;
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_proto::message::{LmMessage, Packet};
use chlm_proto::network::PacketNetwork;
use chlm_sim::oracle::DistanceOracle;
use chlm_sim::{
    Backend, HopMetric, HopPricer, LmScheme, MultiplexSim, Observer, SimConfig, TickCtx,
    VariantSpec,
};

/// After the BFS oracle prices `(a, x)` and two separate packet networks
/// over the same `&Graph` each deliver a packet *to* `a`, the graph holds
/// exactly one row — `a`'s — and the executed transmissions are its
/// entries. (At the parent of the PR that introduced the memo each of the
/// three kept a private copy.)
#[test]
fn pricer_and_packet_networks_share_one_row() {
    let n = 80;
    let density = 1.25;
    let rtx = chlm_geom::rtx_for_degree(12.0, density);
    let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
    let pts = deploy_uniform(&region, n, &mut SimRng::seed_from(9));
    let g = build_unit_disk(&pts, rtx);
    let (a, x, y) = (7u32, 31u32, 64u32);

    let mut oracle = DistanceOracle::bfs(&g, &pts, rtx);
    let priced = [oracle.hops(a, x), oracle.hops(a, y)];
    assert_eq!(g.hop_rows_cached(), 1);

    for (src, price) in [x, y].into_iter().zip(priced) {
        let mut net = PacketNetwork::new(&g, 0.001);
        net.send(Packet {
            src,
            dst: a,
            msg: LmMessage::Query {
                requester: src,
                target: a,
            },
            sent_at: 0.0,
        });
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

/// The six-bank E27 fan-out (3 schemes × {analytic, packet}, BFS pricing,
/// lookups on) leaves at most one row per node on the tick's graph: the
/// three pricer scopes and the 6 × 8 per-shard networks of a tick all
/// filled the same memo. Before it, the same tick derived 5.4 rows per
/// node, each in a private map.
#[test]
fn six_bank_fan_out_keeps_at_most_one_row_per_node() {
    let n = 128;
    let base = SimConfig::builder(n)
        .target_degree(12.0)
        .duration(2.0)
        .warmup(0.5)
        .seed(5)
        .query_rate(2.0)
        .hop_metric(HopMetric::Bfs)
        .build();
    let mut variants = Vec::new();
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for backend in [Backend::Analytic, Backend::packet()] {
            variants.push(VariantSpec::new(
                format!("{scheme:?}/{backend:?}"),
                scheme,
                HopMetric::Bfs,
                backend,
            ));
        }
    }
    let mut mx = MultiplexSim::new(&base, &variants);
    let seen = Rc::new(RefCell::new(Vec::new()));
    mx.add_observer(variants.len() - 1, Box::new(RowCount { out: seen.clone() }));
    for _ in 0..base.tick_count() {
        mx.step();
    }
    let _ = mx.finish();
    let seen = seen.borrow();
    assert_eq!(seen.len(), base.tick_count());
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
