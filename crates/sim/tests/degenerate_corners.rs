//! Degenerate worlds through a *running* engine (ROADMAP aim 3b).
//!
//! Every scheme on the packet backend with BFS pricing and lookups on, at
//! n ∈ {1, 2, 3, 5}, each at the default degree and at a transmission
//! radius so small (target degree 0.05) that a node is almost always its
//! own component, on lossless links and on links that lose 90 % of
//! transmissions with no retry: the run must not panic, and its books must
//! balance — lookups partition into resolved and unresolved, every sent
//! packet is delivered, dropped or lost (lost only on the lossy links, and
//! there on both planes somewhere in the loop), what the ledgers booked is
//! what the networks transmitted, and the ledger saw the same node-seconds
//! as the rate counters.
//!
//! And every scheme on both backends with all n ∈ {2, 5, 40} nodes on one
//! point: a complete graph, one cluster, depth 2 — the LM walk has no
//! entry level at all.

use chlm_geom::Point;
use chlm_mobility::StaticModel;
use chlm_sim::cost::HopPricer;
use chlm_sim::observe::Observer;
use chlm_sim::stage::{default_stages, TickCtx};
use chlm_sim::{Backend, HopMetric, LmScheme, LossSpec, SimConfig, Simulation};

#[test]
fn tiny_and_partitioned_packet_worlds_keep_their_books() {
    // Retries exhausted: every failed hop abandons its packet.
    let lossy = LossSpec {
        prob: 0.9,
        max_retries: 0,
        seed: 5,
    };
    // Packets lost on (update, query) planes over the lossy cells.
    let mut lost = [0u64; 2];
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for n in [1usize, 2, 3, 5] {
            for degree in [9.0, 0.05] {
                for loss in [None, Some(lossy)] {
                    let cell = format!("{scheme:?} n={n} degree={degree} loss={loss:?}");
                    let cfg = SimConfig::builder(n)
                        .target_degree(degree)
                        .duration(2.0)
                        .warmup(0.5)
                        .seed(17)
                        .query_rate(3.0)
                        .lm_scheme(scheme)
                        .hop_metric(HopMetric::Bfs)
                        .backend(Backend::Packet {
                            hop_delay: Backend::DEFAULT_HOP_DELAY,
                            loss,
                        })
                        .build();
                    let ticks = cfg.tick_count();
                    let mut sim = Simulation::new(cfg);
                    for _ in 0..ticks {
                        sim.step();
                    }
                    let observers = sim.observers();
                    let update = observers
                        .handoff
                        .packet_totals()
                        .expect("packet backend")
                        .net;
                    let lookup = observers
                        .query
                        .as_ref()
                        .and_then(|q| q.query_net())
                        .expect("query plane on");
                    let report = sim.finish();

                    for (i, (plane, net)) in [("update", update), ("query", lookup)]
                        .into_iter()
                        .enumerate()
                    {
                        assert_eq!(
                            net.sent,
                            net.delivered + net.dropped + net.lost,
                            "{cell}: {plane} plane leaked a packet"
                        );
                        if loss.is_none() {
                            assert_eq!(net.lost, 0, "{cell}: lossless {plane} plane lost a packet");
                        }
                        lost[i] += net.lost;
                    }

                    let q = report.query.as_ref().expect("query plane on");
                    assert_eq!(q.arrivals, q.resolved + q.unresolved, "{cell}");
                    assert_eq!(q.total_packets(), lookup.transmissions as f64, "{cell}");
                    let booked: f64 = report
                        .ledger
                        .per_level
                        .iter()
                        .map(|level| level.total_packets())
                        .sum();
                    assert_eq!(booked, update.transmissions as f64, "{cell}");
                    assert_eq!(
                        report.ledger.node_seconds.to_bits(),
                        report.rates.node_seconds.to_bits(),
                        "{cell}: ledger and rates disagree on exposure"
                    );
                    assert!(report.ledger.node_seconds > 0.0, "{cell}");

                    // An empty ledger reports +0.0, not the `-0` the summing
                    // identity used to leak into every printed report.
                    let overhead = report.total_overhead();
                    assert!(
                        overhead.is_finite() && overhead.is_sign_positive(),
                        "{cell}: overhead {overhead:?}"
                    );
                }
            }
        }
    }
    assert!(
        lost.iter().all(|&l| l > 0),
        "the lossy links lost no packet on some plane: (update, query) = {lost:?}"
    );
}

/// Fails the tick that carries an LM entry or a host change.
struct NoEntries;

impl Observer for NoEntries {
    fn on_tick(&mut self, ctx: &TickCtx<'_>, _pricer: &mut dyn HopPricer) {
        assert_eq!(ctx.new_assignment.entry_count(), 0);
        assert!(ctx.host_changes.is_empty());
    }
}

#[test]
fn coincident_nodes_have_no_entry_level() {
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for backend in [Backend::Analytic, Backend::packet()] {
            for n in [2usize, 5, 40] {
                let cell = format!("{scheme:?} {backend:?} n={n}");
                let cfg = SimConfig::builder(n)
                    .duration(2.0)
                    .warmup(0.5)
                    .seed(17)
                    .query_rate(3.0)
                    .lm_scheme(scheme)
                    .hop_metric(HopMetric::Bfs)
                    .backend(backend)
                    .build();
                let ticks = cfg.tick_count();
                // The production stages over a world that ignores the
                // deployment and stands everyone on the origin.
                let mut sim = Simulation::with_stages(cfg, |cfg, _deployed| {
                    let origin = Point { x: 0.0, y: 0.0 };
                    default_stages(cfg, Box::new(StaticModel::new(vec![origin; cfg.n])))
                });
                sim.add_observer(Box::new(NoEntries));
                for _ in 0..ticks {
                    sim.step();
                }
                let h = sim.hierarchy();
                assert_eq!(h.depth(), 2, "{cell}");
                assert_eq!(h.levels[0].graph.edge_count(), n * (n - 1) / 2, "{cell}");
                let report = sim.finish();

                let q = report.query.as_ref().expect("query plane on");
                assert!(q.arrivals > 0, "{cell}");
                assert_eq!(q.arrivals, q.resolved + q.unresolved, "{cell}");
                let lookup_overhead = q.overhead_per_node_per_second();
                assert!(
                    lookup_overhead.is_finite() && lookup_overhead.is_sign_positive(),
                    "{cell}: lookup overhead {lookup_overhead:?}"
                );
                assert_eq!(
                    report.total_overhead().to_bits(),
                    0.0f64.to_bits(),
                    "{cell}: handoff overhead in a world where nothing moves"
                );
            }
        }
    }
}
