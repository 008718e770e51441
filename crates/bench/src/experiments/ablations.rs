//! Comparisons and ablations on mobile worlds: CHLM against GLS, LCA
//! against max-min clustering, and one mobility model against another.

use crate::{
    banner, env_usize, mean_of, replications, scaling_sizes, standard_config, standard_runs,
    threads, top_rung, CLAIMS_SEED, MIN_N,
};
use chlm_analysis::table::{fnum, TextTable};
use chlm_cluster::maxmin::MaxMinHierarchy;
use chlm_graph::NodeIdx;
use chlm_sim::runner::seed_range;
use chlm_sim::{
    run_cells, run_grid, LmScheme, MobilityKind, SimConfig, SimReport, Simulation, VariantSpec,
};
use std::collections::BTreeSet;

/// E13 (§3.1 vs §3.2): CHLM against the GLS baseline it adapts.
///
/// One world per (n, seed) of the claims sweep, two LM systems priced
/// against it as observer banks: CHLM's handoff overhead (φ + γ) versus
/// the GLS scheme's maintenance overhead (distance-triggered updates +
/// server-churn transfers), plus each bank's query cost over the same
/// lookup arrivals, read from its query book. Neither the query plane nor
/// the GLS bank touches the CHLM bank's ledger, so its column is E12's
/// total at every shared size.
pub(crate) fn exp_chlm_vs_gls() {
    let sizes = scaling_sizes(MIN_N, top_rung(1024));
    banner(
        "E13 / §3",
        "CHLM vs GLS LM maintenance overhead",
        &sizes,
        standard_runs(),
    );
    let cells: Vec<SimConfig> = sizes
        .iter()
        .map(|&n| {
            let mut cfg = standard_config(n);
            cfg.query_rate = 1.0;
            cfg
        })
        .collect();
    let variants: Vec<VariantSpec> = [("chlm", LmScheme::Chlm), ("gls", LmScheme::Gls)]
        .into_iter()
        .map(|(name, scheme)| VariantSpec::new(name, scheme, cells[0].hop_metric, cells[0].backend))
        .collect();
    // grid[size][bank] = that bank's replications; bank 0 = chlm, 1 = gls.
    let seeds = seed_range(CLAIMS_SEED, replications());
    let grid = run_grid(&cells, &seeds, &variants, threads());
    let query_cost = |r: &SimReport| -> f64 {
        r.query
            .as_ref()
            .and_then(|q| q.mean_packets_per_lookup())
            .unwrap_or(0.0)
    };

    let mut t = TextTable::new(vec![
        "n",
        "chlm (pkt/node/s)",
        "gls (pkt/node/s)",
        "gls/chlm",
        "chlm query (pkts)",
        "gls query (pkts)",
    ]);
    for (&n, banks) in sizes.iter().zip(&grid) {
        let chlm = mean_of(&banks[0], SimReport::total_overhead);
        let gls = mean_of(&banks[1], SimReport::total_overhead);
        t.row(vec![
            format!("{n}"),
            fnum(chlm),
            fnum(gls),
            fnum(gls / chlm.max(1e-12)),
            fnum(mean_of(&banks[0], query_cost)),
            fnum(mean_of(&banks[1], query_cost)),
        ]);
    }
    println!("{}", t.render());
    println!("notes:");
    println!("- both systems priced in packet transmissions (entries x hops);");
    println!("- GLS (the `LmScheme::Gls` bank, HRW-selected servers) charges");
    println!("  distance-triggered updates (feature (c)) plus server churn");
    println!("  transfers; CHLM charges handoff (phi + gamma); both banks price");
    println!("  the same world trace per (n, seed);");
    println!("- query: mean packets per resolved lookup at 1 lookup/node/s, both");
    println!("  banks over the same arrivals (request to the server + reply);");
    println!("- comparable magnitudes at matched mobility support §3.2's argument");
    println!("  that CHLM achieves GLS-like LM economics on a clustered hierarchy.");
}

/// One clustering's level-1 head set over a run: its size and the depth
/// of its hierarchy summed over ticks, and the head churn between ticks.
#[derive(Default)]
struct Churn {
    heads_sum: f64,
    depth_sum: f64,
    churn_events: u64,
    snapshots: u64,
    prev: Option<BTreeSet<NodeIdx>>,
}

impl Churn {
    /// Count one tick's head set and hierarchy depth (levels counting
    /// level 0).
    fn observe(&mut self, heads: BTreeSet<NodeIdx>, depth: usize) {
        self.heads_sum += heads.len() as f64;
        self.depth_sum += (depth - 1) as f64;
        if let Some(prev) = &self.prev {
            self.churn_events += prev.symmetric_difference(&heads).count() as u64;
        }
        self.prev = Some(heads);
        self.snapshots += 1;
    }
}

/// E15 (§2.2 ablation): LCA vs max-min d-hop clustering.
///
/// Same mobility stream, two clustering substrates: the engine's world
/// (its topology and LCA hierarchy), and max-min d-hop elections run on
/// that hierarchy's level-0 graph and ids each tick. Max-min with `d = 2`
/// elects fewer, farther-spaced heads (larger arity, shallower hierarchy);
/// the LCA (= max-min with d = 1, per §2.2) churns its head set faster per
/// tick but each election affects a smaller neighborhood. We compare
/// head-set size, depth, and head churn per node per second.
pub(crate) fn exp_cluster_ablation() {
    let n = top_rung(512);
    let mut cfg = standard_config(n);
    cfg.seed = 15_000;
    banner(
        "E15 / §2.2",
        "clustering ablation: LCA vs max-min d-hop",
        &[n],
        Some((1, cfg.duration)),
    );
    let (dt, ticks) = (cfg.tick(), cfg.tick_count());
    let mut sim = Simulation::new(cfg);
    // LCA, max-min d = 2, max-min d = 3.
    let mut churn: [Churn; 3] = Default::default();
    for _ in 0..ticks {
        sim.step();
        let h = sim.hierarchy();
        let lca_heads = h.levels[0].heads().map(|(_, v)| v).collect();
        churn[0].observe(lca_heads, h.depth());
        for (c, d) in churn[1..].iter_mut().zip([2, 3]) {
            let mh = MaxMinHierarchy::build(&h.ids, &h.levels[0].graph, d, usize::MAX);
            c.observe(mh.head_set().into_iter().collect(), mh.depth());
        }
    }

    let node_seconds = n as f64 * dt * ticks as f64;
    let mut t = TextTable::new(vec![
        "algorithm",
        "mean level-1 heads",
        "mean arity",
        "mean depth L",
        "head churn /node/s",
    ]);
    for (name, c) in ["LCA (d=1)", "max-min d=2", "max-min d=3"]
        .iter()
        .zip(&churn)
    {
        let mean_heads = c.heads_sum / c.snapshots as f64;
        t.row(vec![
            name.to_string(),
            fnum(mean_heads),
            fnum(n as f64 / mean_heads),
            fnum(c.depth_sum / c.snapshots as f64),
            fnum(c.churn_events as f64 / node_seconds),
        ]);
    }
    println!("{}", t.render());
    println!("n = {n}, {ticks} ticks of {dt:.3} s; churn counts level-1 head set");
    println!("symmetric difference per tick, normalized per node-second.");
}

/// E16 (§1.2 ablation): mobility-model sensitivity.
///
/// The paper's bounds rest only on fixed density and speed μ, not on the
/// specifics of random waypoint. We run the same network under four
/// mobility processes at identical nominal speed and compare f₀, φ, γ.
/// Group mobility (RPGM, the HSR motivation \[11\]) should show markedly
/// lower reorganization overhead. The random walk is random direction at
/// a mean heading epoch of `WALK_EPOCH` = 0.04 s: maximal direction churn,
/// but diffusive, so it moves nodes apart more slowly than the 20 s
/// epochs of the "direction" row.
pub(crate) fn exp_mobility_ablation() {
    let n = env_usize("CHLM_MOBILITY_N", 512, 1);
    banner("E16 / §1.2", "mobility ablation", &[n], standard_runs());
    let kinds: Vec<(&str, MobilityKind)> = vec![
        ("waypoint", MobilityKind::Waypoint),
        ("direction", MobilityKind::Direction { mean_epoch: 20.0 }),
        ("walk", MobilityKind::walk()),
        (
            "rpgm",
            MobilityKind::Rpgm {
                groups: (n / 32).max(1),
                group_radius: 4.0,
                jitter_radius: 0.8,
                jitter_speed: 0.5,
            },
        ),
    ];

    let mut t = TextTable::new(vec![
        "mobility",
        "f0",
        "phi",
        "gamma",
        "total",
        "events/node/s",
    ]);
    // One cell per mobility process, every cell on the same seeds.
    let cells: Vec<SimConfig> = kinds
        .iter()
        .map(|&(_, kind)| {
            let mut cfg = standard_config(n);
            cfg.mobility = kind;
            cfg
        })
        .collect();
    let reports = run_cells(&cells, &seed_range(16_000, replications()), threads());
    for ((name, _), rs) in kinds.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            fnum(mean_of(rs, |r| r.f0)),
            fnum(mean_of(rs, |r| r.phi_total())),
            fnum(mean_of(rs, |r| r.gamma_total())),
            fnum(mean_of(rs, |r| r.total_overhead())),
            fnum(mean_of(rs, |r| {
                r.events.grand_total() as f64 / r.rates.node_seconds.max(1e-12)
            })),
        ]);
    }
    println!("{}", t.render());
    println!("expected ordering: rpgm << waypoint < walk, direction in overhead;");
    println!("the Θ-claims are about scaling, but constants track link volatility.");
}
