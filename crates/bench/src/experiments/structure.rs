//! Experiments on static snapshots: uniform deployments, their LCA
//! hierarchies, and what a hierarchy implies for location servers, routing
//! state, node churn and the distributed election.

use crate::{
    banner, mean, print_fits, replications, standard_rtx, sweep_sizes, Deployment, MetricSeries,
    DENSITY,
};
use chlm_analysis::regression::{relative_spread, ModelClass};
use chlm_analysis::stats::{percentile, Summary};
use chlm_analysis::table::{fnum, TextTable};
use chlm_cluster::HierarchyOptions;
use chlm_geom::{Rect, SimRng};
use chlm_graph::traversal::hop_distance;
use chlm_graph::NodeIdx;
use chlm_lm::churn::churn_cost;
use chlm_lm::gls::{GlsAssignment, GridHierarchy, NO_SERVER};
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_proto::dalca::Dalca;
use chlm_routing::forward::mean_stretch;
use chlm_routing::nexthop::NextHopTable;
use chlm_routing::tables::compare_tables;

/// E2 at one size: the band table, server load and the unambiguity check.
fn gls_grid_at(n: usize) {
    let side = (n as f64 / DENSITY).sqrt(); // fixed density square
    let bounds = Rect::square(side);
    let rtx = standard_rtx();
    let mut rng = SimRng::seed_from(2000 + n as u64);
    let pts = chlm_geom::region::deploy_uniform(&bounds, n, &mut rng);
    let ids: Vec<u64> = rng.permutation(n);
    let grid = GridHierarchy::covering(bounds, rtx * 2.0);
    let a = GlsAssignment::compute(&grid, &pts, &ids);

    println!(
        "--- n = {n}: grid orders = {}, order-1 side = {:.2} ---",
        grid.orders,
        grid.side(1)
    );
    let mut t = TextTable::new(vec!["band", "order", "servers", "mean_dist", "square_side"]);
    for band in 0..a.band_count() {
        let mut total = 0.0;
        let mut count = 0usize;
        for v in 0..n as u32 {
            for &s in a.servers(v, band) {
                if s != NO_SERVER {
                    total += pts[v as usize].dist(pts[s as usize]);
                    count += 1;
                }
            }
        }
        t.row(vec![
            format!("{band}"),
            format!("{}", band + 2),
            format!("{count}"),
            fnum(if count > 0 { total / count as f64 } else { 0.0 }),
            fnum(grid.side(band + 1)),
        ]);
    }
    println!("{}", t.render());

    // Server-load balance (feature of eq. (5) in its native habitat).
    let loads = a.entries_hosted();
    let mean = mean(loads.iter().map(|&c| c as f64));
    let max = *loads.iter().max().unwrap() as f64;
    println!(
        "server load: mean = {mean:.2}, max = {max}, max/mean = {:.2}\n",
        max / mean
    );

    // Unambiguity: recomputation yields the identical table.
    let b = GlsAssignment::compute(&grid, &pts, &ids);
    assert_eq!(a, b);
    println!("selection unambiguous: recomputation identical = true\n");
}

/// E2 (paper Fig. 2): the GLS grid hierarchy.
///
/// Reproduces the structural features §3.1 lists: (a) unambiguous ID-based
/// server selection, (b) server density high near the node and low far away
/// (mean server distance grows geometrically per band), and the resulting
/// balanced server load (eq. 5 works in GLS because every square holds an
/// arbitrary ID mix).
pub(crate) fn exp_fig2_gls() {
    let sizes = [256, 1024];
    banner(
        "E2 / Fig. 2",
        "GLS grid hierarchy: server geometry and load",
        &sizes,
        None,
    );
    for n in sizes {
        gls_grid_at(n);
    }
}

fn gini(loads: &[u32]) -> f64 {
    // Gini coefficient of the load distribution (0 = perfectly even).
    let mut xs: Vec<f64> = loads.iter().map(|&c| c as f64).collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

/// E14 (§3.2 ablation): the hashing function matters.
///
/// §3.2: "The hashing function of (5) can not be used here as it would
/// result in a disproportionately large number of nodes … selecting 45" —
/// i.e. GLS's successor rule piles load onto the minimum-ID member of a
/// cluster. We quantify the skew of eq. (5) against our size-weighted
/// rendezvous hashing on identical hierarchies.
pub(crate) fn exp_hash_ablation() {
    banner(
        "E14 / §3.2",
        "server-selection hash ablation: HRW vs eq. (5)",
        &sweep_sizes(),
        None,
    );
    let mut t = TextTable::new(vec![
        "n",
        "hrw max/mean",
        "hrw gini",
        "mod max/mean",
        "mod gini",
        "mod hottest load",
    ]);
    for &n in &sweep_sizes() {
        let mut rng = SimRng::seed_from(14_000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());

        let hrw = LmAssignment::compute(&h, SelectionRule::Hrw).entries_hosted();
        let modr = LmAssignment::compute(&h, SelectionRule::ModSuccessor { id_space: n as u64 })
            .entries_hosted();
        let mean = crate::mean(hrw.iter().map(|&c| c as f64));
        let ratio = |loads: &[u32]| *loads.iter().max().unwrap() as f64 / mean.max(1e-12);
        t.row(vec![
            format!("{n}"),
            fnum(ratio(&hrw)),
            fnum(gini(&hrw)),
            fnum(ratio(&modr)),
            fnum(gini(&modr)),
            format!("{}", modr.iter().max().unwrap()),
        ]);
    }
    println!("{}", t.render());
    println!("expected: eq. (5)'s successor rule shows markedly higher max/mean and");
    println!("Gini than size-weighted rendezvous hashing — the inequity §3.2 warns of.");
}

/// E17 (§2.1 / Kleinrock–Kamoun \[7\]): what the hierarchy buys.
///
/// Static deployments at increasing sizes: hierarchical routing-table size
/// (`O(Σ_k α_k)`) against the flat link-state baseline (`|V|`), the
/// path stretch paid for the compression, and the share of connected
/// pairs the table-driven router cannot deliver.
pub(crate) fn exp_routing_tables() {
    banner(
        "E17 / §2.1",
        "hierarchical vs flat routing state, and stretch",
        &sweep_sizes(),
        None,
    );
    let mut t = TextTable::new(vec![
        "n",
        "flat entries",
        "hier mean",
        "hier max",
        "compression",
        "mean stretch",
        "table stretch",
        "table misses %",
    ]);
    let mut series = MetricSeries::new("hier_table");
    for &n in &sweep_sizes() {
        let mut rng = SimRng::seed_from(17_000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
        let cmp = compare_tables(&h);
        let pairs: Vec<_> = (0..40)
            .map(|_| (rng.index(n) as u32, rng.index(n) as u32))
            .collect();
        let stretch = mean_stretch(&h, &pairs).unwrap_or(f64::NAN);
        // Table-driven forwarding (per-node next-hop state, legs confined
        // to the parent cluster — the deployable form of the protocol).
        // Its stretch averages the pairs it delivers; the misses are the
        // connected pairs it cannot.
        let tables = NextHopTable::build(&h);
        let g0 = &h.levels[0].graph;
        let connected = pairs
            .iter()
            .filter(|&&(s, t)| hop_distance(g0, s, t).is_some())
            .count();
        let table_stretches: Vec<f64> = pairs
            .iter()
            .filter_map(|&(s, t)| tables.route(&h, s, t))
            .map(|out| out.stretch)
            .collect();
        let misses = connected - table_stretches.len();
        t.row(vec![
            format!("{n}"),
            format!("{}", cmp.flat),
            fnum(cmp.mean_hierarchical()),
            format!("{}", cmp.max_hierarchical()),
            fnum(cmp.compression()),
            fnum(stretch),
            fnum(mean(table_stretches)),
            fnum(100.0 * misses as f64 / connected as f64),
        ]);
        series.push(n, cmp.mean_hierarchical(), 0.0);
    }
    println!("{}", t.render());
    print_fits(&series, ModelClass::LogN);
    println!("flat tables grow linearly by definition; hierarchical tables should");
    println!("track α·log n, with bounded path stretch as the price. Table stretch");
    println!("averages the delivered pairs only; the misses are the connected pairs");
    println!("the tables cannot deliver (a missing entry, or a walk that cycles).");
}

/// E21 (extension — §1's excluded case): node birth/death handoff cost.
///
/// The paper assumes births/deaths are "extremely rare" and skips them. We
/// price them: a death loses the victim's hosted entries (`Θ(log n)` of
/// them), whose subjects re-register across their clusters. The dominant
/// re-registration travels the top-level cluster, so a single death costs
/// a polynomial (not polylog) number of packets — and a *clusterhead*
/// death re-parents entire subtrees, reshuffling Θ(n)-scale LM state.
/// Rare events with a non-polylog price: exactly why the paper's rarity
/// assumption matters for its conclusion.
pub(crate) fn exp_churn() {
    banner(
        "E21 / §1 exclusion",
        "single node birth/death handoff cost",
        &sweep_sizes(),
        None,
    );
    let reps = replications().max(4);
    let opts = HierarchyOptions {
        max_levels: usize::MAX,
        min_reduction: 1.25,
    };

    let mut series = MetricSeries::new("death_packets");
    let victims_per_rep = 8;
    let mut t = TextTable::new(vec![
        "n",
        "death pkts (mean)",
        "ci95",
        "median",
        "leaf victim",
        "head victim",
        "entries lost",
        "ripple shifts",
        "birth pkts",
    ]);
    // Per size: (n, mean, head/leaf, median/mean, ci95/mean).
    let mut rows = Vec::new();
    for &n in &sweep_sizes() {
        let mut death_pkts = Vec::new();
        let mut leaf_pkts = Vec::new();
        let mut head_pkts = Vec::new();
        let mut lost = 0.0;
        let mut shifted = 0.0;
        let mut birth_pkts = 0.0;
        let samples = (reps * victims_per_rep) as f64;
        for r in 0..reps {
            let mut rng = SimRng::seed_from(21_000 + n as u64 + 13 * r as u64);
            let dep = Deployment::draw(n, &mut rng);
            let h = dep.hierarchy(opts);
            let hop = |a: u32, b: u32| dep.hops(a, b);
            for _ in 0..victims_per_rep {
                let victim = rng.index(n) as u32;
                let (d, b) =
                    churn_cost(&dep.ids, &dep.graph, victim, SelectionRule::Hrw, opts, hop);
                death_pkts.push(d.total_packets());
                if h.levels[0].is_head[victim as usize] {
                    head_pkts.push(d.total_packets());
                } else {
                    leaf_pkts.push(d.total_packets());
                }
                lost += d.entries_lost as f64 / samples;
                shifted += d.entries_shifted as f64 / samples;
                birth_pkts += b.total_packets() / samples;
            }
        }
        let s = Summary::of(&death_pkts).unwrap();
        let median = percentile(&death_pkts, 50.0).unwrap();
        let (leaf, head) = (mean(leaf_pkts), mean(head_pkts));
        t.row(vec![
            format!("{n}"),
            fnum(s.mean),
            fnum(s.ci95()),
            fnum(median),
            fnum(leaf),
            fnum(head),
            fnum(lost),
            fnum(shifted),
            fnum(birth_pkts),
        ]);
        series.push(n, s.mean, s.ci95());
        rows.push((n, s.mean, head / leaf, median / s.mean, s.ci95() / s.mean));
    }
    println!("{}", t.render());
    print_fits(&series, ModelClass::SqrtN);

    // What the table says, computed from it.
    let falls: Vec<usize> = rows
        .windows(2)
        .filter(|w| w[1].1 < w[0].1)
        .map(|w| w[1].0)
        .collect();
    let trend = if falls.is_empty() {
        "rising at every step".to_string()
    } else {
        format!("not monotone: it falls at n = {falls:?}")
    };
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    println!(
        "measured: mean death cost {} pkt at n = {} -> {} pkt at n = {}, {trend};",
        fnum(first.1),
        first.0,
        fnum(last.1),
        last.0,
    );
    // (lo, hi) of a column; NaN (no head victim drawn) is skipped.
    let span = |col: Vec<f64>| {
        col.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let (lo, hi) = span(rows.iter().map(|r| r.2).collect());
    let heavier = rows.iter().filter(|r| r.2 > 1.0).count();
    println!(
        "measured: a head victim costs {lo:.2}x to {hi:.2}x a leaf victim, more at {heavier} of {} sizes;",
        rows.len()
    );
    let (med_lo, med_hi) = span(rows.iter().map(|r| 100.0 * r.3).collect());
    let (ci_lo, ci_hi) = span(rows.iter().map(|r| 100.0 * r.4).collect());
    println!(
        "measured: the median death costs {med_lo:.0}% to {med_hi:.0}% of the mean, and ci95 \
         spans {ci_lo:.0}% to {ci_hi:.0}% of it ({} victims per size).",
        reps * victims_per_rep,
    );
}

/// E22 (methodology validation): the *asynchronous* LCA as real messages.
///
/// The simulator emulates the paper's ALCA by recomputing the LCA fixpoint
/// each tick and diffing. This experiment runs the actual message-passing
/// protocol (`chlm_proto::dalca`): HELLO/VOTE/UNVOTE over a delayed
/// medium, then asserts the quiescent state equals the centralized
/// election exactly, and measures the message cost of reacting to a
/// link-state change — which must be O(1) in network size (locality),
/// the property that makes the ALCA deployable at all.
pub(crate) fn exp_dalca() {
    banner(
        "E22",
        "distributed ALCA: convergence + message locality",
        &sweep_sizes(),
        None,
    );
    let reps = replications().max(4);
    let mut t = TextTable::new(vec![
        "n",
        "startup msgs/node",
        "msgs per link change",
        "fixpoint == centralized",
    ]);
    let mut per_change_series = Vec::new();
    for &n in &sweep_sizes() {
        let mut startup = 0.0;
        let mut per_change = 0.0;
        for r in 0..reps {
            let mut rng = SimRng::seed_from(22_000 + n as u64 + 17 * r as u64);
            let Deployment {
                graph: mut g, ids, ..
            } = Deployment::draw(n, &mut rng);
            let mut d = Dalca::new(&ids, &g, 0.001);
            let boot = d.run_until_quiescent();
            startup += boot as f64 / n as f64 / reps as f64;
            // Flip 30 random existing/missing links and count messages.
            let mut total = 0u64;
            let mut changes = 0u64;
            for _ in 0..30 {
                let u = rng.index(n) as NodeIdx;
                let v = rng.index(n) as NodeIdx;
                if u == v {
                    continue;
                }
                if g.has_edge(u, v) {
                    g.remove_edge(u, v);
                    d.link_change(u, v, false);
                } else {
                    g.add_edge(u, v);
                    d.link_change(u, v, true);
                }
                total += d.run_until_quiescent();
                changes += 1;
            }
            d.assert_matches_centralized(&g);
            per_change += total as f64 / changes as f64 / reps as f64;
        }
        per_change_series.push(per_change);
        t.row(vec![
            format!("{n}"),
            fnum(startup),
            fnum(per_change),
            "yes".to_string(),
        ]);
    }
    println!("{}", t.render());
    let spread = relative_spread(&per_change_series);
    println!(
        "messages per link-state change: spread {:.1}% across a {:.0}x size range",
        spread * 100.0,
        *sweep_sizes().last().unwrap() as f64 / sweep_sizes()[0] as f64
    );
    println!(
        "locality claim (O(1) messages per change, independent of |V|): {}",
        if spread < 0.35 {
            "HOLDS"
        } else {
            "NOT SUPPORTED"
        }
    );
    println!("every run's quiescent votes/heads/elector-counts matched the");
    println!("centralized LCA exactly — the tick-diff emulation is faithful.");
}
