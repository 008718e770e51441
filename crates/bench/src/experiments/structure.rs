//! Experiments on static snapshots: uniform deployments, their LCA
//! hierarchies, and what a hierarchy implies for location servers, routing
//! state, cluster maintenance, node churn and the distributed election.

use crate::{
    banner, mean, print_fits, replications, standard_rtx, sweep_sizes, Deployment, MetricSeries,
    DENSITY,
};
use chlm_analysis::regression::{relative_spread, ModelClass};
use chlm_analysis::stats::{percentile, Summary};
use chlm_analysis::table::{fnum, TextTable};
use chlm_cluster::maintenance::price_maintenance;
use chlm_cluster::metrics::{format_stats_table, level_stats, LevelStats};
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

/// E1 (paper Fig. 1): the clustered hierarchy itself.
///
/// Builds LCA hierarchies over static uniform deployments at increasing
/// sizes and prints, per level: `|V_k|`, `|E_k|`, arity `α_k`, aggregation
/// `c_k`, mean degree `d_k` and measured intra-cluster hop count `h_k` —
/// then checks that the hierarchy depth `L` grows logarithmically in `n`
/// (the `L = Θ(log |V|)` premise used throughout the paper).
pub(crate) fn exp_fig1_hierarchy() {
    let sizes = sweep_sizes();
    banner(
        "E1 / Fig. 1",
        "LCA clustered hierarchy structure",
        &sizes,
        None,
    );
    let mut depth_series = MetricSeries::new("depth");
    let mut arity_table = TextTable::new(vec!["n", "L", "mean_alpha", "mean_d1", "top_|V_L|"]);

    let seeds = crate::replications().max(8);
    for &n in &sizes {
        // Representative deployment for the per-level table…
        let mut rng = SimRng::seed_from(1000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
        let stats = level_stats(&h, 6, &mut rng);

        println!("--- n = {n} ---");
        print!("{}", format_stats_table(&stats));
        println!();

        // …and depth averaged over independent deployments (single-sample
        // depth is dominated by the noisy near-unit-arity tail of the LCA).
        let mut depth_sum = 0.0;
        for s in 0..seeds {
            let mut rng = SimRng::seed_from(1000 + n as u64 + 31 * s as u64);
            let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
            depth_sum += (h.depth() - 1) as f64;
        }
        let mean_depth = depth_sum / seeds as f64;

        arity_table.row(vec![
            format!("{n}"),
            fnum(mean_depth),
            fnum(mean_alpha(&stats)),
            fnum(stats.get(1).map_or(0.0, |s| s.mean_degree)),
            format!("{}", stats.last().unwrap().nodes),
        ]);
        depth_series.push(n, mean_depth, 0.0);
    }

    println!("{}", arity_table.render());
    print_fits(&depth_series, ModelClass::LogN);
}

/// Mean arity `α_k` over the clustered levels `k ≥ 1`, and `0` for a
/// one-level hierarchy — folded from +0.0: `Iterator::sum::<f64>()` starts
/// at -0.0, which is what an empty arity list would then report.
fn mean_alpha(stats: &[LevelStats]) -> f64 {
    let arities = stats.get(1..).unwrap_or_default();
    arities.iter().fold(0.0, |sum, s| sum + s.arity) / arities.len().max(1) as f64
}

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

/// E4 (eq. 3): `h_k = Θ(√c_k)`.
///
/// Static deployments at several sizes; per hierarchy level we measure the
/// mean intra-cluster hop count `h_k` and print the ratio `h_k / √c_k`,
/// which eq. (3) predicts to be roughly constant across levels and sizes.
pub(crate) fn exp_eq3_hopcount() {
    banner(
        "E4 / eq. (3)",
        "intra-cluster hop count vs sqrt aggregation",
        &sweep_sizes(),
        None,
    );
    let mut t = TextTable::new(vec![
        "n",
        "level",
        "c_k",
        "sqrt(c_k)",
        "h_k",
        "h_k/sqrt(c_k)",
    ]);
    let mut ratios = Vec::new();

    for &n in &sweep_sizes() {
        let mut rng = SimRng::seed_from(4000 + n as u64);
        let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
        let stats = level_stats(&h, 10, &mut rng);
        for s in stats.iter().filter(|s| s.level >= 1 && s.nodes >= 3) {
            if let Some(hk) = s.intra_cluster_hops {
                let ratio = hk / s.aggregation.sqrt();
                ratios.push(ratio);
                t.row(vec![
                    format!("{n}"),
                    format!("{}", s.level),
                    fnum(s.aggregation),
                    fnum(s.aggregation.sqrt()),
                    fnum(hk),
                    fnum(ratio),
                ]);
            }
        }
    }
    println!("{}", t.render());
    let mean = mean(ratios.iter().copied());
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "h_k/sqrt(c_k): mean = {mean:.3}, spread = [{min:.3}, {max:.3}] ({} cells)",
        ratios.len()
    );
    println!(
        "eq. (3) claim (ratio ~ constant): {}",
        if max / min < 3.0 {
            "HOLDS (spread < 3x across all levels/sizes)"
        } else {
            "WEAK"
        }
    );
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

/// E20 (§6 / companion \[16\]): cluster-maintenance overhead.
///
/// The conclusion cites \[16\] for "cluster maintenance … incur\[s\] packet
/// transmission counts that are only logarithmic in |V|". We price the
/// standard beaconing scheme on *measured* hierarchies (real `d_k`, `h_k`,
/// `|V_k|` rather than the idealized uniform arity) and fit the per-node
/// total across sizes.
pub(crate) fn exp_maintenance() {
    banner(
        "E20 / [16]",
        "cluster-maintenance beaconing overhead vs n",
        &sweep_sizes(),
        None,
    );
    let beacon_rate = 1.0; // level-0 HELLO at 1 Hz
    let reps = replications().max(4);

    let mut series = MetricSeries::new("maintenance");
    let mut table = TextTable::new(vec!["n", "pkts/node/s", "ci95", "L", "lvl0 share %"]);
    for &n in &sweep_sizes() {
        let mut totals = Vec::new();
        let mut depth_sum = 0usize;
        let mut lvl0_share = 0.0;
        for r in 0..reps {
            let mut rng = SimRng::seed_from(20_000 + n as u64 + 7 * r as u64);
            let h = Deployment::draw(n, &mut rng).hierarchy(HierarchyOptions::default());
            let stats = level_stats(&h, 6, &mut rng);
            let (costs, total) = price_maintenance(&stats, beacon_rate);
            totals.push(total);
            depth_sum += h.depth() - 1;
            lvl0_share += costs[0].per_node_per_second / total / reps as f64;
        }
        let s = Summary::of(&totals).unwrap();
        table.row(vec![
            format!("{n}"),
            fnum(s.mean),
            fnum(s.ci95()),
            fnum(depth_sum as f64 / reps as f64),
            fnum(lvl0_share * 100.0),
        ]);
        series.push(n, s.mean, s.ci95());
    }
    println!("{}", table.render());
    print_fits(&series, ModelClass::LogN);
    println!("each level prices at Θ(1) per node (beacon rate 1/h_k × d_k·h_k packets");
    println!("amortized over c_k members), so the total tracks the level count L.");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn level(level: usize, arity: f64) -> LevelStats {
        LevelStats {
            level,
            nodes: 1,
            edges: 0,
            arity,
            aggregation: 1.0,
            mean_degree: 0.0,
            intra_cluster_hops: None,
        }
    }

    #[test]
    fn mean_alpha_of_a_one_level_hierarchy_is_positive_zero() {
        for stats in [vec![], vec![level(0, 0.0)]] {
            assert_eq!(mean_alpha(&stats).to_bits(), 0.0f64.to_bits());
        }
        let three = [level(0, 0.0), level(1, 4.0), level(2, 3.0)];
        assert_eq!(mean_alpha(&three), 3.5);
    }
}
