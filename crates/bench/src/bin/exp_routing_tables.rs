//! E17 (§2.1 / Kleinrock–Kamoun \[7\]): what the hierarchy buys.
//!
//! Static deployments at increasing sizes: hierarchical routing-table size
//! (`O(Σ_k α_k)`) against the flat link-state baseline (`|V|`), and the
//! path stretch paid for the compression.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, print_fits, sweep_sizes};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_core::experiment::MetricSeries;
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_routing::forward::mean_stretch;
use chlm_routing::nexthop::NextHopTable;
use chlm_routing::tables::compare_tables;

fn main() {
    banner(
        "E17 / §2.1",
        "hierarchical vs flat routing state, and stretch",
    );
    let density = 1.25;
    let rtx = chlm_geom::rtx_for_degree(9.0, density);
    let mut t = TextTable::new(vec![
        "n",
        "flat entries",
        "hier mean",
        "hier max",
        "compression",
        "mean stretch",
        "table stretch",
    ]);
    let mut series = MetricSeries {
        name: "hier_table".into(),
        sizes: Vec::new(),
        means: Vec::new(),
        ci95: Vec::new(),
    };
    for &n in &sweep_sizes() {
        let mut rng = SimRng::seed_from(17_000 + n as u64);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        let ids = rng.permutation(n);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let cmp = compare_tables(&h);
        let pairs: Vec<_> = (0..40)
            .map(|_| (rng.index(n) as u32, rng.index(n) as u32))
            .collect();
        let stretch = mean_stretch(&h, &pairs).unwrap_or(f64::NAN);
        // Table-driven forwarding (per-node next-hop state, legs confined
        // to the parent cluster — the deployable form of the protocol).
        let tables = NextHopTable::build(&h);
        let routed: Vec<f64> = pairs
            .iter()
            .filter_map(|&(s, t)| tables.route(&h, s, t))
            .map(|out| out.stretch)
            .collect();
        let table_stretch = if routed.is_empty() {
            f64::NAN
        } else {
            routed.iter().sum::<f64>() / routed.len() as f64
        };
        t.row(vec![
            format!("{n}"),
            format!("{}", cmp.flat),
            fnum(cmp.mean_hierarchical()),
            format!("{}", cmp.max_hierarchical()),
            fnum(cmp.compression()),
            fnum(stretch),
            fnum(table_stretch),
        ]);
        series.sizes.push(n as f64);
        series.means.push(cmp.mean_hierarchical());
        series.ci95.push(0.0);
    }
    println!("{}", t.render());
    print_fits(&series, ModelClass::LogN);
    println!("flat tables grow linearly by definition; hierarchical tables should");
    println!("track α·log n, with bounded path stretch as the price.");
}
