//! E17 (§2.1 / Kleinrock–Kamoun \[7\]): what the hierarchy buys.
//!
//! Static deployments at increasing sizes: hierarchical routing-table size
//! (`O(Σ_k α_k)`) against the flat link-state baseline (`|V|`), and the
//! path stretch paid for the compression.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, mean, print_fits, sweep_sizes, Deployment, MetricSeries};
use chlm_cluster::HierarchyOptions;
use chlm_geom::SimRng;
use chlm_routing::forward::mean_stretch;
use chlm_routing::nexthop::NextHopTable;
use chlm_routing::tables::compare_tables;

fn main() {
    banner(
        "E17 / §2.1",
        "hierarchical vs flat routing state, and stretch",
    );
    let mut t = TextTable::new(vec![
        "n",
        "flat entries",
        "hier mean",
        "hier max",
        "compression",
        "mean stretch",
        "table stretch",
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
        let tables = NextHopTable::build(&h);
        let table_stretch = mean(
            pairs
                .iter()
                .filter_map(|&(s, t)| tables.route(&h, s, t))
                .map(|out| out.stretch),
        );
        t.row(vec![
            format!("{n}"),
            format!("{}", cmp.flat),
            fnum(cmp.mean_hierarchical()),
            format!("{}", cmp.max_hierarchical()),
            fnum(cmp.compression()),
            fnum(stretch),
            fnum(table_stretch),
        ]);
        series.push(n, cmp.mean_hierarchical(), 0.0);
    }
    println!("{}", t.render());
    print_fits(&series, ModelClass::LogN);
    println!("flat tables grow linearly by definition; hierarchical tables should");
    println!("track α·log n, with bounded path stretch as the price.");
}
