//! E2 (paper Fig. 2): the GLS grid hierarchy.
//!
//! Reproduces the structural features §3.1 lists: (a) unambiguous ID-based
//! server selection, (b) server density high near the node and low far away
//! (mean server distance grows geometrically per band), and the resulting
//! balanced server load (eq. 5 works in GLS because every square holds an
//! arbitrary ID mix).

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, mean, standard_rtx, DENSITY};
use chlm_geom::{Rect, SimRng};
use chlm_lm::gls::{GlsAssignment, GridHierarchy, NO_SERVER};

fn run_one(n: usize) {
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

fn main() {
    banner(
        "E2 / Fig. 2",
        "GLS grid hierarchy: server geometry and load",
    );
    for n in [256usize, 1024] {
        run_one(n);
    }
}
