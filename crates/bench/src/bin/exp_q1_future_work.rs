//! E11 (eq. 22): quantifying `q₁` — **the simulation the paper explicitly
//! left as future work** ("Actual quantification of q₁ via simulation
//! represents a direction for future work", §5.3.2).
//!
//! For each network size we measure the per-level critical-state
//! probabilities `p_j = P(ALCA state = 1)`, evaluate the recursion-chain
//! probabilities `q_j` (eq. 15a), and check the two things the analysis
//! needs: (1) `q₁` stays bounded away from 0 as `|V|` grows, and (2) the
//! `q₁/Q ≥ q₁/(p² + q₁)` bound of eq. (21b) holds and is non-vanishing.

use chlm_analysis::table::{fnum, TextTable};
use chlm_analysis::theory::{q1_fraction_lower_bound, q_chain, q_total};
use chlm_bench::{banner, mean_some, print_series, standard_sweep, sweep_sizes, MetricSeries};
use chlm_sim::SimReport;

fn pooled_p(reports: &[SimReport]) -> Vec<f64> {
    let depth = reports.iter().map(|r| r.state.p1.len()).max().unwrap();
    (0..depth)
        .map(|k| {
            let p = mean_some(reports, |r| r.state.p1.get(k).copied().flatten());
            // A level no replication observed pools to 0, not NaN.
            if p.is_nan() {
                0.0
            } else {
                p
            }
        })
        .collect()
}

fn main() {
    banner(
        "E11 / eq. (22)",
        "q1 quantification (the paper's future work)",
    );
    let sizes = sweep_sizes();
    let sweep = standard_sweep(&sizes, 11_000);

    let mut t = TextTable::new(vec![
        "n",
        "L",
        "p_0",
        "p_1",
        "p_2",
        "q_1(topk)",
        "Q(top k)",
        "q1/Q",
        "eq21b bound",
    ]);
    let mut q1_series = Vec::new();
    for (n, reports) in sizes.iter().zip(&sweep) {
        let p = pooled_p(reports);
        let depth = p.len();
        // Evaluate the chain at the highest level whose whole p-ladder was
        // actually observed (sparse top levels may have no occupancy data;
        // a zero there would silently zero the product).
        let mut k = 2;
        for cand in 2..depth {
            if p[1..cand].iter().all(|&x| x > 0.0) {
                k = cand;
            }
        }
        if k < 2 || p.len() < k || p[1..k].iter().any(|&x| x <= 0.0) {
            continue;
        }
        let q = q_chain(&p, k);
        let q1 = q[0];
        let qq = q_total(&q);
        q1_series.push(q1);
        t.row(vec![
            format!("{n}"),
            format!("{}", depth - 1),
            fnum(p[0]),
            fnum(p.get(1).copied().unwrap_or(0.0)),
            fnum(p.get(2).copied().unwrap_or(0.0)),
            fnum(q1),
            fnum(qq),
            fnum(if qq > 0.0 { q1 / qq } else { 0.0 }),
            fnum(q1_fraction_lower_bound(&p, k)),
        ]);
    }
    println!("{}", t.render());

    let min_q1 = q1_series.iter().copied().fold(f64::MAX, f64::min);
    println!("min q1 across sizes: {min_q1:.4}");
    println!(
        "eq. (22) claim (q1 > eps > 0 as |V| grows): {}",
        if min_q1 > 0.02 {
            "SUPPORTED — recursion almost always stops after one level"
        } else {
            "NOT SUPPORTED at these sizes"
        }
    );

    // Context: how often is a node critical at all (p1 per level vs n)?
    let p1_lvl0 = MetricSeries::of("p1_level0", &sizes, &sweep, |r| {
        r.state.p1.first().copied().flatten().unwrap_or(0.0)
    });
    print_series(&[&p1_lvl0]);
}
