//! E22 (methodology validation): the *asynchronous* LCA as real messages.
//!
//! The simulator emulates the paper's ALCA by recomputing the LCA fixpoint
//! each tick and diffing. This experiment runs the actual message-passing
//! protocol (`chlm_proto::dalca`): HELLO/VOTE/UNVOTE over a delayed
//! medium, then asserts the quiescent state equals the centralized
//! election exactly, and measures the message cost of reacting to a
//! link-state change — which must be O(1) in network size (locality),
//! the property that makes the ALCA deployable at all.

use chlm_analysis::regression::relative_spread;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, replications, sweep_sizes, Deployment};
use chlm_geom::SimRng;
use chlm_graph::NodeIdx;
use chlm_proto::dalca::Dalca;

fn main() {
    banner("E22", "distributed ALCA: convergence + message locality");
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
