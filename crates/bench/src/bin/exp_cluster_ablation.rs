//! E15 (§2.2 ablation): LCA vs max-min d-hop clustering.
//!
//! Same mobility stream, two clustering substrates. Max-min with `d = 2`
//! elects fewer, farther-spaced heads (larger arity, shallower hierarchy);
//! the LCA (= max-min with d = 1, per §2.2) churns its head set faster per
//! tick but each election affects a smaller neighborhood. We compare
//! head-set size, depth, and head churn per node per second.

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, measured_seconds, standard_region, standard_rtx, MIN_N};
use chlm_cluster::maxmin::MaxMinHierarchy;
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::SimRng;
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::NodeIdx;
use chlm_mobility::{MobilityModel, RandomWaypoint};
use std::collections::HashSet;

struct Churn {
    heads_sum: f64,
    depth_sum: f64,
    churn_events: u64,
    snapshots: u64,
}

fn main() {
    banner("E15 / §2.2", "clustering ablation: LCA vs max-min d-hop");
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(512);
    let rtx = standard_rtx();
    let region = standard_region(n);
    let speed = 2.0;
    let dt = rtx / (10.0 * speed);
    let ticks = (measured_seconds(8.0) / dt) as usize;

    let mut rng = SimRng::seed_from(15_000);
    let ids = rng.permutation(n);
    let mut mob = RandomWaypoint::deployed(region, n, speed, 30.0, &mut rng);

    let mut lca = Churn {
        heads_sum: 0.0,
        depth_sum: 0.0,
        churn_events: 0,
        snapshots: 0,
    };
    let mut mm: Vec<Churn> = (0..2)
        .map(|_| Churn {
            heads_sum: 0.0,
            depth_sum: 0.0,
            churn_events: 0,
            snapshots: 0,
        })
        .collect();
    let mut prev_lca: Option<HashSet<NodeIdx>> = None;
    let mut prev_mm: Vec<Option<HashSet<NodeIdx>>> = vec![None, None];

    for _ in 0..ticks {
        mob.step(dt);
        let g = build_unit_disk(mob.positions(), rtx);
        // LCA.
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let heads: HashSet<NodeIdx> = h.levels[1].nodes.iter().copied().collect();
        lca.heads_sum += heads.len() as f64;
        lca.depth_sum += (h.depth() - 1) as f64;
        if let Some(prev) = &prev_lca {
            lca.churn_events += prev.symmetric_difference(&heads).count() as u64;
        }
        prev_lca = Some(heads);
        lca.snapshots += 1;
        // Max-min, d = 2 and d = 3.
        for (slot, d) in [(0usize, 2usize), (1, 3)] {
            let mh = MaxMinHierarchy::build(&ids, &g, d, usize::MAX);
            let heads = mh.head_set();
            mm[slot].heads_sum += heads.len() as f64;
            mm[slot].depth_sum += (mh.depth() - 1) as f64;
            if let Some(prev) = &prev_mm[slot] {
                mm[slot].churn_events += prev.symmetric_difference(&heads).count() as u64;
            }
            prev_mm[slot] = Some(heads);
            mm[slot].snapshots += 1;
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
    let mut row = |name: &str, c: &Churn| {
        let mean_heads = c.heads_sum / c.snapshots as f64;
        t.row(vec![
            name.to_string(),
            fnum(mean_heads),
            fnum(n as f64 / mean_heads),
            fnum(c.depth_sum / c.snapshots as f64),
            fnum(c.churn_events as f64 / node_seconds),
        ]);
    };
    row("LCA (d=1)", &lca);
    row("max-min d=2", &mm[0]);
    row("max-min d=3", &mm[1]);
    println!("{}", t.render());
    println!("n = {n}, {ticks} ticks of {dt:.3} s; churn counts level-1 head set");
    println!("symmetric difference per tick, normalized per node-second.");
}
