//! E19 (§6 / companion \[17\]): location-registration overhead.
//!
//! The conclusion cites \[17\] for "location registration … incur\[s\] packet
//! transmission counts that are only logarithmic in |V|". With the GLS-style
//! distance-triggered refresh rule (update the level-k server after
//! drifting a fraction of the level-k cluster radius), level-k updates
//! happen at rate Θ(1/h_k) and travel Θ(h_k) hops, so each level costs
//! Θ(1) and the total is Θ(L) = Θ(log |V|). This binary sweeps sizes and
//! fits the registration overhead series.

use chlm_analysis::regression::ModelClass;
use chlm_analysis::stats::Summary;
use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{
    banner, measured_seconds, print_fits, replications, standard_region, standard_rtx, sweep_sizes,
    MetricSeries,
};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::SimRng;
use chlm_graph::unit_disk::build_unit_disk;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_lm::update::{RegistrationTracker, UpdatePolicy};
use chlm_mobility::{MobilityModel, RandomWaypoint};

fn run_one(n: usize, seed: u64, duration: f64) -> (f64, Vec<f64>) {
    let rtx = standard_rtx();
    let region = standard_region(n);
    let speed = 2.0;
    let dt = rtx / (10.0 * speed);
    let mut rng = SimRng::seed_from(seed);
    let ids = rng.permutation(n);
    let warmup = 2.0 * region.radius / speed;
    let mut mob = RandomWaypoint::deployed(region, n, speed, warmup, &mut rng);

    let opts = HierarchyOptions::default();
    let mut h = Hierarchy::build(&ids, &build_unit_disk(mob.positions(), rtx), opts);
    let mut asn = LmAssignment::compute(&h, SelectionRule::Hrw);
    let max_level = (h.depth().saturating_sub(1)).max(2);
    let policy = UpdatePolicy::new(rtx, 3.0, 0.5);
    let mut tracker = RegistrationTracker::new(policy, mob.positions(), max_level + 2);

    let ticks = (duration / dt).ceil() as usize;
    // Refresh the assignment at a coarse cadence (handoff handles the rest;
    // registration pricing only needs an approximately-current server map).
    let refresh_every = 10usize;
    for tick in 0..ticks {
        mob.step(dt);
        let positions = mob.positions().to_vec();
        if tick % refresh_every == 0 {
            h = Hierarchy::build(&ids, &build_unit_disk(&positions, rtx), opts);
            asn = LmAssignment::compute(&h, SelectionRule::Hrw);
        }
        let rtx_local = rtx;
        tracker.observe(
            &positions,
            &asn,
            |a, b| (positions[a as usize].dist(positions[b as usize]) / rtx_local * 1.3).max(1.0),
            dt,
        );
    }
    let per_level: Vec<f64> = (0..=tracker.max_level())
        .map(|k| tracker.level_overhead(k))
        .collect();
    (tracker.overhead_per_node_per_second(), per_level)
}

fn main() {
    banner("E19 / [17]", "location-registration overhead vs n");
    let sizes = sweep_sizes();
    let duration = measured_seconds(8.0);
    let reps = replications();

    let mut series = MetricSeries::new("registration");
    let mut table = TextTable::new(vec!["n", "pkts/node/s", "lvl2", "lvl3", "lvl4", "lvl5"]);
    for &n in &sizes {
        let mut totals = Vec::new();
        let mut level_acc = [0.0f64; 16];
        for r in 0..reps {
            let (total, per_level) = run_one(n, 19_000 + r as u64, duration);
            totals.push(total);
            for (k, v) in per_level.iter().enumerate() {
                if k < level_acc.len() {
                    level_acc[k] += v / reps as f64;
                }
            }
        }
        let s = Summary::of(&totals).unwrap();
        table.row(vec![
            format!("{n}"),
            fnum(s.mean),
            fnum(level_acc[2]),
            fnum(level_acc.get(3).copied().unwrap_or(0.0)),
            fnum(level_acc.get(4).copied().unwrap_or(0.0)),
            fnum(level_acc.get(5).copied().unwrap_or(0.0)),
        ]);
        series.push(n, s.mean, s.ci95());
    }
    println!("{}", table.render());
    print_fits(&series, ModelClass::LogN);
    println!("per-level columns should be roughly equal (each level costs Θ(1));");
    println!("the total then grows with the number of levels, i.e. Θ(log n).");
}
