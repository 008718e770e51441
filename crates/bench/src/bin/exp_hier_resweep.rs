//! E25: the E24 three-scheme comparison re-priced under
//! `HopMetric::HierRouting` — hops charged along the hierarchical
//! cluster-routing paths the paper's protocol would actually use, not the
//! calibrated Euclidean estimate.
//!
//! This is the headline re-sweep the shared-world multiplexer pays for:
//! the hierarchical routing table is built once per tick per world and
//! shared by all three scheme banks (one `with_pricer` scope per metric
//! group), so the re-sweep costs roughly one world-run where per-scheme
//! runs would cost three plus three table builds.
//!
//! Same grid and knobs as E24 (`CHLM_MAX_N`, `CHLM_SEEDS`,
//! `CHLM_DURATION`, `CHLM_WARMUP`, `--smoke`); only the pricing differs.

use chlm_bench::lm_compare::{mobility_models, render_tables, run_compare, CompareSpec};
use chlm_bench::{
    env_usize, measured_seconds, replications, scaling_sizes, threads, warmup_seconds,
};
use chlm_sim::HopMetric;
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec = if smoke {
        CompareSpec::smoke(threads())
    } else {
        CompareSpec {
            sizes: scaling_sizes(256, env_usize("CHLM_MAX_N", 4096, 256)),
            replications: replications(),
            base_seed: 24_000,
            threads: threads(),
            duration: measured_seconds(8.0),
            warmup: warmup_seconds(6.0),
            crossing_warmup: true,
            mobilities: mobility_models(),
            hop_metric: HopMetric::EuclideanCalibrated,
        }
    };
    spec.hop_metric = HopMetric::HierRouting;
    println!("== E25: LM scheme comparison under hierarchical-routing pricing ==");
    println!(
        "sizes {:?}, {} replications, {}s measured, {} threads{}\n",
        spec.sizes,
        spec.replications,
        spec.duration,
        spec.threads,
        if smoke { " [smoke]" } else { "" }
    );
    let started = Instant::now();
    let rows = run_compare(&spec);
    print!("{}", render_tables(&spec, &rows));
    println!(
        "wall clock: {:.3}s (multiplexed; routing table shared per world)",
        started.elapsed().as_secs_f64()
    );
    println!("notes:");
    println!("- identical grid and traces to E24; hops priced along the level-wise");
    println!("  cluster-routing paths (HopMetric::HierRouting) instead of the");
    println!("  calibrated Euclidean estimate — stretch > 1 raises every scheme;");
    println!("- the three schemes share one world and one routing table per tick");
    println!("  (the multiplexer's per-metric pricer group), so this re-sweep adds");
    println!("  ~1 world-run of cost to the E24 study instead of ~3;");
    println!("- scheme ordering (chlm >> gls > home in dense walk/waypoint; rpgm");
    println!("  closing the gap) should be read against E24's Euclidean tables.");
}
