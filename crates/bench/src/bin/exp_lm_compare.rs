//! E24: LM scheme comparison — CHLM vs per-band GLS vs home agent,
//! every scheme on identical per-seed traces (same mobility, topology,
//! and hierarchy; only the accounting observer differs — enforced by
//! `chlm-sim`'s `tests/scheme_trace.rs`).
//!
//! φ+γ (packets per node per second, mean ± ci95) per (mobility, n,
//! scheme), for n ∈ {256 .. CHLM_MAX_N} × {random walk, random waypoint,
//! RPGM}. `--smoke` runs the bounded CI spec (n = 256, 1 seed, all
//! schemes, all mobilities).
//!
//! The sweep runs on the shared-world multiplexer: one world per
//! (mobility, n, seed), all three schemes fanned out as observer banks.

use chlm_bench::lm_compare::{mobility_models, render_tables, run_compare, CompareSpec};
use chlm_bench::{
    env_usize, measured_seconds, replications, scaling_sizes, threads, warmup_seconds,
};
use chlm_sim::HopMetric;
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke {
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
    println!("== E24: LM scheme comparison (chlm vs gls vs home agent) ==");
    println!(
        "sizes {:?}, {} replications, {}s measured, {} threads{} [shared-world multiplexer]\n",
        spec.sizes,
        spec.replications,
        spec.duration,
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let started = Instant::now();
    let rows = run_compare(&spec);
    let elapsed = started.elapsed();
    print!("{}", render_tables(&spec, &rows));
    println!(
        "wall clock: {:.3}s (multiplexed: one world per (mobility, n, seed), 3 schemes fanned out)",
        elapsed.as_secs_f64(),
    );
    println!("notes:");
    println!("- phi+gamma in packet transmissions per node per second; every scheme");
    println!("  runs over the byte-identical world trace per seed (scheme_trace.rs);");
    println!("- gls: per-band grid servers (HRW in each sibling square), priced as");
    println!("  server-churn transfers + distance-triggered updates;");
    println!("- home: one static HRW rendezvous node per mobile, one update per");
    println!("  level-1 cluster change — the flat baseline of the paper's argument;");
    println!("- chlm: the §4 handoff ledger (transfer + registration cascade).");
}
