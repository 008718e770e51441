//! E27: update-vs-query crossover — CHLM vs per-band GLS vs home agent,
//! the query plane priced against the update plane on identical per-seed
//! traces.
//!
//! Sweeps the call-to-mobility ratio (lookup arrivals per node per
//! second) × n × mobility; each world is simulated once and fanned out
//! to six banks (3 schemes × {analytic, lossless packet}, BFS pricing)
//! through the shared-world multiplexer. Reports, per (mobility, scheme,
//! backend, n): update and query overhead at every CMR point, and the
//! crossover CMR at which lookup traffic overtakes update traffic —
//! mean ± ci95 over replications. On traces that never partition the
//! analytic and packet columns agree exactly (the `query_parity.rs`
//! wall); seeing them equal here is a standing end-to-end cross-check,
//! and a gap measures partition time.
//!
//! `--smoke` runs the bounded CI spec (n = 256, 1 seed, all mobilities).

use chlm_bench::lm_compare::mobility_models;
use chlm_bench::query_crossover::{render_tables, run_crossover, CrossoverSpec};
use chlm_bench::{
    env_usize, measured_seconds, replications, scaling_sizes, threads, warmup_seconds,
};
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke {
        CrossoverSpec::smoke(threads())
    } else {
        CrossoverSpec {
            sizes: scaling_sizes(256, env_usize("CHLM_MAX_N", 1024, 256)),
            cmrs: vec![0.5, 1.0, 2.0, 4.0, 8.0],
            replications: replications(),
            base_seed: 27_000,
            threads: threads(),
            duration: measured_seconds(4.0),
            warmup: warmup_seconds(2.0),
            mobilities: mobility_models(),
        }
    };
    println!("== E27: update-vs-query crossover (chlm vs gls vs home agent) ==");
    println!(
        "sizes {:?}, cmrs {:?}, {} replications, {}s measured, {} threads{}\n",
        spec.sizes,
        spec.cmrs,
        spec.replications,
        spec.duration,
        spec.threads,
        if smoke { " [smoke]" } else { "" },
    );
    let started = Instant::now();
    let (rows, crossovers) = run_crossover(&spec);
    let elapsed = started.elapsed();
    print!("{}", render_tables(&spec, &rows, &crossovers));
    println!("wall clock: {:.3}s", elapsed.as_secs_f64());
    println!("notes:");
    println!("- update = phi+gamma handoff overhead; query = request/reply lookup");
    println!("  overhead, both in packet transmissions per node per second;");
    println!("- every scheme x backend bank prices the byte-identical world trace");
    println!("  and the byte-identical lookup arrivals per seed;");
    println!("- crossover = update / slope(query vs cmr): the lookup rate at which");
    println!("  the query plane costs as much as the update plane;");
    println!("- analytic and lossless-packet columns agree exactly while the trace");
    println!("  stays connected (crates/sim/tests/query_parity.rs); a gap measures");
    println!("  partition time (Euclidean-fallback pricing vs dropped packets).");
}
