//! `chlm-exp <id>... [--smoke]`: run records of the experiment registry
//! (`chlm_bench::experiments`) in order and print their reports to stdout,
//! the single-id outputs concatenated (they share the claims sweep's runs).
//!
//! Scale comes from the `CHLM_*` environment knobs (`crates/bench/src/
//! lib.rs`); `--smoke` selects the bounded CI spec of the records that have
//! one. Checked before anything runs: no id, an unknown id, or `--smoke`
//! with a record without a smoke spec prints the registry to stderr and
//! exits 2.

use chlm_bench::experiments::{Experiment, EXPERIMENTS};

fn usage(problem: &str) -> ! {
    eprintln!("chlm-exp: {problem}\nusage: chlm-exp <id>... [--smoke]\n");
    for e in EXPERIMENTS {
        let smoke = if e.smoke { " [--smoke]" } else { "" };
        eprintln!(
            "  {:<4} {:<22} {} ({}){smoke}",
            e.id, e.name, e.title, e.paper_ref
        );
    }
    std::process::exit(2)
}

fn main() {
    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    let smoke = ids.last().is_some_and(|flag| flag == "--smoke");
    ids.truncate(ids.len() - usize::from(smoke));
    if ids.is_empty() {
        usage("expected experiment ids, optionally followed by --smoke");
    }
    let find = |id: &String| match EXPERIMENTS.iter().find(|e| e.id == id) {
        None => usage(&format!("no experiment {id:?}")),
        Some(e) if smoke && !e.smoke => usage(&format!("{} has no --smoke spec", e.id)),
        Some(e) => e,
    };
    let records: Vec<&Experiment> = ids.iter().map(find).collect();
    for e in records {
        (e.run)(smoke);
    }
}
