//! `chlm-exp <id> [--smoke]`: run one record of the experiment registry
//! (`chlm_bench::experiments`) and print its report to stdout.
//!
//! Scale comes from the `CHLM_*` environment knobs (`crates/bench/src/
//! lib.rs`); `--smoke` selects the bounded CI spec of the records that have
//! one. No id, an unknown id, or `--smoke` on a record without a smoke spec
//! prints the registry to stderr and exits 2.

use chlm_bench::experiments::EXPERIMENTS;

fn usage(problem: &str) -> ! {
    eprintln!("chlm-exp: {problem}\nusage: chlm-exp <id> [--smoke]\n");
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (id, smoke) = match args.as_slice() {
        [id] => (id, false),
        [id, flag] if flag == "--smoke" => (id, true),
        _ => usage("expected an experiment id, optionally followed by --smoke"),
    };
    let Some(e) = EXPERIMENTS.iter().find(|e| e.id == id) else {
        usage(&format!("no experiment {id:?}"))
    };
    if smoke && !e.smoke {
        usage(&format!("{} has no --smoke spec", e.id));
    }
    (e.run)(smoke);
}
