//! `chlm` — command-line front end for the simulator.
//!
//! ```text
//! chlm simulate --nodes 512 --speed 2 --duration 10 --seed 1 [--mobility M]
//!               [--scheme chlm|gls|home] [--query-rate R] [--csv]
//! chlm sweep    --sizes 128,256,512 --seeds 4 [--duration 8] [--metric total]
//! chlm hierarchy --nodes 150 --seed 63 [--tree]
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): `--key value`
//! flags and boolean switches only, each checked against the
//! subcommand's known set.

use chlm::analysis::table::{fnum, TextTable};
use chlm::prelude::*;
use chlm::sim::LmScheme;
use std::process::ExitCode;

mod cli {
    use std::collections::HashMap;

    /// Parsed arguments: switches (bare `--flag`) and `--key value` pairs.
    #[derive(Debug, Default)]
    pub struct Args {
        pub switches: Vec<String>,
        pub values: HashMap<String, String>,
    }

    /// Parse `args` (without the program name / subcommand) against the
    /// subcommand's switches and `--key value` keys. Returns an error
    /// message for malformed input or a flag in neither list.
    pub fn parse(
        args: &[String],
        known_switches: &[&str],
        known_values: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{a}`"))?;
            if known_switches.contains(&key) {
                out.switches.push(key.to_string());
                i += 1;
            } else if known_values.contains(&key) {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                out.values.insert(key.to_string(), v.clone());
                i += 2;
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(out)
    }

    impl Args {
        pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
            match self.values.get(key) {
                None => Ok(default),
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--{key}: cannot parse `{v}`")),
            }
        }

        pub fn has(&self, switch: &str) -> bool {
            self.switches.iter().any(|s| s == switch)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn s(v: &[&str]) -> Vec<String> {
            v.iter().map(|x| x.to_string()).collect()
        }

        #[test]
        fn parses_pairs_and_switches() {
            let a = parse(
                &s(&["--nodes", "64", "--csv", "--seed", "7"]),
                &["csv"],
                &["nodes", "seed"],
            )
            .unwrap();
            assert_eq!(a.get::<usize>("nodes", 0).unwrap(), 64);
            assert_eq!(a.get::<u64>("seed", 0).unwrap(), 7);
            assert!(a.has("csv"));
            assert!(!a.has("tree"));
        }

        #[test]
        fn defaults_apply() {
            let a = parse(&[], &[], &[]).unwrap();
            assert_eq!(a.get::<usize>("nodes", 256).unwrap(), 256);
        }

        #[test]
        fn errors_are_reported() {
            assert!(parse(&s(&["nodes"]), &[], &["nodes"]).is_err());
            assert!(parse(&s(&["--nodes"]), &[], &["nodes"]).is_err());
            let a = parse(&s(&["--nodes", "abc"]), &[], &["nodes"]).unwrap();
            assert!(a.get::<usize>("nodes", 0).is_err());
            // A typo must not be swallowed as a value pair.
            let err = parse(&s(&["--node", "512"]), &["csv"], &["nodes"]).unwrap_err();
            assert_eq!(err, "unknown flag --node");
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  chlm simulate  --nodes N [--speed M] [--duration S] [--seed K] \\\n                 [--warmup S] [--mobility waypoint|direction|walk|rpgm|static] \\\n                 [--scheme chlm|gls|home] [--query-rate R] [--csv]\n  chlm sweep     --sizes 128,256,512 [--seeds R] [--duration S] [--metric total|phi|gamma|f0] [--csv]\n  chlm hierarchy --nodes N [--seed K] [--tree]\n(--mobility walk = random direction at a mean heading epoch of 0.04 s)"
    );
    ExitCode::from(2)
}

fn parse_mobility(name: &str, n: usize) -> Result<MobilityKind, String> {
    Ok(match name {
        "waypoint" => MobilityKind::Waypoint,
        "direction" => MobilityKind::Direction { mean_epoch: 20.0 },
        "walk" => MobilityKind::walk(),
        "static" => MobilityKind::Static,
        "rpgm" => MobilityKind::Rpgm {
            groups: (n / 32).max(1),
            group_radius: 4.0,
            jitter_radius: 0.8,
            jitter_speed: 0.5,
        },
        other => return Err(format!("unknown mobility `{other}`")),
    })
}

fn parse_scheme(name: &str) -> Result<LmScheme, String> {
    Ok(match name {
        "chlm" => LmScheme::Chlm,
        "gls" => LmScheme::Gls,
        "home" => LmScheme::HomeAgent,
        other => return Err(format!("unknown scheme `{other}`")),
    })
}

fn cmd_simulate(args: &cli::Args) -> Result<(), String> {
    let n: usize = args.get("nodes", 256)?;
    let mobility = parse_mobility(&args.get::<String>("mobility", "waypoint".into())?, n)?;
    let scheme = parse_scheme(&args.get::<String>("scheme", "chlm".into())?)?;
    let cfg = {
        let mut b = SimConfig::builder(n)
            .duration(args.get("duration", 10.0)?)
            .warmup(args.get("warmup", 5.0)?)
            .seed(args.get("seed", 1)?)
            .mobility(mobility)
            .lm_scheme(scheme)
            .query_rate(args.get("query-rate", 0.0)?);
        let speed: f64 = args.get("speed", 2.0)?;
        if !matches!(mobility, MobilityKind::Static) {
            b = b.speed(speed);
        }
        b.build()
    };
    eprintln!(
        "simulating n = {} for {} s (dt = {:.3} s, seed {})...",
        cfg.n,
        cfg.duration,
        cfg.tick(),
        cfg.seed
    );
    let r = run_simulation(&cfg);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["mean degree".into(), fnum(r.mean_degree)]);
    t.row(vec!["hierarchy depth".into(), format!("{}", r.depth)]);
    t.row(vec!["f0 (events/node/s)".into(), fnum(r.f0)]);
    t.row(vec!["phi (pkt/node/s)".into(), fnum(r.phi_total())]);
    t.row(vec!["gamma (pkt/node/s)".into(), fnum(r.gamma_total())]);
    t.row(vec!["total (pkt/node/s)".into(), fnum(r.total_overhead())]);
    t.row(vec!["LM entries/node".into(), fnum(r.mean_entries_hosted)]);
    if let Some(q) = r.query.as_ref().and_then(|q| q.mean_packets_per_lookup()) {
        t.row(vec!["mean query (pkts)".into(), fnum(q)]);
    }
    print!(
        "{}",
        if args.has("csv") {
            t.to_csv()
        } else {
            t.render()
        }
    );
    Ok(())
}

fn cmd_sweep(args: &cli::Args) -> Result<(), String> {
    let sizes: Vec<usize> = args
        .get::<String>("sizes", "128,256,512".into())?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad size `{s}`")))
        .collect::<Result<_, _>>()?;
    let seeds: usize = args.get("seeds", 4)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let duration: f64 = args.get("duration", 8.0)?;
    let metric: String = args.get("metric", "total".into())?;
    let pick: fn(&SimReport) -> f64 = match metric.as_str() {
        "total" => |r| r.total_overhead(),
        "phi" => |r| r.phi_total(),
        "gamma" => |r| r.gamma_total(),
        "f0" => |r| r.f0,
        other => return Err(format!("unknown metric `{other}`")),
    };
    eprintln!("sweeping {sizes:?} with {seeds} seeds...");
    // The workspace thread budget (`CHLM_THREADS`, else available cores).
    let threads = SimConfig::builder(1).build().threads;
    let cells: Vec<SimConfig> = sizes
        .iter()
        .map(|&n| SimConfig::builder(n).duration(duration).warmup(5.0).build())
        .collect();
    let reports = run_cells(&cells, &seed_range(1, seeds), threads);
    let mut t = TextTable::new(vec!["n", &metric, "ci95"]);
    let mut means = Vec::with_capacity(sizes.len());
    for (&n, replications) in sizes.iter().zip(&reports) {
        // audit: infallible because seeds >= 1 was checked above
        let s = Summary::over(replications, pick).expect("one report per seed");
        t.row(vec![format!("{n}"), fnum(s.mean), fnum(s.ci95())]);
        means.push(s.mean);
    }
    print!(
        "{}",
        if args.has("csv") {
            t.to_csv()
        } else {
            t.render()
        }
    );
    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    for f in best_fit(&xs, &means) {
        println!("fit {:<9} r2 = {:+.4}", f.class.name(), f.r2);
    }
    Ok(())
}

fn cmd_hierarchy(args: &cli::Args) -> Result<(), String> {
    let n: usize = args.get("nodes", 150)?;
    let seed: u64 = args.get("seed", 63)?;
    let density = 1.25;
    let rtx = chlm::geom::rtx_for_degree(9.0, density);
    let region = chlm::geom::Disk::centered(chlm::geom::disk_radius_for_density(n, density));
    let mut rng = chlm::geom::SimRng::seed_from(seed);
    let pts = chlm::geom::region::deploy_uniform(&region, n, &mut rng);
    let g = build_unit_disk(&pts, rtx);
    let ids = rng.permutation(n);
    let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
    print!("{}", chlm::cluster::render::render_levels(&h));
    if args.has("tree") {
        println!();
        print!("{}", chlm::cluster::render::render_tree(&h, 12));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let rest = &argv[1..];
    let result = match cmd.as_str() {
        "simulate" => cli::parse(
            rest,
            &["csv"],
            &[
                "nodes",
                "speed",
                "duration",
                "warmup",
                "seed",
                "mobility",
                "scheme",
                "query-rate",
            ],
        )
        .and_then(|a| cmd_simulate(&a)),
        "sweep" => cli::parse(rest, &["csv"], &["sizes", "seeds", "duration", "metric"])
            .and_then(|a| cmd_sweep(&a)),
        "hierarchy" => {
            cli::parse(rest, &["tree"], &["nodes", "seed"]).and_then(|a| cmd_hierarchy(&a))
        }
        "--help" | "-h" | "help" => return usage(),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
