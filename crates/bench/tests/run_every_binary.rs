//! The experiment registry and `chlm-exp`: every record runs through
//! `chlm-exp <id>` at a fixed tiny scale and must exit 0 having printed a
//! table; several ids in one invocation print the single-id outputs one
//! after another; usage errors (a bad id anywhere in the list, a misplaced
//! `--smoke`, an out-of-range knob) exit 2 with a message, not a panic;
//! and the hand-written experiment lists (DESIGN.md §3's index,
//! EXPERIMENTS.md's Reproducing block, `ci.sh`'s smoke loop) agree with the
//! registry.
//!
//! The tiny scale is the one CHANGES.md records for proving the
//! `run_sweep` port byte-identical: all 26 together take ~2 s in release
//! and ~11 s in debug on two cores.

use chlm_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

/// The scale every record runs at here.
const TINY: [(&str, &str); 8] = [
    ("CHLM_MAX_N", "256"),
    ("CHLM_SEEDS", "2"),
    ("CHLM_DURATION", "2"),
    ("CHLM_WARMUP", "1"),
    ("CHLM_MOBILITY_N", "128"),
    ("CHLM_SCALE_N", "2048"),
    ("CHLM_SCALE_SEEDS", "2"),
    ("CHLM_THREADS", "2"),
];

fn chlm_exp(args: &[&str], overrides: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chlm-exp"))
        .args(args)
        .envs(TINY)
        .envs(overrides.iter().copied())
        .output()
        .expect("chlm-exp runs")
}

/// Whether `line` is a `TextTable` rule line: dashes and column gaps only.
fn is_rule(line: &str) -> bool {
    line.contains('-') && line.chars().all(|c| c == '-' || c == ' ')
}

/// A rule line directly above a non-empty row.
fn has_table(stdout: &str) -> bool {
    let lines: Vec<&str> = stdout.lines().collect();
    lines
        .windows(2)
        .any(|w| is_rule(w[0]) && !w[1].trim().is_empty())
}

/// The lines of `doc` from the one starting with `heading` up to the next
/// `## ` heading.
fn section<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(heading));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("no {heading:?} section"));
    std::iter::once(first)
        .chain(lines.take_while(|l| !l.starts_with("## ")))
        .collect()
}

fn read_doc(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn every_binary_exits_zero_with_a_table() {
    for e in EXPERIMENTS {
        let args: &[&str] = if e.smoke { &[e.id, "--smoke"] } else { &[e.id] };
        let out = chlm_exp(args, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{} ({}) exited {:?}\nstderr:\n{}",
            e.id,
            e.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(has_table(&stdout), "{} printed no table:\n{stdout}", e.id);
    }
}

/// The line under a record's banner title.
fn banner_line(id: &str, overrides: &[(&str, &str)]) -> String {
    let out = chlm_exp(&[id], overrides);
    assert!(out.status.success(), "{id} exited {:?}", out.status.code());
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().nth(1).unwrap_or_default().to_string()
}

/// A record's banner names the sizes it runs and what it ran there: E16
/// runs one network of `CHLM_MOBILITY_N` nodes, not the `CHLM_MAX_N`
/// ladder; E18 one replication of 12 ticks, not `CHLM_SEEDS` runs of
/// `CHLM_DURATION` seconds; E14 simulates nothing; E1, E4 and E20 are
/// views of the claims sweep's ladder.
#[test]
fn banner_names_the_sizes_the_record_runs() {
    let e16 = banner_line("E16", &[("CHLM_MOBILITY_N", "64")]);
    assert_eq!(e16, "n = 64, 2 replications, 2s measured, 2 threads");

    let tick = chlm_sim::SimConfig::builder(256).build().tick();
    let measured = (12.0 * tick * 1e3).round() / 1e3;
    let e18 = format!("n = 256, 1 replication, {measured}s measured, 2 threads");
    assert_eq!(banner_line("E18", &[]), e18);

    assert_eq!(
        banner_line("E14", &[]),
        "sizes [128, 256], static snapshots, 2 threads"
    );
    for id in ["E1", "E4", "E20"] {
        assert_eq!(
            banner_line(id, &[]),
            "sizes [128, 256], 2 replications, 2s measured, 2 threads",
            "{id}"
        );
    }

    // A record capped below `CHLM_MAX_N` runs the largest rung of the
    // ladder at or below its cap, not a size no ladder record runs.
    let capped = [("CHLM_MAX_N", "300")];
    for id in ["E3", "E6", "E8", "E10"] {
        assert_eq!(
            banner_line(id, &capped),
            "n = 256, 2 replications, 2s measured, 2 threads",
            "{id}"
        );
    }
    let e15 = "n = 256, 1 replication, 2s measured, 2 threads";
    assert_eq!(banner_line("E15", &capped), e15);
    assert_eq!(banner_line("E18", &capped), e18);
    assert!(banner_line("E23", &capped).starts_with("n = 256, 1 replication, "));
}

/// Columns `headers` of the first table in `stdout` that has them all, one
/// row of cells per table row. Cells are split at runs of two or more
/// spaces, so a header may hold single spaces.
fn columns(stdout: &str, headers: &[&str]) -> Vec<Vec<String>> {
    let cells = |line: &str| -> Vec<String> {
        let cells = line.split("  ").map(str::trim).filter(|c| !c.is_empty());
        cells.map(String::from).collect()
    };
    let lines: Vec<&str> = stdout.lines().collect();
    for (at, w) in lines.windows(2).enumerate() {
        let head = cells(w[0]);
        let found: Option<Vec<usize>> = headers
            .iter()
            .map(|h| head.iter().position(|c| c == h))
            .collect();
        if let Some(found) = found.filter(|_| is_rule(w[1])) {
            let rows = lines[at + 2..].iter().take_while(|l| !l.trim().is_empty());
            return rows
                .map(|l| {
                    let c = cells(l);
                    found.iter().map(|&i| c[i].clone()).collect()
                })
                .collect();
        }
    }
    panic!("no table with columns {headers:?} in:\n{stdout}");
}

/// One `chlm-exp` invocation's stdout cut at each record's `== ` banner,
/// as `(id, output)` in print order.
fn records(stdout: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in stdout.split_inclusive('\n') {
        if let Some(banner) = line.strip_prefix("== ") {
            let id = banner.split([' ', ':']).next().unwrap_or_default();
            out.push((id.to_string(), String::new()));
        }
        out.last_mut().expect("output starts at a banner").1 += line;
    }
    out
}

/// The claims records are views of one sweep, run here in one invocation:
/// E7's φ, E9's γ and E13's CHLM columns are E12's φ, γ and total at every
/// size they share (the query plane and the GLS bank leave the CHLM bank's
/// ledger alone), E6 and E8 read one h_k at every level, E20's `L` is E1's,
/// and E4's h_k at E6's rung is E6's at every level both print.
#[test]
fn claims_records_share_runs() {
    let ids = ["E12", "E7", "E9", "E13", "E6", "E8", "E1", "E20", "E4"];
    let out = chlm_exp(&ids, &[]);
    assert!(out.status.success(), "exited {:?}", out.status.code());
    let all = records(&String::from_utf8_lossy(&out.stdout));
    let ran: Vec<&str> = all.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ran, ids);
    let of = |id: &str| all.iter().find(|(r, _)| r == id).map_or("", |(_, o)| o);

    let e12 = of("E12");
    assert_eq!(
        columns(of("E7"), &["n", "phi"]),
        columns(e12, &["n", "phi"])
    );
    assert_eq!(
        columns(of("E9"), &["n", "gamma"]),
        columns(e12, &["n", "gamma"])
    );
    let chlm = columns(of("E13"), &["n", "chlm (pkt/node/s)"]);
    let total = columns(e12, &["n", "total"]);
    assert!(!chlm.is_empty());
    assert_eq!(chlm, total[..chlm.len()]);
    let e6 = columns(of("E6"), &["level", "h_k"]);
    assert_eq!(e6, columns(of("E8"), &["level", "h_k"]));
    let l = columns(of("E1"), &["n", "L"]);
    assert!(!l.is_empty());
    assert_eq!(columns(of("E20"), &["n", "L"]), l);

    // E6 runs the top rung, which is the last size of E4's ladder.
    let rung = l.last().expect("E1 prints a row per size")[0].clone();
    let e4 = columns(of("E4"), &["n", "level", "h_k"]);
    let at_rung: Vec<&Vec<String>> = e4.iter().filter(|row| row[0] == rung).collect();
    assert!(!at_rung.is_empty(), "E4 prints no level at n = {rung}");
    for row in at_rung {
        let e6_row = e6.iter().find(|r| r[0] == row[1]);
        assert_eq!(e6_row.map(|r| &r[1]), Some(&row[2]), "level {}", row[1]);
    }
}

/// Several ids print exactly the single-id outputs one after another, at
/// one worker and at two: sharing the sweep changes no record's output.
#[test]
fn several_ids_print_the_single_outputs_concatenated() {
    let ids = ["E3", "E12", "E1"];
    for threads in ["1", "2"] {
        let env = [("CHLM_THREADS", threads)];
        let mut want = Vec::new();
        for id in ids {
            let out = chlm_exp(&[id], &env);
            assert!(out.status.success(), "{id} exited {:?}", out.status.code());
            want.extend(out.stdout);
        }
        let out = chlm_exp(&ids, &env);
        assert!(out.status.success(), "exited {:?}", out.status.code());
        assert!(
            out.stdout == want,
            "threads {threads}: chlm-exp {ids:?} is not its records' outputs concatenated"
        );
    }
}

#[test]
fn out_of_range_knobs_are_usage_errors() {
    for (id, knob, value) in [
        // E6: used to trip `assert!(replications >= 1)`.
        ("E6", "CHLM_SEEDS", "0"),
        // E5: used to leave an empty size ladder for `fit_model`.
        ("E5", "CHLM_MAX_N", "64"),
        // E26: used to leave an empty calibration set for `fit_model`.
        ("E26", "CHLM_SCALE_N", "512"),
    ] {
        let out = chlm_exp(&[id], &[(knob, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{id} with {knob}={value}: stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(knob) && stderr.contains(">="),
            "{id} with {knob}={value} must name the knob and its range, got:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{id} with {knob}={value} panicked:\n{stderr}"
        );
    }
}

#[test]
fn bad_arguments_print_the_registry_and_exit_2() {
    for args in [
        &[][..],
        &["E0"],
        &["E25"],
        &["E7", "--smoke"],
        &["E24", "--smoek"],
        // Every id and the flag are checked before any record runs.
        &["E7", "E0"],
        &["E3", "E7", "--smoke"],
    ] {
        let out = chlm_exp(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        for e in EXPERIMENTS {
            assert!(
                stderr.contains(e.name),
                "{args:?}: the listing misses {}",
                e.id
            );
        }
    }
}

/// E1–E27 in order without E25: that id is retired (its HierRouting tables
/// are E24's second half) and no other id moved into its place.
#[test]
fn registry_ids_are_e1_to_e27_in_order() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let want: Vec<String> = (1..=27)
        .filter(|&k| k != 25)
        .map(|k| format!("E{k}"))
        .collect();
    assert_eq!(ids, want);
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EXPERIMENTS.len(), "two records share a name");
    let smoke: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.smoke)
        .map(|e| e.id)
        .collect();
    assert_eq!(smoke, ["E24", "E27"]);
    let ci_loop = format!("for id in {}; do", smoke.join(" "));
    assert!(
        read_doc("ci.sh").contains(&ci_loop),
        "ci.sh must smoke every record with a smoke spec: `{ci_loop}`"
    );
}

/// DESIGN.md §3 has exactly one row per record, and that row states the
/// record's paper anchor and names it.
#[test]
fn design_index_has_one_row_per_record() {
    let design = read_doc("DESIGN.md");
    let rows: Vec<Vec<&str>> = section(&design, "## 3.")
        .into_iter()
        .filter(|l| l.starts_with("| E"))
        .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), EXPERIMENTS.len(), "DESIGN §3 rows vs registry");
    for e in EXPERIMENTS {
        let mine: Vec<&Vec<&str>> = rows.iter().filter(|r| r[0] == e.id).collect();
        assert_eq!(mine.len(), 1, "DESIGN §3 must have one {} row", e.id);
        assert_eq!(mine[0][1], e.paper_ref, "{}'s paper anchor", e.id);
        assert_eq!(mine[0].last(), Some(&e.name), "{}'s record name", e.id);
    }
}

/// EXPERIMENTS.md's Reproducing block runs every id.
#[test]
fn reproducing_block_runs_every_id() {
    let experiments = read_doc("EXPERIMENTS.md");
    let block = section(&experiments, "## Reproducing").join("\n");
    let tokens: Vec<&str> = block
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .collect();
    for e in EXPERIMENTS {
        assert!(
            tokens.contains(&e.id),
            "EXPERIMENTS.md's Reproducing block does not run {}",
            e.id
        );
    }
}
