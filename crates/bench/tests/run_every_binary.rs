//! The experiment registry and `chlm-exp`: every record runs through
//! `chlm-exp <id>` at a fixed tiny scale and must exit 0 having printed a
//! table; usage errors (a bad id, a misplaced `--smoke`, an out-of-range
//! knob) exit 2 with a message, not a panic; and the hand-written
//! experiment lists (DESIGN.md §3's index, EXPERIMENTS.md's Reproducing
//! block, `ci.sh`'s smoke loop) agree with the registry.
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

/// A `TextTable` rule line (dashes and column gaps only) directly above a
/// non-empty row.
fn has_table(stdout: &str) -> bool {
    let lines: Vec<&str> = stdout.lines().collect();
    lines.windows(2).any(|w| {
        w[0].contains('-') && w[0].chars().all(|c| c == '-' || c == ' ') && !w[1].trim().is_empty()
    })
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
/// `CHLM_DURATION` seconds; E14 simulates nothing.
#[test]
fn banner_names_the_sizes_the_record_runs() {
    let e16 = banner_line("E16", &[("CHLM_MOBILITY_N", "64")]);
    assert_eq!(e16, "n = 64, 2 replications, 2s measured, 2 threads");

    let tick = chlm_sim::SimConfig::builder(256).build().tick();
    let measured = (12.0 * tick * 1e3).round() / 1e3;
    assert_eq!(
        banner_line("E18", &[]),
        format!("n = 256, 1 replication, {measured}s measured, 2 threads")
    );

    assert_eq!(
        banner_line("E14", &[]),
        "sizes [128, 256], static snapshots, 2 threads"
    );
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
