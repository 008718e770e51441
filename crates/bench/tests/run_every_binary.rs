//! Every experiment binary runs: each `src/bin/exp_*.rs` is executed at a
//! fixed tiny scale and must exit 0 having printed a table, and an
//! out-of-range knob must be a usage error (exit 2), not a panic.
//!
//! Binaries are discovered from `src/bin/`, so a new experiment is covered
//! the day it is added. The tiny scale is the one CHANGES.md (PR 19) used
//! to prove the `run_sweep` port byte-identical: all 27 together take
//! ~2 s in release and ~11 s in debug on two cores.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The scale every binary runs at here.
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

/// The binaries whose full grid starts above the tiny scale; they carry
/// their own bounded `--smoke` spec.
const SMOKE: [&str; 3] = ["exp_lm_compare", "exp_hier_resweep", "exp_query_crossover"];

/// Cargo builds this package's binaries next to each other before any of
/// its integration tests run; one known path names the directory.
fn bin_dir() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_exp_scale16k"))
        .parent()
        .expect("binary path has a directory")
}

fn binaries() -> Vec<String> {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut names: Vec<String> = std::fs::read_dir(&src)
        .expect("crates/bench/src/bin is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            let stem = path.file_stem().expect("file has a stem");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    names.sort();
    names
}

fn run(name: &str, overrides: &[(&str, &str)]) -> Output {
    let exe = bin_dir().join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    let mut cmd = Command::new(&exe);
    cmd.envs(TINY).envs(overrides.iter().copied());
    if SMOKE.contains(&name) {
        cmd.arg("--smoke");
    }
    cmd.output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", exe.display()))
}

/// A `TextTable` rule line (dashes and column gaps only) directly above a
/// non-empty row.
fn has_table(stdout: &str) -> bool {
    let lines: Vec<&str> = stdout.lines().collect();
    lines.windows(2).any(|w| {
        w[0].contains('-') && w[0].chars().all(|c| c == '-' || c == ' ') && !w[1].trim().is_empty()
    })
}

#[test]
fn every_binary_exits_zero_with_a_table() {
    let names = binaries();
    assert!(
        names.len() >= 27,
        "expected the 27 experiment binaries, found {names:?}"
    );
    for name in &names {
        let out = run(name, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name} exited {:?}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(has_table(&stdout), "{name} printed no table:\n{stdout}");
    }
}

#[test]
fn out_of_range_knobs_are_usage_errors() {
    for (name, knob, value) in [
        // Used to trip `assert!(replications >= 1)`.
        ("exp_eq9_fk", "CHLM_SEEDS", "0"),
        // Used to leave an empty size ladder for `fit_model`.
        ("exp_eq4_linkrate", "CHLM_MAX_N", "64"),
        // Used to leave an empty calibration set for `fit_model`.
        ("exp_scale16k", "CHLM_SCALE_N", "512"),
    ] {
        let out = run(name, &[(knob, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} with {knob}={value}: stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(knob) && stderr.contains(">="),
            "{name} with {knob}={value} must name the knob and its range, got:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name} with {knob}={value} panicked:\n{stderr}"
        );
    }
}
