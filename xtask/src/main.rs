//! `cargo xtask <command>` — workspace automation entry point.
//!
//! Commands:
//!
//! * `lint [--json] [--root DIR] [--path FILE_OR_DIR ...]` — run the
//!   repo-specific lints (see `xtask::lint`). With `--path`, the named
//!   files are checked against *all* lints with no allowlists
//!   (fixture/spot-check mode); otherwise the workspace under `--root`
//!   (default: this repo) is scanned with scope rules and
//!   `xtask/allowlists/` applied. Exit 1 if any finding survives or any
//!   allowlist entry is stale (waives nothing).
//! * `audit-determinism [--json] [--n N]` — run each standard config
//!   twice with the same seed and compare canonical report + hierarchy
//!   digests (see `xtask::determinism`). Exit 1 on any divergence.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::json;
use xtask::{determinism, lint};

fn workspace_root() -> PathBuf {
    // xtask always lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\n  \
         lint [--json] [--root DIR] [--path FILE_OR_DIR ...]\n  \
         audit-determinism [--json] [--n N]"
    );
    ExitCode::from(2)
}

fn finding_json(f: &lint::Finding) -> String {
    let mut o = json::Object::new();
    o.str_field("lint", f.lint)
        .str_field("file", &f.file)
        .num_field("line", f.line as u64)
        .str_field("excerpt", &f.excerpt)
        .str_field("message", &f.message);
    o.finish()
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut as_json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => as_json = true,
            "--path" => match it.next() {
                Some(p) => paths.push(PathBuf::from(p)),
                None => return usage(),
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let report = if paths.is_empty() {
        lint::run_workspace(&root.unwrap_or_else(workspace_root))
    } else {
        lint::run_paths(&paths)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    // Workspace scans export the step-path reachable set for tooling
    // (and the CI artifact); fixture scans never have one.
    if let Some(reach) = &report.reach_json {
        let out = workspace_root().join("target/step_reach.json");
        if let Some(dir) = out.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&out, format!("{reach}\n")) {
            eprintln!("xtask lint: cannot write {}: {e}", out.display());
        }
    }
    if as_json {
        let mut o = json::Object::new();
        o.raw_field(
            "findings",
            &json::array(report.findings.iter().map(finding_json)),
        )
        .raw_field(
            "stale",
            &json::array(
                report
                    .stale
                    .iter()
                    .map(|s| format!("\"{}\"", json::escape(s))),
            ),
        )
        .num_field("allowed", report.allowed as u64)
        .num_field("files_scanned", report.files_scanned as u64)
        .bool_field("ok", report.ok());
        println!("{}", o.finish());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for s in &report.stale {
            println!("stale allowlist entry (waives no finding): {s}");
        }
        println!(
            "xtask lint: {} file(s) scanned, {} finding(s), {} allowlisted, {} stale entr{}",
            report.files_scanned,
            report.findings.len(),
            report.allowed,
            report.stale.len(),
            if report.stale.len() == 1 { "y" } else { "ies" }
        );
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_audit_determinism(args: &[String]) -> ExitCode {
    let mut as_json = false;
    let mut n = 256usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => as_json = true,
            "--n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => n = v,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let results = determinism::verify(&determinism::standard_configs(n));
    let all_ok = results.iter().all(|r| r.ok());
    if as_json {
        let elems = results.iter().map(|r| {
            let mut o = json::Object::new();
            o.str_field("config", &r.name)
                .num_field("report_digest_1", r.first.report)
                .num_field("report_digest_2", r.second.report)
                .num_field("hierarchy_digest_1", r.first.hierarchy)
                .num_field("hierarchy_digest_2", r.second.hierarchy)
                .bool_field("ok", r.ok());
            o.finish()
        });
        let mut o = json::Object::new();
        o.raw_field("configs", &json::array(elems))
            .num_field("n", n as u64)
            .bool_field("ok", all_ok);
        println!("{}", o.finish());
    } else {
        for r in &results {
            println!(
                "{:12} report {:016x}/{:016x} hierarchy {:016x}/{:016x} {}",
                r.name,
                r.first.report,
                r.second.report,
                r.first.hierarchy,
                r.second.hierarchy,
                if r.ok() { "OK" } else { "MISMATCH" }
            );
        }
        println!(
            "xtask audit-determinism: n={} over {} config(s): {}",
            n,
            results.len(),
            if all_ok {
                "deterministic"
            } else {
                "NONDETERMINISTIC"
            }
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("audit-determinism") => cmd_audit_determinism(&args[1..]),
        _ => usage(),
    }
}
