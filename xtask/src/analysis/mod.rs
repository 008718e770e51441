//! AST-based determinism analysis (`cargo xtask lint`'s engine).
//!
//! Pipeline: every `.rs` file is parsed with the vendored `syn` subset
//! into a [`model::Workspace`] (function nodes with impl/trait context,
//! signatures, and flattened body tokens), a best-effort name-resolved
//! call graph is built over it ([`graph`]), step-path reachability is
//! computed from the simulation roots (`Simulation::step`,
//! `MultiplexSim::step`, stage/observer/scheme trait impls, everything
//! in `chlm-par`), and the typed lint checks ([`checks`]) run over each
//! function with per-lint scoping:
//!
//! * legacy path scopes are kept, and the step-path lints (wallclock,
//!   step-copy, nondeterminism) additionally fire in any function the
//!   call graph proves reachable from a step root;
//! * the RNG-stream and interior-mutability lints fire *only* on the
//!   reachable set — they police the step path, not the whole tree;
//! * iteration-order escape analysis runs on all library code.
//!
//! In fixture mode (`cargo xtask lint --path`), every lint runs on every
//! function and reachability is assumed, so single-file fixtures behave
//! as if they sat on the step path.

pub mod checks;
pub mod comments;
pub mod graph;
pub mod model;
pub mod scan;

use std::io;

use crate::lint::{
    lint_applies, Finding, LINT_FLOAT_EQ, LINT_ITER_ESCAPE, LINT_NONDET, LINT_STEP_COPY,
    LINT_UNORDERED, LINT_UNWRAP, LINT_WALLCLOCK,
};

/// Result of analyzing a set of sources.
pub struct Analysis {
    /// All findings, sorted by (file, line, lint), deduplicated.
    pub findings: Vec<Finding>,
    /// `target/step_reach.json` document — present only for workspace
    /// scans that found at least one step root.
    pub reach_json: Option<String>,
}

/// Analyze already-read sources. `files` pairs each workspace-relative
/// (`/`-separated) path with its contents; `fixture_mode` disables all
/// scoping (every lint, every function, reachability assumed).
pub fn analyze(files: Vec<(String, String)>, fixture_mode: bool) -> io::Result<Analysis> {
    let mut ws = model::Workspace {
        path_test_rules: !fixture_mode,
        ..Default::default()
    };
    for (rel, source) in files {
        ws.add_file(rel, source)?;
    }
    let resolver = graph::Resolver::build(&ws);
    let g = graph::build(&ws, &resolver);
    let ctx = checks::CheckCtx {
        ws: &ws,
        graph: &g,
        resolver: &resolver,
        all_reachable: fixture_mode,
    };

    let mut findings = Vec::new();
    for node in &ws.fns {
        if node.is_test || !node.has_body {
            continue;
        }
        let rel = &ws.files[node.file].rel;
        // Reachability only extends scope inside the simulation crates:
        // over-approximate name resolution can drag tooling code (xtask
        // itself) into the reachable set via common method names, and
        // tooling is by definition not on the step path.
        let on_path = fixture_mode
            || (g.reachable[node.id] && rel.starts_with("crates/") && rel.contains("/src/"));
        let scoped = |l: &str| fixture_mode || lint_applies(l, rel);
        if scoped(LINT_WALLCLOCK) || on_path {
            checks::check_wallclock(&ctx, node, &mut findings);
        }
        if scoped(LINT_UNORDERED) {
            checks::check_unordered(&ctx, node, &mut findings);
        }
        if scoped(LINT_UNWRAP) {
            checks::check_unwrap(&ctx, node, &mut findings);
        }
        if scoped(LINT_FLOAT_EQ) {
            checks::check_float_eq(&ctx, node, &mut findings);
        }
        if scoped(LINT_STEP_COPY) || on_path {
            checks::check_step_copy(&ctx, node, &mut findings);
        }
        if scoped(LINT_NONDET) || on_path {
            checks::check_nondet(&ctx, node, &mut findings);
        }
        if scoped(LINT_ITER_ESCAPE) {
            checks::check_iter_escape(&ctx, node, &mut findings);
        }
        if on_path {
            checks::check_rng_stream(&ctx, node, &mut findings);
            checks::check_interior_mut(&ctx, node, &mut findings);
        }
    }
    // Items the parser leaves as raw tokens (uses, consts, statics) can
    // still smuggle in wallclock/entropy calls.
    for file in 0..ws.files.len() {
        if fixture_mode || lint_applies(LINT_WALLCLOCK, &ws.files[file].rel) {
            checks::check_wallclock_verbatim(&ctx, file, &mut findings);
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings.dedup_by(|a, b| a.lint == b.lint && a.file == b.file && a.line == b.line);
    // A line the legacy unordered-iteration lint already flags does not
    // need the escape-analysis finding on top.
    let unordered: std::collections::BTreeSet<(String, usize)> = findings
        .iter()
        .filter(|f| f.lint == LINT_UNORDERED)
        .map(|f| (f.file.clone(), f.line))
        .collect();
    findings
        .retain(|f| f.lint != LINT_ITER_ESCAPE || !unordered.contains(&(f.file.clone(), f.line)));

    let reach_json = if fixture_mode || g.roots.is_empty() {
        None
    } else {
        Some(graph::reach_json(&ws, &g))
    };
    Ok(Analysis {
        findings,
        reach_json,
    })
}
