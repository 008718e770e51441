//! Repo-specific lint engine (`cargo xtask lint`).
//!
//! Nine lints guard the invariants the generic toolchain cannot see.
//! The six original rules:
//!
//! * `no-wallclock-or-thread-rng` — simulation crates must be a closed
//!   system: no `SystemTime::now` / `Instant::now` / OS-entropy RNG. All
//!   randomness flows through `chlm_geom::SimRng`, all time through the
//!   tick counter, or runs stop being reproducible from `(config, seed)`.
//! * `no-unordered-iteration` — iterating a `HashMap`/`HashSet` in
//!   accounting code makes float accumulation order (and therefore the
//!   last bit of every reported metric) depend on the hasher. Use
//!   `BTreeMap`/`BTreeSet` or sort before iterating.
//! * `no-unwrap-in-lib` — library code must not panic on absent values;
//!   a site that truly cannot fail carries a `// audit: infallible
//!   because ...` justification.
//! * `no-float-eq` — metric code must not compare floats with `==`/`!=`
//!   or `partial_cmp().unwrap()`; accumulated values are never exact.
//! * `no-step-path-copies` — per-tick code must not materialize fresh
//!   copies of position/topology buffers with `.to_vec()` / `.clone()`;
//!   reuse persistent storage (`clone_from`, `copy_from`,
//!   double-buffering). Construction-time copies are allowlisted.
//! * `no-step-path-nondeterminism` — parallel code in the step path must
//!   merge results in job-index order (the `chlm_par::WorkerPool`
//!   contract), never in scheduling order: no rayon-style adapters, no
//!   atomic float accumulation, no reductions over joined handles or
//!   inside a raw `crossbeam::scope` region.
//!
//! Three rules only the AST engine can express (see [`crate::analysis`]):
//!
//! * `no-iteration-order-escape` — hash-container iteration is fine when
//!   the stream is folded through an order-insensitive sink (`count`,
//!   `all`/`any`, integer `sum`, collect-into-BTree, collect-into-Vec
//!   followed by a sort); anything else lets hasher order escape into
//!   observable state.
//! * `rng-stream-discipline` — RNG seeding on the step path must derive
//!   from the per-`(seed, tick, shard)` stream constructor
//!   (`shard_loss_seed`); seed arguments are chased through reachable
//!   callers so a forwarded parameter is judged by what callers pass.
//! * `interior-mutability-audit` — `Mutex`/`RwLock`/`RefCell`/atomics on
//!   the step path need an explicit `// AUDIT: ...` line arguing why the
//!   shared-state update preserves determinism.
//!
//! Scoping: the original path scopes still apply, and the step-path
//! rules additionally fire in any function the call graph proves
//! reachable from a step root (`Simulation::step`, `MultiplexSim::step`,
//! stage/observer/scheme trait impls, everything in `chlm-par`). The
//! reachable set is exported as `target/step_reach.json` on workspace
//! scans.
//!
//! Findings can be waived via `xtask/allowlists/<lint>.txt`, one entry
//! per line:
//!
//! ```text
//! path/suffix.rs :: substring-of-the-line  # reason the site is fine
//! ```
//!
//! Allowlists are themselves checked for staleness: an entry that waives
//! no finding in the whole workspace scan fails the lint. Waivers must
//! die with the code they excuse, or they silently grow into blanket
//! exemptions that would mask a *new* violation on a matching line.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::analysis;

pub const LINT_WALLCLOCK: &str = "no-wallclock-or-thread-rng";
pub const LINT_UNORDERED: &str = "no-unordered-iteration";
pub const LINT_UNWRAP: &str = "no-unwrap-in-lib";
pub const LINT_FLOAT_EQ: &str = "no-float-eq";
pub const LINT_STEP_COPY: &str = "no-step-path-copies";
pub const LINT_NONDET: &str = "no-step-path-nondeterminism";
pub const LINT_ITER_ESCAPE: &str = "no-iteration-order-escape";
pub const LINT_RNG_STREAM: &str = "rng-stream-discipline";
pub const LINT_INTERIOR_MUT: &str = "interior-mutability-audit";

pub const ALL_LINTS: [&str; 9] = [
    LINT_WALLCLOCK,
    LINT_UNORDERED,
    LINT_UNWRAP,
    LINT_FLOAT_EQ,
    LINT_STEP_COPY,
    LINT_NONDET,
    LINT_ITER_ESCAPE,
    LINT_RNG_STREAM,
    LINT_INTERIOR_MUT,
];

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub lint: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.lint, self.message, self.excerpt
        )
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// Findings waived by allowlist entries.
    pub allowed: usize,
    /// Allowlist entries that waived nothing (workspace scans only) —
    /// rendered as `<lint>: <path_suffix> :: <line_substring>`.
    pub stale: Vec<String>,
    pub files_scanned: usize,
    /// `target/step_reach.json` document (workspace scans with at least
    /// one step root); the binary writes it next to the scan.
    pub reach_json: Option<String>,
}

impl LintReport {
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Closed-system crates: no wallclock, no OS entropy.
const WALLCLOCK_SCOPE: [&str; 5] = [
    "crates/sim/src/",
    "crates/proto/src/",
    "crates/cluster/src/",
    "crates/mobility/src/",
    "crates/lm/src/",
];

/// Per-tick step-path code: every allocation here recurs every tick, so
/// buffer copies that could reuse persistent storage are flagged. The
/// staged pipeline spread the step path over stage/observe/cost/scheme/
/// transport, so all of them sit in scope alongside the engine itself, as does the
/// routing table `cost` rebuilds every tick. (The call
/// graph extends this scope to everything reachable from a step root.)
const STEP_COPY_SCOPE: [&str; 10] = [
    "crates/sim/src/engine.rs",
    "crates/sim/src/stage.rs",
    "crates/sim/src/observe.rs",
    "crates/sim/src/cost.rs",
    "crates/sim/src/scheme.rs",
    "crates/sim/src/transport.rs",
    "crates/routing/src/nexthop.rs",
    "crates/graph/src/incremental.rs",
    "crates/graph/src/dynamics.rs",
    "crates/mobility/src/",
];

/// Files policed for scheduling-order leaks beyond the step-path scope
/// itself: the pool abstraction, the startup calibration (a float sum
/// over sampled pairs), and the replication fan-out.
const NONDET_EXTRA_SCOPE: [&str; 3] = [
    "crates/par/src/",
    "crates/sim/src/oracle.rs",
    "crates/sim/src/runner.rs",
];

/// Metric/accounting files where float equality is meaningless.
const FLOAT_EQ_SCOPE: [&str; 4] = [
    "crates/analysis/src/",
    "crates/sim/src/report.rs",
    "crates/lm/src/handoff.rs",
    "crates/cluster/src/metrics.rs",
];

/// Does `lint` apply to `path` when scanning the whole workspace? (The
/// step-path lints additionally apply to any function the call graph
/// proves reachable from a step root — that test lives in the analysis
/// layer, this is the path-scope half only.)
pub fn lint_applies(lint: &str, path: &str) -> bool {
    match lint {
        LINT_WALLCLOCK => WALLCLOCK_SCOPE.iter().any(|p| path.starts_with(p)),
        LINT_UNORDERED => path.starts_with("crates/") && path.contains("/src/"),
        LINT_UNWRAP => {
            path.starts_with("crates/")
                && path.contains("/src/")
                // bench is a bin-only crate (experiment drivers); panicking
                // on bad CLI input there is fine.
                && !path.starts_with("crates/bench/")
                && !path.contains("/src/bin/")
        }
        LINT_FLOAT_EQ => FLOAT_EQ_SCOPE.iter().any(|p| path.starts_with(p)),
        LINT_STEP_COPY => STEP_COPY_SCOPE.iter().any(|p| path.starts_with(p)),
        LINT_NONDET => STEP_COPY_SCOPE
            .iter()
            .chain(NONDET_EXTRA_SCOPE.iter())
            .any(|p| path.starts_with(p)),
        // Escape analysis covers all library code; its order-insensitive
        // sink exemptions keep the noise down instead of a narrow scope.
        LINT_ITER_ESCAPE => path.starts_with("crates/") && path.contains("/src/"),
        // Purely reachability-scoped: the analysis layer runs these only
        // on the step path, so the path half accepts all library code.
        LINT_RNG_STREAM | LINT_INTERIOR_MUT => {
            path.starts_with("crates/") && path.contains("/src/")
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Allowlists
// ---------------------------------------------------------------------------

/// One allowlist entry: `path_suffix :: line_substring # reason`.
#[derive(Debug)]
pub struct AllowEntry {
    pub path_suffix: String,
    pub line_substring: String,
}

/// Parse an allowlist file's text (missing file == empty list).
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = match raw.find('#') {
            Some(h) => &raw[..h],
            None => raw,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some((path, substr)) = line.split_once("::") {
            out.push(AllowEntry {
                path_suffix: path.trim().to_string(),
                line_substring: substr.trim().to_string(),
            });
        }
    }
    out
}

fn load_allowlist(root: &Path, lint: &str) -> Vec<AllowEntry> {
    let path = root.join("xtask/allowlists").join(format!("{lint}.txt"));
    match fs::read_to_string(path) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    }
}

fn entry_matches(e: &AllowEntry, f: &Finding) -> bool {
    f.file.ends_with(&e.path_suffix) && f.excerpt.contains(&e.line_substring)
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(&*name, "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint the whole workspace under `root` (scope rules + allowlists apply).
pub fn run_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    for top in ["crates", "xtask/src", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        sources.push((rel_path(root, file), fs::read_to_string(file)?));
    }
    let files_scanned = sources.len();
    let result = analysis::analyze(sources, false)?;

    // Per lint: its allowlist entries plus a used-bit per entry, so
    // entries that waive nothing can be reported as stale afterwards.
    let mut allowlists: Vec<(String, Vec<AllowEntry>, Vec<bool>)> = ALL_LINTS
        .iter()
        .map(|&l| {
            let entries = load_allowlist(root, l);
            let used = vec![false; entries.len()];
            (l.to_string(), entries, used)
        })
        .collect();

    let mut report = LintReport {
        files_scanned,
        reach_json: result.reach_json,
        ..LintReport::default()
    };
    for f in result.findings {
        let mut waived = false;
        if let Some((_, entries, used)) = allowlists.iter_mut().find(|(l, _, _)| *l == f.lint) {
            // Mark every matching entry used (overlapping entries must
            // not shadow each other into false staleness).
            for (e, u) in entries.iter().zip(used.iter_mut()) {
                if entry_matches(e, &f) {
                    *u = true;
                    waived = true;
                }
            }
        }
        if waived {
            report.allowed += 1;
        } else {
            report.findings.push(f);
        }
    }
    for (lint, entries, used) in &allowlists {
        for (e, &u) in entries.iter().zip(used) {
            if !u {
                report
                    .stale
                    .push(format!("{lint}: {} :: {}", e.path_suffix, e.line_substring));
            }
        }
    }
    Ok(report)
}

/// Lint explicit files/directories with ALL lints and no allowlists —
/// used by the negative-fixture tests and for spot checks. Every
/// function is treated as step-path-reachable.
pub fn run_paths(paths: &[PathBuf]) -> io::Result<LintReport> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file.to_string_lossy().replace('\\', "/");
        sources.push((rel, fs::read_to_string(file)?));
    }
    let files_scanned = sources.len();
    let result = analysis::analyze(sources, true)?;
    Ok(LintReport {
        findings: result.findings,
        files_scanned,
        ..LintReport::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parsing_strips_comments_and_blanks() {
        let allow = parse_allowlist(
            "# header\n\
             sim/src/engine.rs :: buf.clone()  # construction-time\n\
             \n\
             lm/src/gls.rs :: positions.to_vec()\n",
        );
        assert_eq!(allow.len(), 2);
        assert_eq!(allow[0].path_suffix, "sim/src/engine.rs");
        assert_eq!(allow[0].line_substring, "buf.clone()");
        assert_eq!(allow[1].line_substring, "positions.to_vec()");
    }

    #[test]
    fn allow_entries_match_on_suffix_and_substring() {
        let f = Finding {
            lint: LINT_STEP_COPY,
            file: "crates/sim/src/engine.rs".into(),
            line: 6,
            excerpt: "let book = seed.clone();".into(),
            message: String::new(),
        };
        let e = AllowEntry {
            path_suffix: "sim/src/engine.rs".into(),
            line_substring: "seed.clone()".into(),
        };
        assert!(entry_matches(&e, &f));
        let miss = AllowEntry {
            path_suffix: "sim/src/engine.rs".into(),
            line_substring: "positions.to_vec()".into(),
        };
        assert!(!entry_matches(&miss, &f));
    }

    #[test]
    fn scopes_follow_the_step_path() {
        assert!(lint_applies(LINT_WALLCLOCK, "crates/sim/src/engine.rs"));
        assert!(!lint_applies(
            LINT_WALLCLOCK,
            "crates/analysis/src/stats.rs"
        ));
        assert!(lint_applies(LINT_UNWRAP, "crates/graph/src/lib.rs"));
        assert!(!lint_applies(LINT_UNWRAP, "crates/bench/src/main.rs"));
        assert!(lint_applies(LINT_FLOAT_EQ, "crates/lm/src/handoff.rs"));
        assert!(!lint_applies(LINT_FLOAT_EQ, "crates/lm/src/server.rs"));
        assert!(lint_applies(LINT_STEP_COPY, "crates/sim/src/engine.rs"));
        assert!(lint_applies(LINT_STEP_COPY, "crates/sim/src/stage.rs"));
        assert!(lint_applies(LINT_STEP_COPY, "crates/sim/src/observe.rs"));
        assert!(lint_applies(LINT_STEP_COPY, "crates/sim/src/cost.rs"));
        assert!(lint_applies(LINT_STEP_COPY, "crates/sim/src/scheme.rs"));
        assert!(lint_applies(LINT_STEP_COPY, "crates/sim/src/transport.rs"));
        assert!(lint_applies(
            LINT_STEP_COPY,
            "crates/graph/src/incremental.rs"
        ));
        assert!(lint_applies(LINT_STEP_COPY, "crates/mobility/src/walk.rs"));
        assert!(!lint_applies(LINT_STEP_COPY, "crates/sim/src/report.rs"));
        assert!(lint_applies(LINT_NONDET, "crates/par/src/lib.rs"));
        assert!(lint_applies(LINT_NONDET, "crates/sim/src/runner.rs"));
        assert!(lint_applies(LINT_NONDET, "crates/sim/src/oracle.rs"));
        assert!(lint_applies(LINT_NONDET, "crates/sim/src/transport.rs"));
        assert!(!lint_applies(LINT_NONDET, "crates/sim/src/report.rs"));
        assert!(!lint_applies(LINT_NONDET, "crates/analysis/src/stats.rs"));
        assert!(lint_applies(LINT_ITER_ESCAPE, "crates/lm/src/server.rs"));
        assert!(!lint_applies(LINT_ITER_ESCAPE, "crates/lm/tests/it.rs"));
        assert!(lint_applies(LINT_RNG_STREAM, "crates/proto/src/network.rs"));
        assert!(lint_applies(LINT_INTERIOR_MUT, "crates/par/src/lib.rs"));
    }

    /// A scope entry or root naming a file that was deleted or moved
    /// polices nothing, silently: every scoped path must exist, and every
    /// root trait must be declared in library code.
    #[test]
    fn scopes_and_roots_name_what_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask sits in the workspace root");
        let scoped = WALLCLOCK_SCOPE
            .iter()
            .chain(&STEP_COPY_SCOPE)
            .chain(&NONDET_EXTRA_SCOPE)
            .chain(&FLOAT_EQ_SCOPE)
            .chain([&analysis::graph::ROOT_PATH_PREFIX]);
        for path in scoped {
            assert!(
                root.join(path).exists(),
                "scope names a missing path: {path}"
            );
        }
        let mut files = Vec::new();
        for krate in fs::read_dir(root.join("crates")).expect("crates/") {
            let src = krate.expect("crate dir").path().join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files).expect("crate sources");
            }
        }
        let sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).expect("readable source"))
            .collect();
        for name in analysis::graph::ROOT_TRAITS {
            let decl = format!("trait {name}");
            let declared = sources.iter().flat_map(|s| s.lines()).any(|line| {
                let line = line.trim_start();
                let line = line.strip_prefix("pub ").unwrap_or(line);
                line.strip_prefix(&decl).is_some_and(|rest| {
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            });
            assert!(
                declared,
                "root trait {name} is declared nowhere in crates/*/src"
            );
        }
    }
}
