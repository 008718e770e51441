//! Golden tests pinning the analyzer's machine-readable surfaces: the
//! Finding JSON schema CI parses out of `cargo xtask lint --json`, and the
//! shape of the `target/step_reach.json` reachability export. These
//! shapes are consumed by scripts outside this repo's type system, so
//! drift must be a deliberate, test-breaking act.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::lint;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level under the workspace root")
        .to_path_buf()
}

/// Extract the first `"key":…` value substring of a flat JSON object.
fn key_pos(obj: &str, key: &str) -> Option<usize> {
    obj.find(&format!("\"{key}\":"))
}

#[test]
fn finding_json_schema_is_stable() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--json", "--path"])
        .arg(fixture("step_copy.rs"))
        .output()
        .expect("spawn xtask binary");
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Report envelope: every key present, `findings` first.
    for key in ["findings", "stale", "allowed", "files_scanned", "ok"] {
        assert!(key_pos(&stdout, key).is_some(), "missing `{key}`: {stdout}");
    }

    // First finding object: exactly the five schema keys, in order.
    let start = stdout
        .find("\"findings\":[{")
        .expect("at least one finding")
        + "\"findings\":[".len();
    let end = stdout[start..]
        .find('}')
        .map(|i| start + i + 1)
        .expect("object end");
    let obj = &stdout[start..end];
    let keys = ["lint", "file", "line", "excerpt", "message"];
    let mut last = 0;
    for key in keys {
        let p = key_pos(obj, key).unwrap_or_else(|| panic!("missing `{key}` in {obj}"));
        assert!(p >= last, "`{key}` out of order in {obj}");
        last = p;
    }
    // No extra keys: five colons after quoted keys, five quoted keys.
    let quoted_keys = obj.matches("\",\"").count();
    assert!(
        quoted_keys <= keys.len(),
        "unexpected extra fields in {obj}"
    );
    assert!(obj.contains("\"lint\":\"no-step-path-copies\""), "{obj}");
    assert!(obj.contains("step_copy.rs"), "{obj}");
}

#[test]
fn step_reach_export_shape() {
    let report = lint::run_workspace(&repo_root()).expect("workspace scan");
    let reach = report
        .reach_json
        .as_deref()
        .expect("workspace scans must export reachability");

    // Envelope keys, in order: roots, count, functions.
    let roots_p = key_pos(reach, "roots").expect("roots");
    let count_p = key_pos(reach, "count").expect("count");
    let fns_p = key_pos(reach, "functions").expect("functions");
    assert!(roots_p < count_p && count_p < fns_p, "{reach:?}");

    // The step roots must include the two engine entry points.
    let roots = &reach[roots_p..count_p];
    assert!(
        roots.contains("Simulation::step"),
        "roots lost Simulation::step"
    );
    assert!(
        roots.contains("MultiplexSim::step"),
        "roots lost MultiplexSim::step"
    );

    // The reachable set must be a real closure, not a handful of roots.
    let count_str = &reach[count_p + "\"count\":".len()..];
    let count: usize = count_str
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("count is a number");
    assert!(count >= 50, "step-path closure suspiciously small: {count}");

    // Every function entry carries fn/file/line/root, in order.
    let first_fn = &reach[fns_p..];
    let obj_start = first_fn.find('{').expect("function object") + fns_p;
    let obj_end = reach[obj_start..]
        .find('}')
        .map(|i| obj_start + i + 1)
        .expect("object end");
    let obj = &reach[obj_start..obj_end];
    let mut last = 0;
    for key in ["fn", "file", "line", "root"] {
        let p = key_pos(obj, key).unwrap_or_else(|| panic!("missing `{key}` in {obj}"));
        assert!(p >= last, "`{key}` out of order in {obj}");
        last = p;
    }
}
