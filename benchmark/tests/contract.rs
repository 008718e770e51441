//! The files outside the code that the benchmark must stay in step with.

use chlm_benchmark::contract;
use chlm_benchmark::json;
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` is what `chlm-benchmark contract` prints: same
/// workloads, metric names, units, directions and bounds as the binaries
/// use. Regenerate it with that command after changing any of them.
#[test]
fn benchmark_json_matches_the_code() {
    let on_disk = json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(on_disk, contract::document());
}

/// The `[profile.release]` table of a manifest, as written.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The benchmark builds the simulator with the root workspace's release
/// profile, textually: otherwise it would measure a differently optimised
/// simulator than the one users run.
#[test]
fn release_profile_matches_the_root_manifest() {
    let root = repo_file("Cargo.toml");
    let own = repo_file("benchmark/Cargo.toml");
    let expected = release_profile(&root);
    assert!(
        !expected.is_empty(),
        "root manifest has no [profile.release]"
    );
    assert_eq!(release_profile(&own), expected);
}
