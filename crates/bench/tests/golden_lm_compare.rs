//! Golden snapshot for the E24 scheme comparison.
//!
//! Runs the pinned [`CompareSpec::golden`] grid (n = 256, 2 seeds,
//! walk + waypoint, all three schemes) through the same library code the
//! `exp_lm_compare` record (E24) uses and compares the canonical JSON
//! against `tests/golden/lm_compare_n256.json`, byte for byte. Scheme-ranking
//! output cannot silently drift: any change to mobility, topology,
//! hierarchy, pricing, or scheme accounting shows up here.
//!
//! Regenerate (only for an *intentional* model change):
//!
//! ```text
//! CHLM_REGEN_GOLDEN=1 cargo test -p chlm-bench --test golden_lm_compare --release
//! ```
//!
//! The numbers are thread-count invariant (see `chlm-sim`'s
//! `tests/thread_invariance.rs`), so regeneration at any `CHLM_THREADS`
//! produces the same file.

use chlm_bench::lm_compare::{rows_json, run_compare, CompareSpec};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lm_compare_n256.json"
);

#[test]
fn lm_compare_matches_golden_snapshot() {
    let spec = CompareSpec::golden();
    let rows = run_compare(&spec);
    // 2 mobilities × 3 schemes × 1 size.
    assert_eq!(rows.len(), 6);
    let json = rows_json(&spec, &rows);
    if std::env::var("CHLM_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); regenerate with \
             `CHLM_REGEN_GOLDEN=1 cargo test -p chlm-bench --test golden_lm_compare --release`"
        )
    });
    assert_eq!(
        json, want,
        "E24 scheme-comparison output drifted from the golden snapshot; if the \
         model change is intentional, regenerate with `CHLM_REGEN_GOLDEN=1 \
         cargo test -p chlm-bench --test golden_lm_compare --release`"
    );
}
