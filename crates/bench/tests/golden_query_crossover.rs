//! Golden snapshot for the E27 update-vs-query crossover.
//!
//! Runs the pinned [`CrossoverSpec::golden`] grid (n = 256, 2 seeds,
//! walk + waypoint, CMR ∈ {1, 4}, 3 schemes × 2 backends) through the
//! same library code the `exp_query_crossover` record (E27) uses and
//! compares the canonical JSON against
//! `tests/golden/query_crossover_n256.json`, byte for byte. The query plane's headline output cannot silently
//! drift: any change to arrival draws, lookup routing, pricing, or the
//! crossover extraction shows up here.
//!
//! Regenerate (only for an *intentional* model change):
//!
//! ```text
//! CHLM_REGEN_GOLDEN=1 cargo test -p chlm-bench --test golden_query_crossover --release
//! ```
//!
//! The numbers are thread-count invariant (see `chlm-sim`'s
//! `tests/thread_invariance.rs`), so regeneration at any `CHLM_THREADS`
//! produces the same file.

use chlm_bench::query_crossover::{rows_json, run_crossover, CrossoverSpec};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/query_crossover_n256.json"
);

#[test]
fn query_crossover_matches_golden_snapshot() {
    let spec = CrossoverSpec::golden();
    let (rows, crossovers) = run_crossover(&spec);
    // 2 mobilities × 3 schemes × 2 backends × 1 size × 2 cmrs.
    assert_eq!(rows.len(), 24);
    // 2 mobilities × 3 schemes × 2 backends × 1 size.
    assert_eq!(crossovers.len(), 12);
    let json = rows_json(&spec, &rows, &crossovers);
    if std::env::var("CHLM_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); regenerate with \
             `CHLM_REGEN_GOLDEN=1 cargo test -p chlm-bench --test golden_query_crossover --release`"
        )
    });
    assert_eq!(
        json, want,
        "E27 query-crossover output drifted from the golden snapshot; if the \
         model change is intentional, regenerate with `CHLM_REGEN_GOLDEN=1 \
         cargo test -p chlm-bench --test golden_query_crossover --release`"
    );
}
