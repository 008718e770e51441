//! Cross-crate integration tests: the full pipeline from deployment through
//! mobility, clustering, location management and measurement.

use chlm::prelude::*;
use chlm::sim::{run_multiplexed, LmScheme, VariantSpec};

fn quick(n: usize, seed: u64) -> SimConfig {
    SimConfig::builder(n)
        .duration(4.0)
        .warmup(2.0)
        .seed(seed)
        .query_rate(1.0)
        .build()
}

#[test]
fn full_pipeline_determinism() {
    let a = run_simulation(&quick(150, 11));
    let b = run_simulation(&quick(150, 11));
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(a.events, b.events);
    assert_eq!(a.f0, b.f0);
    assert_eq!(a.query, b.query);
}

#[test]
fn overhead_grows_sublinearly() {
    // 4x the nodes should cost far less than 4x the per-node overhead —
    // the point of the whole paper. (Full statistical verification lives in
    // the experiment binaries; this is the smoke-test version.)
    let reports = run_cells(&[quick(128, 0), quick(512, 0)], &[1, 2, 3], 3);
    let mean =
        |rs: &[SimReport]| rs.iter().map(|r| r.total_overhead()).sum::<f64>() / rs.len() as f64;
    let (s, l) = (mean(&reports[0]), mean(&reports[1]));
    assert!(s > 0.0 && l > 0.0);
    assert!(
        l / s < 3.0,
        "per-node overhead grew {l:.2}/{s:.2} = {:.2}x for 4x nodes",
        l / s
    );
}

#[test]
fn f0_flat_in_network_size() {
    // eq. (4): level-0 link-change frequency per node is Θ(1) in n.
    let small = run_simulation(&quick(128, 5));
    let large = run_simulation(&quick(512, 5));
    let ratio = large.f0 / small.f0;
    assert!(
        (0.6..1.6).contains(&ratio),
        "f0 not flat: {} vs {} (ratio {ratio:.2})",
        small.f0,
        large.f0
    );
}

#[test]
fn entries_hosted_grow_logarithmically() {
    // Mean LM entries per node = depth - 2 = Θ(log n).
    let small = run_simulation(&quick(128, 6));
    let large = run_simulation(&quick(512, 6));
    assert!(large.mean_entries_hosted >= small.mean_entries_hosted);
    assert!(
        large.mean_entries_hosted <= small.mean_entries_hosted + 4.0,
        "entries grew too fast: {} -> {}",
        small.mean_entries_hosted,
        large.mean_entries_hosted
    );
}

#[test]
fn faster_mobility_costs_more() {
    let slow = run_simulation(&{
        let mut c = quick(150, 8);
        c.speed = 1.0;
        c
    });
    let fast = run_simulation(&{
        let mut c = quick(150, 8);
        c.speed = 4.0;
        c
    });
    assert!(fast.f0 > slow.f0, "f0: {} !> {}", fast.f0, slow.f0);
    assert!(
        fast.total_overhead() > slow.total_overhead(),
        "overhead: {} !> {}",
        fast.total_overhead(),
        slow.total_overhead()
    );
}

#[test]
fn gls_and_chlm_both_tracked() {
    // One world, two banks: each must book overhead, and each must equal
    // the standalone run of its own scheme.
    let cfg = quick(150, 9);
    let variants: Vec<VariantSpec> = [("chlm", LmScheme::Chlm), ("gls", LmScheme::Gls)]
        .into_iter()
        .map(|(name, scheme)| VariantSpec::new(name, scheme, cfg.hop_metric, cfg.backend))
        .collect();
    let reports = run_multiplexed(&cfg, &variants);
    for (report, variant) in reports.iter().zip(&variants) {
        assert!(report.total_overhead() > 0.0, "{} idle", variant.label);
        assert_eq!(report, &run_simulation(&variant.apply(&cfg)));
    }
}

/// The production engine reproduces the golden wall's `report.waypoint.11`
/// pin. The value lives only in the wall's manifest, which regenerates it;
/// this test reads it.
#[test]
fn report_digest_is_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/bench/tests/golden/pins.txt"
    );
    let pins = std::fs::read_to_string(path).expect("golden wall manifest");
    let want = pins
        .lines()
        .find_map(|l| l.strip_prefix("report.waypoint.11 = "));
    let cfg = SimConfig::builder(90)
        .mobility(MobilityKind::Waypoint)
        .duration(2.0)
        .warmup(0.5)
        .seed(11)
        .build();
    let got = format!("{:#018x}", run_simulation(&cfg).digest());
    assert_eq!(want, Some(got.as_str()), "report.waypoint.11 drifted");
}

#[test]
fn max_levels_caps_depth_and_entries() {
    let mut cfg = quick(200, 12);
    cfg.max_levels = 3;
    let r = run_simulation(&cfg);
    assert!(r.depth <= 3);
    assert!(r.mean_entries_hosted <= 1.0 + 1e-9); // only level-2 entries
}

#[test]
fn non_finite_cli_numbers_are_rejected_before_any_tick_loop() {
    // `chlm simulate --nodes 32` with `--duration inf --warmup 0`,
    // `--duration 1 --warmup inf` or `--speed inf` used to hang in (or die
    // inside) the tick loops; `build()` must refuse all three, naming the
    // field. Checked through the builder: a subprocess could hang the suite.
    let builder = || SimConfig::builder(32);
    let cases = [
        ("duration", builder().duration(f64::INFINITY).warmup(0.0)),
        ("warmup", builder().duration(1.0).warmup(f64::INFINITY)),
        ("speed", builder().speed(f64::INFINITY)),
    ];
    for (field, case) in cases {
        let panic =
            std::panic::catch_unwind(|| case.build()).expect_err("non-finite config was accepted");
        let message = panic
            .downcast_ref::<String>()
            .expect("validation panics carry a formatted message");
        assert!(
            message.contains(&format!("{field} must be finite")),
            "{field}: unexpected message `{message}`"
        );
    }
}
