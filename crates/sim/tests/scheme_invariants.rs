//! Scheme-level accounting invariants (ISSUE 5 satellites).
//!
//! * Home agent: the ledger's level-1 event counters equal the trace's
//!   level-1 address-change counters *exactly* — one update per
//!   migration/reorganization, nothing else, and no other level is ever
//!   booked.
//! * CHLM: selecting `LmScheme::Chlm` explicitly is a no-op — reports are
//!   identical to the pre-scheme default on both backends, so the
//!   threading-through refactor cannot have perturbed the PR 3 parity
//!   fixtures.
//! * All schemes: audited runs stay violation-free (the CHLM-specific
//!   ledger reconciliation is gated off for alternate schemes; every other
//!   invariant, including bit-exact exposure, still holds).

use chlm_sim::{run_simulation, Backend, LmScheme, MobilityKind, SimConfig, Simulation};
use proptest::prelude::*;

fn base_cfg(n: usize, seed: u64, scheme: LmScheme, packet: bool) -> SimConfig {
    let mut b = SimConfig::builder(n)
        .duration(1.5)
        .warmup(0.4)
        .seed(seed)
        .lm_scheme(scheme);
    if packet {
        b = b.backend(Backend::packet());
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn home_agent_updates_equal_level1_changes(seed in 0u64..1000, n in 48usize..96) {
        let report = run_simulation(&base_cfg(n, seed, LmScheme::HomeAgent, false));
        // The rates observer counts the address-change stream itself; the
        // home agent must pay for exactly the level-1 part of it.
        let rates_mig = report.rates.migration_events.get(1).copied().unwrap_or(0);
        let rates_reorg = report.rates.reorg_events.get(1).copied().unwrap_or(0);
        let (mig, reorg) = report
            .ledger
            .per_level
            .get(1)
            .map_or((0, 0), |c| (c.migration_events, c.reorg_events));
        prop_assert_eq!(mig, rates_mig);
        prop_assert_eq!(reorg, rates_reorg);
        // And for nothing else: no other ledger level has any events.
        for (k, c) in report.ledger.per_level.iter().enumerate() {
            if k != 1 {
                prop_assert_eq!(c.migration_events + c.reorg_events, 0,
                    "home agent booked level {}", k);
            }
        }
    }
}

#[test]
fn chlm_scheme_selection_is_a_no_op() {
    for packet in [false, true] {
        for seed in [21, 22] {
            let implicit = {
                let mut b = SimConfig::builder(90).duration(1.5).warmup(0.4).seed(seed);
                if packet {
                    b = b.backend(Backend::packet());
                }
                run_simulation(&b.build())
            };
            let explicit = run_simulation(&base_cfg(90, seed, LmScheme::Chlm, packet));
            assert_eq!(implicit, explicit, "seed {seed} packet={packet}");
        }
    }
}

#[test]
fn audited_scheme_runs_are_violation_free() {
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for packet in [false, true] {
            let mut cfg = base_cfg(72, 31, scheme, packet);
            cfg.mobility = MobilityKind::Waypoint;
            let (report, violations) = Simulation::new(cfg).run_audited();
            assert!(
                violations.is_empty(),
                "{scheme:?} packet={packet}: {violations:?}"
            );
            assert!(report.rates.node_seconds > 0.0);
        }
    }
}

#[test]
fn gls_scheme_mobile_network_pays_overhead() {
    let report = run_simulation(&base_cfg(96, 41, LmScheme::Gls, false));
    assert!(
        report.total_overhead() > 0.0,
        "mobile GLS produced zero overhead"
    );
    // Bands book at level >= 2 only (band b -> ledger level b + 2).
    for (k, c) in report.ledger.per_level.iter().enumerate().take(2) {
        assert_eq!(
            c.migration_events + c.reorg_events,
            0,
            "GLS booked level {k}"
        );
    }
}

/// A nonzero-CMR variant of [`base_cfg`] for the query-plane invariants.
fn query_cfg(n: usize, seed: u64, scheme: LmScheme, packet: bool) -> SimConfig {
    let mut cfg = base_cfg(n, seed, scheme, packet);
    cfg.query_rate = 2.0;
    cfg
}

#[test]
fn home_agent_resolves_every_arrival() {
    // The home-agent detour never fails: every node always has a home
    // (HRW over all other ids, or itself when n == 1), so the lookup
    // count equals the query arrivals *exactly* on both backends.
    for packet in [false, true] {
        let report = run_simulation(&query_cfg(72, 61, LmScheme::HomeAgent, packet));
        let q = report.query.expect("query plane on");
        assert!(q.arrivals > 0, "nonzero query_rate produced no arrivals");
        assert_eq!(q.resolved, q.arrivals, "packet={packet}");
        assert_eq!(q.unresolved, 0, "packet={packet}");
    }
}

#[test]
fn query_lookups_deterministic_across_runs() {
    // The whole query plane — arrival draws, routes, prices — is a pure
    // function of (config, seed): back-to-back runs agree bit-for-bit.
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        for packet in [false, true] {
            let cfg = query_cfg(72, 71, scheme, packet);
            let a = run_simulation(&cfg);
            let b = run_simulation(&cfg);
            assert_eq!(a, b, "{scheme:?} packet={packet}");
            assert!(a.query.is_some());
        }
    }
}

#[test]
fn query_stats_internally_consistent() {
    // Booked lookups partition the arrivals; the per-level histogram and
    // the per-tick series both re-sum to the same packet total, and CHLM
    // levels stay below the deepest hierarchy any tick can build (n
    // nodes bound the depth by log2 n + slack).
    for scheme in [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent] {
        let report = run_simulation(&query_cfg(72, 81, scheme, false));
        let q = report.query.as_ref().expect("query plane on");
        assert_eq!(q.resolved + q.unresolved, q.arrivals, "{scheme:?}");
        assert_eq!(
            q.level_lookups.iter().sum::<u64>(),
            q.resolved,
            "{scheme:?}"
        );
        let by_level: f64 = q.level_packets.iter().sum();
        let by_tick: f64 = q.per_tick_packets.iter().sum();
        assert!((by_level - by_tick).abs() < 1e-9, "{scheme:?}");
        assert!(q.level_packets.iter().all(|&p| p >= 0.0), "{scheme:?}");
        if scheme == LmScheme::Chlm {
            let bound = (72f64).log2() as usize + 4;
            assert!(
                q.level_lookups.len() <= bound + 1,
                "CHLM booked common level {} on a 72-node world",
                q.level_lookups.len().saturating_sub(1)
            );
        }
    }
}

#[test]
fn query_rate_zero_reports_no_query_stats() {
    // The query plane is opt-in: at the default rate the report slot stays
    // `None`, so every pre-query digest and fixture is untouched.
    let report = run_simulation(&base_cfg(64, 91, LmScheme::Chlm, false));
    assert!(report.query.is_none());
}

#[test]
fn home_agent_packet_backend_counts_match_analytic() {
    // Packet execution changes packet prices (measured transmissions),
    // never which updates happen: event counters agree across backends.
    let a = run_simulation(&base_cfg(90, 51, LmScheme::HomeAgent, false));
    let b = run_simulation(&base_cfg(90, 51, LmScheme::HomeAgent, true));
    for (x, y) in a.ledger.per_level.iter().zip(&b.ledger.per_level) {
        assert_eq!(x.migration_events, y.migration_events);
        assert_eq!(x.reorg_events, y.reorg_events);
    }
}
