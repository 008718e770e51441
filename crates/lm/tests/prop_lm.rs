//! Property-based and dynamic tests for the LM subsystem.

use chlm_cluster::address::AddressBook;
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::{Graph, NodeIdx};
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::hash::{hrw_select, hrw_select_weighted, mod_successor_select};
use chlm_lm::query::resolve_route;
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_mobility::{MobilityModel, RandomWaypoint};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeIdx, 0..n as NodeIdx), n..4 * n).prop_map(
            move |pairs| {
                let edges: Vec<_> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hrw_unambiguous(subject in any::<u64>(), salt in any::<u64>(),
                       cands in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut uniq = cands.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let i = hrw_select(subject, &uniq, salt);
        prop_assert!(i < uniq.len());
        prop_assert_eq!(i, hrw_select(subject, &uniq, salt));
    }

    #[test]
    fn weighted_hrw_in_range(subject in any::<u64>(),
                             cands in proptest::collection::vec((any::<u64>(), 0.1f64..100.0), 1..20)) {
        let i = hrw_select_weighted(subject, &cands, 3);
        prop_assert!(i < cands.len());
    }

    #[test]
    fn mod_successor_total(subject in 0u64..1000,
                           cands in proptest::collection::vec(0u64..1000, 1..20)) {
        let i = mod_successor_select(subject, &cands, 1000);
        prop_assert!(i < cands.len());
        // The winner is the candidate with minimal circular gap; verify
        // against a direct recomputation.
        let gap = |c: u64| (c + 1000 - (subject + 1) % 1000) % 1000;
        let min_gap = cands.iter().map(|&c| gap(c)).min().unwrap();
        prop_assert_eq!(gap(cands[i]), min_gap);
    }

    #[test]
    fn assignment_well_formed(g in arb_graph(50), seed in 0u64..500) {
        let mut rng = SimRng::seed_from(seed);
        let ids = rng.permutation(g.node_count());
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let addrs = h.addresses();
        let mut total_entries = 0u64;
        for v in 0..g.node_count() as NodeIdx {
            for k in 2..h.depth() {
                let host = a.host(v, k).unwrap();
                // Host inside the subject's level-k cluster.
                prop_assert_eq!(addrs[host as usize][k], addrs[v as usize][k]);
                total_entries += 1;
            }
        }
        prop_assert_eq!(total_entries as usize, a.entry_count());
    }

    #[test]
    fn queries_resolve_within_components(g in arb_graph(40), seed in 0u64..500) {
        let mut rng = SimRng::seed_from(seed);
        let ids = rng.permutation(g.node_count());
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let (comp, _) = chlm_graph::traversal::connected_components(&g);
        for s in 0..g.node_count().min(6) as NodeIdx {
            for t in 0..g.node_count().min(6) as NodeIdx {
                let res = resolve_route(&h, &a, s, t);
                prop_assert_eq!(
                    res.is_some(),
                    comp[s as usize] == comp[t as usize],
                    "s={} t={}", s, t
                );
            }
        }
    }
}

/// End-to-end dynamic accounting: a mobile network where every tick's
/// host-diff is fed to the ledger. Costs must be non-negative, levels
/// consistent, and total packets conserved across classifications.
#[test]
fn dynamic_handoff_ledger_consistency() {
    let n = 200;
    let density = 1.2;
    let radius = chlm_geom::disk_radius_for_density(n, density);
    let region = Disk::centered(radius);
    let rtx = chlm_geom::rtx_for_degree(9.0, density);
    let mut rng = SimRng::seed_from(7);
    let ids = rng.permutation(n);
    let mut mob = RandomWaypoint::deployed(region, n, 2.0, 0.0, &mut rng);
    let dt = rtx / 2.0 / 15.0;

    let build = |positions: &[chlm_geom::Point]| {
        let g = build_unit_disk(positions, rtx);
        Hierarchy::build(&ids, &g, HierarchyOptions::default())
    };
    let mut h_prev = build(mob.positions());
    let mut book_prev = AddressBook::capture(&h_prev);
    let mut asn_prev = LmAssignment::compute(&h_prev, SelectionRule::Hrw);
    let mut ledger = HandoffLedger::new();
    let mut raw_packets = 0.0;

    for _ in 0..50 {
        mob.step(dt);
        let h = build(mob.positions());
        let book = AddressBook::capture(&h);
        let asn = LmAssignment::compute(&h, SelectionRule::Hrw);
        let host_changes = asn_prev.diff(&asn);
        let addr_changes = book_prev.diff(&book);
        // Euclidean-proxy hop oracle for speed; non-negative by construction.
        let positions = mob.positions().to_vec();
        let hop = |a: NodeIdx, b: NodeIdx| positions[a as usize].dist(positions[b as usize]) / rtx;
        for hc in &host_changes {
            raw_packets += hop(hc.old_host, hc.new_host);
        }
        ledger.record(&host_changes, &addr_changes, hop, n, dt);
        h_prev = h;
        book_prev = book;
        asn_prev = asn;
    }

    assert!(ledger.phi_total() >= 0.0);
    assert!(ledger.gamma_total() >= 0.0);
    assert!(
        ledger.phi_total() + ledger.gamma_total() > 0.0,
        "mobile network produced no handoff at all"
    );
    // Conservation: ledger total ≥ raw transfer cost (ledger adds
    // registration packets on top of transfers).
    let ledger_packets = (ledger.phi_total() + ledger.gamma_total()) * ledger.node_seconds;
    assert!(
        ledger_packets >= raw_packets - 1e-6,
        "ledger lost packets: {ledger_packets} < {raw_packets}"
    );
    // Entries hosted mean equals depth-2 (every subject has one entry per
    // level ≥ 2).
    let counts = asn_prev.entries_hosted();
    let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n as f64;
    assert!((mean - (h_prev.depth() as f64 - 2.0)).abs() < 1e-9);
}
