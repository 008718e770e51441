//! Property-based tests for the clustering substrate, plus a dynamic
//! mobility-driven scenario exercising diffing end to end.

use chlm_cluster::address::AddressBook;
use chlm_cluster::events::classify_events;
use chlm_cluster::maxmin::maxmin_elect;
use chlm_cluster::{Hierarchy, HierarchyOptions, StateTracker};
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::{Graph, NodeIdx};
use chlm_mobility::{MobilityModel, RandomWaypoint};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeIdx, 0..n as NodeIdx), 0..3 * n).prop_map(
            move |pairs| {
                let edges: Vec<_> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            },
        )
    })
}

fn build(g: &Graph, seed: u64) -> Hierarchy {
    let mut rng = SimRng::seed_from(seed);
    let ids = rng.permutation(g.node_count());
    Hierarchy::build(&ids, g, HierarchyOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hierarchy_invariants(g in arb_graph(40), seed in 0u64..1000) {
        let h = build(&g, seed);
        h.check_invariants();
        // Levels strictly shrink (except a possible equal final level).
        for w in h.levels.windows(2) {
            prop_assert!(w[1].len() < w[0].len());
        }
    }

    #[test]
    fn every_vote_targets_a_head(g in arb_graph(40), seed in 0u64..1000) {
        let h = build(&g, seed);
        for level in &h.levels {
            for &t in &level.vote {
                prop_assert!(level.is_head[t as usize]);
            }
        }
    }

    #[test]
    fn addresses_follow_vote_chain(g in arb_graph(40), seed in 0u64..1000) {
        let h = build(&g, seed);
        for v in 0..g.node_count() as NodeIdx {
            prop_assert_eq!(h.address(v).len(), h.depth());
            let addr: Vec<NodeIdx> = h.address(v).collect();
            prop_assert_eq!(addr.len(), h.depth());
            prop_assert_eq!(addr[0], v);
            for k in 1..addr.len() {
                // addr[k] is a level-k node.
                prop_assert!(h.levels[k].local(addr[k]).is_some());
                // and is the vote target of addr[k-1] at level k-1.
                let lv = &h.levels[k - 1];
                let local = lv.local(addr[k - 1]).unwrap();
                prop_assert_eq!(lv.head_of(local), addr[k]);
            }
        }
    }

    #[test]
    fn members_partition_each_level(g in arb_graph(35), seed in 0u64..1000) {
        let h = build(&g, seed);
        for k in 1..h.depth() {
            let mut all: Vec<NodeIdx> = h.levels[k]
                .nodes
                .iter()
                .flat_map(|&head| h.members(k, head).iter().copied())
                .collect();
            all.sort_unstable();
            let mut expect = h.levels[k - 1].nodes.clone();
            expect.sort_unstable();
            prop_assert_eq!(all, expect);
        }
    }

    /// Tree order, the numbering cluster-confined passes lean on: at every
    /// level `rank` is a permutation, every cluster's members ascend by
    /// physical index, and every level-k cluster's level-0 descendants
    /// are one contiguous run of level-0 tree numbers.
    #[test]
    fn subtrees_are_contiguous_tree_runs(g in arb_graph(40), seed in 0u64..1000) {
        let h = build(&g, seed);
        for level in &h.levels[..h.depth() - 1] {
            let mut ranks = level.rank.clone();
            ranks.sort_unstable();
            prop_assert!(ranks.into_iter().eq(0..level.len() as u32));
        }
        let addrs = h.addresses();
        for k in 1..h.depth() {
            for &head in &h.levels[k].nodes {
                let members = h.members(k, head);
                prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "level {} head {}", k, head);
                let mut run: Vec<u32> = (0..g.node_count())
                    .filter(|&v| addrs[v][k] == head)
                    .map(|v| h.levels[0].rank[v])
                    .collect();
                run.sort_unstable();
                prop_assert!(!run.is_empty());
                prop_assert_eq!(run[run.len() - 1] - run[0] + 1, run.len() as u32);
            }
        }
    }

    #[test]
    fn self_diff_is_empty(g in arb_graph(35), seed in 0u64..1000) {
        let h = build(&g, seed);
        let book = AddressBook::capture(&h);
        prop_assert!(book.diff(&book.clone()).is_empty());
        let (evs, counts) = classify_events(&h, &h.clone());
        prop_assert!(evs.is_empty());
        prop_assert_eq!(counts.grand_total(), 0);
    }

    #[test]
    fn maxmin_coverage_and_affiliation(g in arb_graph(40), seed in 0u64..1000, d in 1usize..4) {
        let mut rng = SimRng::seed_from(seed);
        let ids = rng.permutation(g.node_count());
        let e = maxmin_elect(&ids, &g, d);
        let heads: Vec<NodeIdx> = (0..g.node_count() as u32)
            .filter(|&i| e.is_head[i as usize])
            .collect();
        prop_assert!(!heads.is_empty());
        let dist = chlm_graph::traversal::multi_source_bfs(&g, &heads);
        for u in 0..g.node_count() {
            prop_assert!(dist[u] as usize <= d, "node {} at {} hops", u, dist[u]);
            prop_assert!(e.is_head[e.head_of[u] as usize]);
        }
    }
}

/// Dynamic scenario: a mobile network re-clustered every tick; all
/// invariants hold at every step, diffs classify without panicking, and
/// elector-state jumps are mostly adjacent at a fine tick.
#[test]
fn dynamic_reclustering_holds_invariants() {
    let n = 150;
    let density = 1.2;
    let radius = chlm_geom::disk_radius_for_density(n, density);
    let region = Disk::centered(radius);
    let rtx = chlm_geom::rtx_for_degree(8.0, density);
    let mut rng = SimRng::seed_from(42);
    let ids = rng.permutation(n);
    let mut mob = RandomWaypoint::deployed(region, n, 1.5, 0.0, &mut rng);
    let dt = rtx / 1.5 / 20.0; // node moves R_TX/20 per tick

    let mut prev_h = Hierarchy::build(
        &ids,
        &build_unit_disk(mob.positions(), rtx),
        HierarchyOptions::default(),
    );
    let mut prev_book = AddressBook::capture(&prev_h);
    let mut tracker = StateTracker::new();
    tracker.observe(&prev_h);

    let mut total_events = 0u64;
    let mut total_changes = 0usize;
    for _ in 0..60 {
        mob.step(dt);
        let h = Hierarchy::build(
            &ids,
            &build_unit_disk(mob.positions(), rtx),
            HierarchyOptions::default(),
        );
        h.check_invariants();
        let book = AddressBook::capture(&h);
        let changes = prev_book.diff(&book);
        total_changes += changes.len();
        let (_, counts) = classify_events(&prev_h, &h);
        total_events += counts.grand_total();
        tracker.observe(&h);
        prev_h = h;
        prev_book = book;
    }
    // The network is mobile: something must have happened.
    assert!(total_changes > 0, "no address changes in 60 ticks");
    assert!(total_events > 0, "no reorganization events in 60 ticks");
    // Adjacent-transition property (Fig. 3): at this tick resolution the
    // overwhelming majority of state changes are ±1.
    if let Some(frac) = tracker.multi_jump_fraction(0) {
        assert!(frac < 0.25, "multi-jump fraction {frac} too high");
    }
}
