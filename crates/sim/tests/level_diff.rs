//! Differential test of the world observers' one-pass level diff.
//!
//! `WorldObservers` fills level churn (`g_k`, `g'_k`) and the (i)–(vii)
//! taxonomy from one `level_diffs` pass a tick. Two independent oracles
//! check it here over random hierarchy sequences: `classify_events`, which
//! collects every event by set differences of whole edge lists, and
//! `churn_between`, a merge of sorted physical-endpoint edge lists built
//! from each snapshot with membership by binary search. Counts and vector
//! lengths must agree exactly, tick by tick.

use chlm_cluster::address::AddressBook;
use chlm_cluster::events::{classify_events, EventCounts};
use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Point, SimRng};
use chlm_graph::{Graph, NodeIdx};
use chlm_lm::server::{LmAssignment, SelectionRule};
use chlm_sim::observe::WorldObservers;
use chlm_sim::TickCtx;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Level-`k` links of `h` by physical endpoint (`u < v`), sorted; empty
/// beyond the depth.
fn level_edges(h: &Hierarchy, k: usize) -> Vec<(NodeIdx, NodeIdx)> {
    let mut edges: Vec<_> = h.levels.get(k).map_or_else(Vec::new, |level| {
        level
            .graph
            .edges()
            .map(|(a, b)| {
                let (pa, pb) = (level.nodes[a as usize], level.nodes[b as usize]);
                (pa.min(pb), pa.max(pb))
            })
            .collect()
    });
    edges.sort_unstable();
    edges
}

/// Physical ids of the level-`k` nodes of `h`, ascending.
fn level_nodes(h: &Hierarchy, k: usize) -> &[NodeIdx] {
    h.levels.get(k).map_or(&[][..], |l| &l.nodes[..])
}

/// Count the symmetric difference of two ascending-sorted edge lists via a
/// linear merge, splitting out the pairs whose endpoints persist at this
/// level on both sides (the `g'_k` exposure of eq. (4)).
fn churn_between(
    old_e: &[(NodeIdx, NodeIdx)],
    new_e: &[(NodeIdx, NodeIdx)],
    old_n: &[NodeIdx],
    cur_n: &[NodeIdx],
) -> (u64, u64) {
    let persists = |u: NodeIdx, v: NodeIdx| {
        old_n.binary_search(&u).is_ok()
            && old_n.binary_search(&v).is_ok()
            && cur_n.binary_search(&u).is_ok()
            && cur_n.binary_search(&v).is_ok()
    };
    let (mut churn, mut persisting) = (0u64, 0u64);
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_e.len() || j < new_e.len() {
        let one_sided = match (old_e.get(i), new_e.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
                continue;
            }
            (Some(a), Some(b)) if a < b => {
                i += 1;
                *a
            }
            (Some(_), Some(b)) => {
                j += 1;
                *b
            }
            (Some(a), None) => {
                i += 1;
                *a
            }
            (None, Some(b)) => {
                j += 1;
                *b
            }
            (None, None) => unreachable!(),
        };
        churn += 1;
        if persists(one_sided.0, one_sided.1) {
            persisting += 1;
        }
    }
    (churn, persisting)
}

/// What a sequence exercised, for the corpus test's coverage check.
#[derive(Default)]
struct Seen {
    deeper: bool,
    shallower: bool,
    identical: bool,
    edgeless_level: bool,
}

/// Drive a `WorldObservers` over the snapshot sequence built from
/// `graphs` and compare it with both oracles after every tick.
fn check_sequence(ids: &[u64], graphs: &[Graph], seen: &mut Seen) {
    let n = ids.len();
    let hs: Vec<Hierarchy> = graphs
        .iter()
        .map(|g| Hierarchy::build(ids, g, HierarchyOptions::default()))
        .collect();
    let books: Vec<AddressBook> = hs.iter().map(AddressBook::capture).collect();
    let assignments: Vec<LmAssignment> = hs
        .iter()
        .map(|h| LmAssignment::compute(h, SelectionRule::Hrw))
        .collect();
    let positions = vec![Point::new(0.0, 0.0); n];

    let mut obs = WorldObservers::new(&hs[0]);
    let mut counts = EventCounts::with_levels(hs[0].depth());
    let (mut churn, mut persisting) = (Vec::new(), Vec::new());
    for t in 0..hs.len() - 1 {
        let (old, new) = (&hs[t], &hs[t + 1]);
        let addr_changes = books[t].diff(&books[t + 1]);
        let host_changes = assignments[t].diff(&assignments[t + 1]);
        obs.on_tick(&TickCtx {
            tick: t,
            dt: 0.5,
            n,
            rtx: 1.0,
            ids,
            positions: &positions,
            graph: &graphs[t + 1],
            old_hierarchy: old,
            new_hierarchy: new,
            old_book: &books[t],
            new_book: &books[t + 1],
            old_assignment: &assignments[t],
            new_assignment: &assignments[t + 1],
            host_changes: &host_changes,
            addr_changes: &addr_changes,
            query_arrivals: &[],
        });

        counts.merge(&classify_events(old, new).1);
        let depth = old.depth().max(new.depth());
        for k in 1..depth {
            let (c, p) = churn_between(
                &level_edges(old, k),
                &level_edges(new, k),
                level_nodes(old, k),
                level_nodes(new, k),
            );
            if churn.len() <= k {
                churn.resize(k + 1, 0);
                persisting.resize(k + 1, 0);
            }
            churn[k] += c;
            persisting[k] += p;
        }
        assert_eq!(obs.taxonomy.counts, counts, "tick {t}");
        assert_eq!(obs.churn.link_events, churn, "tick {t}");
        assert_eq!(obs.churn.persisting_link_events, persisting, "tick {t}");

        seen.deeper |= new.depth() > old.depth();
        seen.shallower |= new.depth() < old.depth();
        seen.identical |= graphs[t] == graphs[t + 1];
        seen.edgeless_level |= [old, new].iter().any(|h| {
            h.levels
                .iter()
                .skip(1)
                .any(|l| l.len() >= 2 && l.graph.edge_count() == 0)
        });
    }
}

/// `base`, then each step's pairs toggled in turn: one graph per step.
fn toggled(n: usize, base: &[(NodeIdx, NodeIdx)], steps: &[Vec<(NodeIdx, NodeIdx)>]) -> Vec<Graph> {
    let key = |(u, v): (NodeIdx, NodeIdx)| (u.min(v), u.max(v));
    let mut edges: BTreeSet<_> = base
        .iter()
        .copied()
        .filter(|(u, v)| u != v)
        .map(key)
        .collect();
    let mut graphs = vec![Graph::from_edges(
        n,
        &edges.iter().copied().collect::<Vec<_>>(),
    )];
    for step in steps {
        for &e in step.iter().filter(|(u, v)| u != v) {
            if !edges.remove(&key(e)) {
                edges.insert(key(e));
            }
        }
        graphs.push(Graph::from_edges(
            n,
            &edges.iter().copied().collect::<Vec<_>>(),
        ));
    }
    graphs
}

/// A seeded corpus of sparse, mostly disconnected worlds, each repeating
/// one snapshot, so that every feature the fold must handle shows up:
/// depth growing and shrinking between ticks, a level of two or more
/// nodes with no links, and a tick that changes nothing.
#[test]
fn fold_matches_both_oracles_on_a_corpus() {
    let mut rng = SimRng::seed_from(7);
    let mut seen = Seen::default();
    for _ in 0..300 {
        let n = 2 + rng.index(40);
        let pair = |rng: &mut SimRng| (rng.index(n) as NodeIdx, rng.index(n) as NodeIdx);
        let base: Vec<_> = (0..n).map(|_| pair(&mut rng)).collect();
        let mut steps: Vec<Vec<_>> = (0..4)
            .map(|_| {
                (0..1 + rng.index(n / 2 + 1))
                    .map(|_| pair(&mut rng))
                    .collect()
            })
            .collect();
        steps[1].clear();
        let ids = rng.permutation(n);
        check_sequence(&ids, &toggled(n, &base, &steps), &mut seen);
    }
    assert!(seen.deeper, "no tick grew the hierarchy");
    assert!(seen.shallower, "no tick shrank the hierarchy");
    assert!(seen.identical, "no tick repeated its snapshot");
    assert!(seen.edgeless_level, "no level above 0 was edgeless");
}

fn arb_sequence() -> impl Strategy<Value = (Vec<u64>, Vec<Graph>)> {
    (2usize..48).prop_flat_map(|n| {
        let pair = (0..n as NodeIdx, 0..n as NodeIdx);
        (
            Just(n),
            proptest::collection::vec(pair.clone(), 0..3 * n),
            proptest::collection::vec(proptest::collection::vec(pair, 0..n), 1..5),
            any::<u64>(),
        )
            .prop_map(|(n, base, steps, seed)| {
                (
                    SimRng::seed_from(seed).permutation(n),
                    toggled(n, &base, &steps),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fold_matches_both_oracles((ids, graphs) in arb_sequence()) {
        check_sequence(&ids, &graphs, &mut Seen::default());
    }
}
