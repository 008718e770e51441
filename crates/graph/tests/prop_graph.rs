//! Property-based tests for the graph substrate.

use chlm_graph::dynamics::LinkDiff;
use chlm_graph::traversal::{
    bfs_distances, connected_components, hop_distance, shortest_path, UNREACHABLE,
};
use chlm_graph::unit_disk::{build_unit_disk, build_unit_disk_brute};
use chlm_graph::{Graph, HopFill, NodeIdx};
use chlm_par::WorkerPool;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use std::sync::Barrier;

/// Strategy: a random edge list over `n` nodes.
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

/// Two graphs over one node set of 0 to 11 nodes, either of them possibly
/// edgeless (n ∈ {0, 1} always is).
fn arb_graph_pair() -> impl Strategy<Value = (Graph, Graph)> {
    (0usize..12).prop_flat_map(|n| {
        let side = move || {
            proptest::collection::vec((0..n.max(1) as NodeIdx, 0..n.max(1) as NodeIdx), 0..=3 * n)
                .prop_map(move |pairs| {
                    let edges: Vec<_> = pairs.into_iter().filter(|(u, v)| u != v).collect();
                    Graph::from_edges(n, &edges)
                })
        };
        (side(), side())
    })
}

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<chlm_geom::Point>> {
    proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 0..max_n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| chlm_geom::Point::new(x, y))
            .collect()
    })
}

/// Every root in `asked` must read, through the hop store and from
/// either end, the row a fresh BFS of the graph as it is now computes.
/// (Reading a held root's distances holds nothing new.)
fn rows_are_fresh(g: &Graph, asked: &BTreeSet<NodeIdx>) -> Result<(), TestCaseError> {
    for &root in asked {
        let fresh = bfs_distances(g, root);
        for (v, &d) in (0..).zip(&fresh) {
            prop_assert_eq!(g.hops(root, v), d, "({}, {})", root, v);
            prop_assert_eq!(g.hops(v, root), d, "({}, {})", v, root);
        }
    }
    g.check_invariants();
    Ok(())
}

/// Hold `roots`' distances the way a lone reader does: `hops(root, v)`
/// for every `v`, which searches from `root` (a one-lane block) unless
/// `root` or `v` is held. A root every other node of which is held already
/// is answered from those and not held itself.
fn hold(g: &Graph, roots: &[NodeIdx]) {
    for &root in roots {
        for v in 0..g.node_count() as NodeIdx {
            g.hops(root, v);
        }
    }
}

/// Every pair of entries of `roots` whose members differ.
fn all_pairs(roots: &[NodeIdx]) -> Vec<(NodeIdx, NodeIdx)> {
    let mut pairs = Vec::new();
    for (i, &a) in roots.iter().enumerate() {
        pairs.extend(roots[i + 1..].iter().filter(|&&b| b != a).map(|&b| (a, b)));
    }
    pairs
}

/// A graph for the pair-fill properties — from no nodes up, sparse enough
/// to fall apart, or a star through node 0 (one batch that pays) — with a
/// pair list over it (duplicates, self-pairs and both orientations of a
/// pair included) and roots held before the fill.
#[allow(clippy::type_complexity)]
fn arb_pair_fill() -> impl Strategy<Value = (Graph, Vec<(NodeIdx, NodeIdx)>, Vec<NodeIdx>)> {
    (
        0usize..160,
        proptest::collection::vec((0u32..1000, 0u32..1000), 0..400),
        0u8..3,
        proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
        proptest::collection::vec(0u32..1000, 0..6),
    )
        .prop_map(|(n, edges, star, pairs, held)| {
            let node = |x: u32| x % n.max(1) as NodeIdx;
            let live = |len: usize| if n == 0 { 0 } else { len };
            let mut edges: Vec<(NodeIdx, NodeIdx)> = edges
                .iter()
                .take(live(edges.len()))
                .map(|&(a, b)| (node(a), node(b)))
                .collect();
            if star == 0 {
                edges.extend((1..n as NodeIdx).map(|v| (0, v)));
            }
            edges.retain(|(u, v)| u != v);
            let mut pairs: Vec<(NodeIdx, NodeIdx)> = pairs
                .iter()
                .take(live(pairs.len()))
                .map(|&(a, b)| (node(a), node(b)))
                .collect();
            // Every third pair again, reversed, and a self-pair.
            let again: Vec<_> = pairs.iter().step_by(3).map(|&(a, b)| (b, a)).collect();
            pairs.extend(again);
            if let Some(&(a, _)) = pairs.first() {
                pairs.push((a, a));
            }
            let held = held
                .iter()
                .take(live(held.len()))
                .map(|&x| node(x))
                .collect();
            (Graph::from_edges(n, &edges), pairs, held)
        })
}

/// Longest distances on either side of each plane-count boundary of the
/// hop store's blocks: 1 | 2, 3 | 4, 7 | 8, 255 | 256.
const DEEPEST: [u32; 8] = [1, 2, 3, 4, 7, 8, 255, 256];

/// The edges of a path of `len` edges over nodes `0..=len`.
fn path_edges(len: u32) -> Vec<(NodeIdx, NodeIdx)> {
    (0..len).map(|i| (i, i + 1)).collect()
}

/// Every pair of `g`, both ways round, against a fresh BFS of the graph as
/// it is now. Reading a pair neither of whose members is held holds the
/// first, so this also exercises lone requests.
fn every_pair_is_the_bfs_distance(g: &Graph) -> Result<(), TestCaseError> {
    let n = g.node_count() as NodeIdx;
    for a in 0..n {
        let fresh = bfs_distances(g, a);
        for b in 0..n {
            prop_assert_eq!(g.hops(a, b), fresh[b as usize], "({}, {})", a, b);
            prop_assert_eq!(g.hops(b, a), fresh[b as usize], "({}, {})", b, a);
        }
    }
    g.check_invariants();
    Ok(())
}

/// Overwrite `g` with `src` through the bulk edge writer.
fn assign_from(g: &mut Graph, src: &Graph) {
    g.assign_edges(src.node_count(), &mut src.edges().collect());
}

/// `edges` renumbered by the rotation `order[r] = (r + shift) % n`: the
/// order and the edges as pairs of positions in it.
fn rotated(n: usize, shift: u32, edges: &[(NodeIdx, NodeIdx)]) -> (Vec<NodeIdx>, Vec<(u32, u32)>) {
    let shift = shift as usize % n.max(1);
    let order = (0..n).map(|r| ((r + shift) % n) as NodeIdx).collect();
    let rank = |u: NodeIdx| ((u as usize + n - shift) % n) as u32;
    (
        order,
        edges.iter().map(|&(u, v)| (rank(u), rank(v))).collect(),
    )
}

/// `g` is the graph over `0..n` with exactly the edges in `model`, to
/// every reader: lists sorted and symmetric, `edges()` / `edge_count()` /
/// `degree()` the model's, equal both ways to — and printing like — the
/// graph `from_edges` builds from nothing, whatever slack, holes or moved
/// rows `g` carries, and structurally sound.
fn is_the_model(
    g: &Graph,
    n: usize,
    model: &BTreeSet<(NodeIdx, NodeIdx)>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.node_count(), n);
    prop_assert_eq!(g.edge_count(), model.len());
    let listed: Vec<(NodeIdx, NodeIdx)> = model.iter().copied().collect();
    prop_assert_eq!(&g.edges().collect::<Vec<_>>(), &listed);
    for u in 0..n as NodeIdx {
        let nbrs = g.neighbors(u);
        prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "row {} unsorted", u);
        prop_assert_eq!(g.degree(u), nbrs.len());
        for &v in nbrs {
            prop_assert!(g.has_edge(v, u), "({}, {}) one-way", u, v);
        }
    }
    let fresh = Graph::from_edges(n, &listed);
    prop_assert_eq!(g, &fresh);
    prop_assert_eq!(&fresh, g);
    prop_assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
    g.check_invariants();
    Ok(())
}

/// Every `skip`-th edge of `src` dropped, every other one turned around.
fn some_edges_of(src: &Graph, skip: u32) -> Vec<(NodeIdx, NodeIdx)> {
    src.edges()
        .enumerate()
        .filter(|(i, _)| !(*i as u32 + 1).is_multiple_of(skip + 2))
        .map(|(i, (u, v))| if i % 2 == 0 { (u, v) } else { (v, u) })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `assign_edges` over any previous content — smaller, larger, warm
    /// memo — fed pairs in any order and orientation, with duplicates, is
    /// `from_edges` of the same pairs: value, edge count, invariants, an
    /// empty memo, and the list handed back normalized.
    #[test]
    fn assign_edges_equals_from_edges(
        mut g in arb_graph(30),
        n in 0usize..30,
        pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..90),
    ) {
        let mut edges: Vec<(NodeIdx, NodeIdx)> = pairs
            .into_iter()
            .filter(|_| n > 0)
            .map(|(a, b)| (a % n as NodeIdx, b % n as NodeIdx))
            .filter(|(u, v)| u != v)
            .collect();
        let expect = Graph::from_edges(n, &edges);
        hold(&g, &[0]);
        g.assign_edges(n, &mut edges);
        prop_assert_eq!(&g, &expect);
        prop_assert_eq!(g.edge_count(), expect.edge_count());
        prop_assert_eq!(g.hop_roots().count(), 0);
        g.check_invariants();
        prop_assert_eq!(edges, expect.edges().collect::<Vec<_>>());
    }

    /// `assign_edges_in_order` over any previous content — smaller,
    /// larger, warm memo — fed distinct pairs in any orientation under any
    /// numbering is `from_edges` of the renumbered pairs: value, edge
    /// count, invariants and an empty memo.
    #[test]
    fn assign_edges_in_order_equals_from_edges(
        mut g in arb_graph(30),
        src in arb_graph(30),
        perm_seed in any::<u64>(),
    ) {
        let n = src.node_count();
        let mut order: Vec<NodeIdx> = (0..n as NodeIdx).collect();
        let mut rng = chlm_geom::SimRng::seed_from(perm_seed);
        for i in (1..n).rev() {
            order.swap(i, rng.range_f64(0.0, (i + 1) as f64) as usize);
        }
        let mut rank = vec![0u32; n];
        for (r, &u) in order.iter().enumerate() {
            rank[u as usize] = r as u32;
        }
        // Every edge once, every other one turned around, listed from the
        // last to the first.
        let mut ranked: Vec<(u32, u32)> = src
            .edges()
            .enumerate()
            .map(|(i, (u, v))| if i % 2 == 0 { (u, v) } else { (v, u) })
            .map(|(u, v)| (rank[u as usize], rank[v as usize]))
            .collect();
        ranked.reverse();
        hold(&g, &[0]);
        g.assign_edges_in_order(&order, &ranked);
        prop_assert_eq!(&g, &src);
        prop_assert_eq!(g.edge_count(), src.edge_count());
        prop_assert_eq!(g.hop_roots().count(), 0);
        g.check_invariants();
    }

    /// The layout cannot leak into the value. Random interleavings of
    /// every writer against a `BTreeSet` model, from `n = 0` up: kinds 0–2
    /// add an edge (so rows fill, move to the tail and move again), 3
    /// removes one, 4 resets to any size (shrinking and growing), 5 copies
    /// the donor in, 6 bulk-writes some of the donor's edges, 7 carries on
    /// with a clone (holes and all), 8 bulk-writes some of the donor's
    /// edges in a rotated numbering. After every step the graph is the
    /// model's graph, and a step that changed the adjacency emptied the
    /// memo.
    #[test]
    fn layout_never_shows_in_the_value(
        n0 in 0usize..12,
        donor in arb_graph(16),
        steps in proptest::collection::vec((0u8..9, 0u32..1000, 0u32..1000), 0..80),
    ) {
        let mut g = Graph::with_nodes(n0);
        let mut n = n0;
        let mut model: BTreeSet<(NodeIdx, NodeIdx)> = BTreeSet::new();
        is_the_model(&g, n, &model)?;
        for (kind, a, b) in steps {
            if n > 0 {
                hold(&g, &[a % n as NodeIdx]);
            }
            let (u, v) = match n {
                0 => (0, 0),
                _ => (a % n as NodeIdx, b % n as NodeIdx),
            };
            let edge = (u.min(v), u.max(v));
            let changed = match kind {
                0..=2 if u != v => {
                    let added = g.add_edge(u, v);
                    prop_assert_eq!(added, model.insert(edge));
                    added
                }
                3 if n > 0 => {
                    let removed = g.remove_edge(u, v);
                    prop_assert_eq!(removed, model.remove(&edge));
                    removed
                }
                4 => {
                    n = a as usize % 20;
                    g.reset(n);
                    model.clear();
                    true
                }
                5 => {
                    g.copy_from(&donor);
                    n = donor.node_count();
                    model = donor.edges().collect();
                    true
                }
                6 => {
                    let mut edges = some_edges_of(&donor, b % 4);
                    n = donor.node_count() + a as usize % 3;
                    g.assign_edges(n, &mut edges);
                    model = edges.into_iter().collect();
                    true
                }
                8 => {
                    let edges = some_edges_of(&donor, b % 4);
                    n = donor.node_count();
                    let (order, ranked) = rotated(n, a, &edges);
                    g.assign_edges_in_order(&order, &ranked);
                    model = edges.into_iter().map(|(u, v)| (u.min(v), u.max(v))).collect();
                    true
                }
                7 => {
                    let copy = g.clone();
                    prop_assert_eq!(&copy, &g);
                    prop_assert_eq!(&g, &copy);
                    prop_assert_eq!(copy.hop_roots().count(), 0);
                    g = copy;
                    false
                }
                _ => false,
            };
            if changed {
                prop_assert_eq!(g.hop_roots().count(), 0);
            }
            is_the_model(&g, n, &model)?;
        }
    }

    /// `hops` interleaved with every mutator, on unit-disk graphs from
    /// edgeless through split to connected (`rtx`), from `n = 0` up, with
    /// an arbitrary edge-list graph as the `copy_from` donor: a mutation
    /// that changes the adjacency empties the store, a pair is answered
    /// from whichever end is held and holds its first member only when
    /// neither is, and whatever is held afterwards reads the fresh BFS
    /// row. Steps are plain integers because the vendored proptest has no
    /// `prop_oneof`: kinds 0–2 ask a pair, 3 adds an edge, 4 removes one,
    /// 5 resets, 6 copies the donor, 7 bulk-writes the donor's edges.
    #[test]
    fn hop_rows_never_outlive_a_mutation(
        pts in arb_points(40),
        rtx in 0.5f64..14.0,
        donor in arb_graph(12),
        steps in proptest::collection::vec((0u8..8, 0u32..1000, 0u32..1000), 0..40),
    ) {
        let mut g = build_unit_disk(&pts, rtx);
        let mut asked: BTreeSet<NodeIdx> = BTreeSet::new();
        for (kind, a, b) in steps {
            let n = g.node_count() as NodeIdx;
            let changed = match kind {
                0..=2 if n > 0 => {
                    let (a, b) = (a % n, b % n);
                    prop_assert_eq!(g.hops(a, b), bfs_distances(&g, a)[b as usize]);
                    if a != b && !asked.contains(&a) && !asked.contains(&b) {
                        asked.insert(a);
                    }
                    false
                }
                3 if n > 0 && a % n != b % n => g.add_edge(a % n, b % n),
                4 if n > 0 => g.remove_edge(a % n, b % n),
                5 => {
                    g.reset(a as usize % 8);
                    true
                }
                6 => {
                    g.copy_from(&donor);
                    prop_assert_eq!(&g, &donor);
                    true
                }
                7 => {
                    assign_from(&mut g, &donor);
                    prop_assert_eq!(&g, &donor);
                    true
                }
                _ => false,
            };
            if changed {
                prop_assert_eq!(g.hop_roots().count(), 0);
                asked.clear();
            }
            rows_are_fresh(&g, &asked)?;
            prop_assert_eq!(g.hop_roots().count(), asked.len());
        }
    }

    /// `fill_hops` holds only what a pair list needs: on any graph — from
    /// no nodes up, sparse enough to fall apart into components and
    /// isolated nodes, or a star through node 0 — and for any chain of
    /// pairs (empty, self-pairs, repeats, more than one batch of roots,
    /// more than two, some roots already held), at any pool width, every
    /// pair has a held end, every held root reads the BFS row, the store
    /// holds the previously held roots and members of the pairs and not
    /// one more, asking again computes nothing, and a mutation frees it
    /// all.
    #[test]
    fn filled_rows_are_the_bfs_rows(
        n in 0usize..200,
        pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..500),
        star in 0u8..3,
        held in proptest::collection::vec(0u32..1000, 0..8),
        picks in proptest::collection::vec(0u32..1000, 0..300),
        width in 0usize..3,
    ) {
        let node = |x: u32| x % n.max(1) as NodeIdx;
        let mut edges: Vec<(NodeIdx, NodeIdx)> = pairs
            .iter()
            .take(if n == 0 { 0 } else { pairs.len() })
            .map(|&(a, b)| (node(a), node(b)))
            .collect();
        if star == 0 {
            edges.extend((1..n as NodeIdx).map(|v| (0, v)));
        }
        edges.retain(|(u, v)| u != v);
        let mut g = Graph::from_edges(n, &edges);
        let of_nodes = |xs: &[u32]| -> Vec<NodeIdx> {
            xs.iter().take(if n == 0 { 0 } else { xs.len() }).map(|&x| node(x)).collect()
        };
        let (held, picked) = (of_nodes(&held), of_nodes(&picks));
        let chain: Vec<(NodeIdx, NodeIdx)> = picked.windows(2).map(|w| (w[0], w[1])).collect();
        let mut cover = HopFill::default();
        hold(&g, &held);
        let before: BTreeSet<NodeIdx> = g.hop_roots().collect();
        g.fill_hops(&chain, &mut cover, &WorkerPool::new([1, 2, 8][width]));
        let expected: BTreeSet<NodeIdx> = g.hop_roots().collect();
        for &(a, b) in &chain {
            prop_assert!(a == b || expected.contains(&a) || expected.contains(&b));
        }
        prop_assert!(expected.iter().all(|r| before.contains(r) || picked.contains(r)));
        prop_assert!(before.is_subset(&expected));
        rows_are_fresh(&g, &expected)?;
        prop_assert_eq!(g.hop_roots().count(), expected.len());
        // Asking again computes nothing.
        let bytes = g.hop_store_bytes();
        g.fill_hops(&chain, &mut cover, &WorkerPool::new(2));
        hold(&g, &held);
        prop_assert_eq!(g.hop_store_bytes(), bytes);
        prop_assert_eq!(g.hop_roots().count(), expected.len());
        if n >= 2 {
            if !g.add_edge(0, n as NodeIdx - 1) {
                g.remove_edge(0, n as NodeIdx - 1);
            }
            prop_assert_eq!(g.hop_roots().count(), 0);
            prop_assert_eq!(g.hop_store_bytes(), 0);
            g.fill_hops(&chain, &mut cover, &WorkerPool::new(1));
            rows_are_fresh(&g, &g.hop_roots().collect())?;
        }
    }

    /// The store is not part of a graph's value: a clone of a warm graph
    /// is equal to it, prints like it, starts cold, answers identically
    /// from searches of its own, and mutating either leaves the other's
    /// distances alone.
    #[test]
    fn clone_is_equal_cold_and_independent(
        g in arb_graph(30),
        picks in proptest::collection::vec(0u32..1000, 0..6),
    ) {
        let n = g.node_count() as NodeIdx;
        let asked: BTreeSet<NodeIdx> = picks.iter().map(|&p| p % n).collect();
        let roots: Vec<NodeIdx> = asked.iter().copied().collect();
        hold(&g, &roots);
        rows_are_fresh(&g, &asked)?;
        let held = g.hop_roots().count();
        let mut copy = g.clone();
        prop_assert_eq!(copy.hop_roots().count(), 0);
        prop_assert_eq!(&copy, &g);
        prop_assert_eq!(format!("{copy:?}"), format!("{g:?}"));
        hold(&copy, &roots);
        prop_assert!(copy.hop_roots().eq(g.hop_roots()));
        for &root in &asked {
            for v in 0..n {
                prop_assert_eq!(copy.hops(root, v), g.hops(root, v));
            }
        }
        // Toggle one edge of the copy: its store empties, the original's
        // stays, and each side still answers for its own adjacency.
        if !copy.add_edge(0, n - 1) {
            copy.remove_edge(0, n - 1);
        }
        prop_assert_eq!(copy.hop_roots().count(), 0);
        prop_assert_eq!(g.hop_roots().count(), held);
        prop_assert_ne!(&copy, &g);
        rows_are_fresh(&copy, &asked)?;
        rows_are_fresh(&g, &asked)?;
    }

    /// `hops(a, b)` is `bfs_distances(a)[b]` and `hops(b, a)` for every
    /// pair, whichever way the distances were filled: by a fill of every
    /// pair of many roots (every node of a unit-disk graph, the ten leaves
    /// of a broom, every node of a path, far apart along it), by a fill of
    /// every pair of a few roots, or by a lone request, at pool widths 1, 2
    /// and 8, and again after a mutation and a second fill. Graphs: random unit-disk
    /// deployments; n ∈ {0, 1, 2}; and paths whose longest distance is
    /// each of [`DEEPEST`] — alone with a second component and an isolated
    /// node, or as the handle of a broom — so that every plane-count
    /// boundary is crossed on both sides.
    #[test]
    fn hops_are_the_bfs_distances_from_either_end(
        kind in 0u8..4,
        which in 0usize..8,
        pts in arb_points(60),
        rtx in 0.5f64..6.0,
        picks in proptest::collection::vec(0u32..1000, 0..12),
        lone in proptest::collection::vec((0u32..1000, 0u32..1000), 0..12),
        toggle in (0u32..1000, 0u32..1000),
        width in 0usize..3,
    ) {
        let deepest = DEEPEST[which];
        let (mut g, dense): (Graph, Vec<NodeIdx>) = match kind {
            0 => {
                let g = build_unit_disk(&pts, rtx);
                let all = (0..g.node_count() as NodeIdx).collect();
                (g, all)
            }
            1 => {
                let n = which % 3;
                let edges: &[(NodeIdx, NodeIdx)] = if n == 2 && rtx > 3.0 { &[(0, 1)] } else { &[] };
                (Graph::from_edges(n, edges), (0..n as NodeIdx).collect())
            }
            2 => {
                // Ten leaves on node 1 of the handle: near one another,
                // so one batch, reaching the far end at `deepest` hops.
                let leaves: Vec<NodeIdx> = (deepest + 1..deepest + 11).collect();
                let mut edges = path_edges(deepest);
                edges.extend(leaves.iter().map(|&leaf| (1, leaf)));
                (Graph::from_edges(deepest as usize + 11, &edges), leaves)
            }
            _ => {
                // The path, a three-edge path beside it, an isolated node.
                let first = deepest + 1;
                let mut edges = path_edges(deepest);
                edges.extend((first..first + 3).map(|i| (i, i + 1)));
                let g = Graph::from_edges(first as usize + 5, &edges);
                let all = (0..g.node_count() as NodeIdx).collect();
                (g, all)
            }
        };
        let workers = WorkerPool::new([1, 2, 8][width]);
        let mut cover = HopFill::default();
        let mut held: BTreeSet<NodeIdx>;
        for round in 0..2 {
            let n = g.node_count() as NodeIdx;
            let node = |x: u32| x % n.max(1);
            let few: Vec<NodeIdx> = picks.iter().take(if n == 0 { 0 } else { 12 }).map(|&x| node(x)).collect();
            g.fill_hops(&all_pairs(&dense), &mut cover, &workers);
            g.fill_hops(&all_pairs(&few), &mut cover, &workers);
            held = g.hop_roots().collect();
            prop_assert!(
                held.iter().all(|r| dense.contains(r) || few.contains(r)),
                "round {}", round
            );
            for &(a, b) in lone.iter().take(if n == 0 { 0 } else { lone.len() }) {
                let (a, b) = (node(a), node(b));
                prop_assert_eq!(g.hops(a, b), bfs_distances(&g, a)[b as usize]);
                if a != b && !held.contains(&a) && !held.contains(&b) {
                    held.insert(a);
                }
            }
            prop_assert_eq!(g.hop_roots().count(), held.len(), "round {}", round);
            every_pair_is_the_bfs_distance(&g)?;
            held.extend(0..n.saturating_sub(1));
            if round == 0 && n >= 2 {
                let a = node(toggle.0);
                let b = (a + 1 + toggle.1 % (n - 1)) % n;
                if !g.add_edge(a, b) {
                    g.remove_edge(a, b);
                }
                prop_assert_eq!(g.hop_roots().count(), 0);
            }
        }
    }

    #[test]
    fn graph_invariants_hold(g in arb_graph(40)) {
        g.check_invariants();
    }

    #[test]
    fn unit_disk_fast_equals_brute(pts in arb_points(120), rtx in 0.5f64..6.0) {
        let fast = build_unit_disk(&pts, rtx);
        let slow = build_unit_disk_brute(&pts, rtx);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn bfs_distance_is_metric_like(g in arb_graph(30)) {
        // d(u,u) = 0 and d satisfies the edge-relaxation property:
        // |d(u) - d(v)| <= 1 for every edge (u,v) reachable from the source.
        let d = bfs_distances(&g, 0);
        prop_assert_eq!(d[0], 0);
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // one endpoint reachable implies the other is too
                prop_assert!(du == UNREACHABLE && dv == UNREACHABLE);
            }
        }
    }

    #[test]
    fn shortest_path_consistent_with_hop_distance(g in arb_graph(25)) {
        let n = g.node_count() as NodeIdx;
        for dst in 0..n.min(6) {
            match (shortest_path(&g, 0, dst), hop_distance(&g, 0, dst)) {
                (Some(p), Some(h)) => {
                    prop_assert_eq!(p.len() as u32, h + 1);
                    for w in p.windows(2) {
                        prop_assert!(g.has_edge(w[0], w[1]));
                    }
                }
                (None, None) => {}
                (a, b) => prop_assert!(false, "inconsistent: {:?} vs {:?}", a.is_some(), b),
            }
        }
    }

    #[test]
    fn components_match_bfs_reachability(g in arb_graph(30)) {
        let (comp, count) = connected_components(&g);
        let labels: BTreeSet<u32> = comp.iter().copied().collect();
        prop_assert_eq!(labels.len(), count);
        for u in 0..g.node_count() as NodeIdx {
            let dist = bfs_distances(&g, u);
            for v in 0..g.node_count() {
                prop_assert_eq!(comp[u as usize] == comp[v], dist[v] != UNREACHABLE);
            }
        }
    }

    #[test]
    fn count_between_counts_the_diff((old, new) in arb_graph_pair()) {
        prop_assert_eq!(
            LinkDiff::count_between(&old, &new),
            LinkDiff::between(&old, &new).event_count()
        );
        prop_assert_eq!(
            LinkDiff::count_between(&new, &old),
            LinkDiff::between(&new, &old).event_count()
        );
    }

    #[test]
    fn diff_roundtrip_reconstructs(old in arb_graph(25), extra in proptest::collection::vec((0u32..25, 0u32..25), 0..20)) {
        // Apply the diff to `old` and check we obtain `new`.
        let n = old.node_count();
        let mut new = old.clone();
        for (u, v) in extra {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v && !new.add_edge(u, v) {
                new.remove_edge(u, v);
            }
        }
        let diff = LinkDiff::between(&old, &new);
        let mut rebuilt = old.clone();
        for &(u, v) in &diff.down {
            prop_assert!(rebuilt.remove_edge(u, v));
        }
        for &(u, v) in &diff.up {
            prop_assert!(rebuilt.add_edge(u, v));
        }
        prop_assert_eq!(rebuilt, new);
    }

    /// After `fill_hops`, every pair of distinct nodes — whatever the
    /// graph, the list's duplicates and orientations, the roots held
    /// before, the pool width — has an end in the hop store, and reads the
    /// distance `hop_distance` finds, from either end, without a search of
    /// its own. One `HopFill` serves both fills (its buffers are kept
    /// across calls), the second after a mutation emptied the store.
    #[test]
    fn fill_hops_answers_every_pair_from_a_held_end(
        (mut g, pairs, held) in arb_pair_fill(),
        width in 0usize..3,
    ) {
        let workers = WorkerPool::new([1, 2, 8][width]);
        let mut cover = HopFill::default();
        for round in 0..2 {
            hold(&g, &held);
            g.fill_hops(&pairs, &mut cover, &workers);
            let roots: BTreeSet<NodeIdx> = g.hop_roots().collect();
            for &(a, b) in &pairs {
                if a != b {
                    prop_assert!(
                        roots.contains(&a) || roots.contains(&b),
                        "round {}: ({}, {}) has no held end", round, a, b
                    );
                }
                let want = hop_distance(&g, a, b).unwrap_or(UNREACHABLE);
                prop_assert_eq!(g.hops(a, b), want, "({}, {})", a, b);
                prop_assert_eq!(g.hops(b, a), want, "({}, {})", b, a);
            }
            prop_assert_eq!(g.hop_roots().count(), roots.len(), "a read searched");
            let n = g.node_count() as NodeIdx;
            if n >= 2 && !g.add_edge(0, n - 1) {
                g.remove_edge(0, n - 1);
            }
        }
    }

    /// The roots a `fill_hops` adds form a vertex cover of the pairs that
    /// were open — distinct members, neither held — and every one of them
    /// is a member of such a pair: nothing else is searched.
    #[test]
    fn fill_hops_roots_a_vertex_cover_of_the_open_pairs(
        (g, pairs, held) in arb_pair_fill(),
        width in 0usize..2,
    ) {
        hold(&g, &held);
        let before: BTreeSet<NodeIdx> = g.hop_roots().collect();
        let open: Vec<(NodeIdx, NodeIdx)> = pairs
            .iter()
            .copied()
            .filter(|&(a, b)| a != b && !before.contains(&a) && !before.contains(&b))
            .collect();
        g.fill_hops(&pairs, &mut HopFill::default(), &WorkerPool::new(1 + width));
        let added: BTreeSet<NodeIdx> = g.hop_roots().filter(|r| !before.contains(r)).collect();
        for &(a, b) in &open {
            prop_assert!(added.contains(&a) || added.contains(&b), "({}, {}) uncovered", a, b);
        }
        for &root in &added {
            prop_assert!(
                open.iter().any(|&(a, b)| a == root || b == root),
                "root {} is in no open pair", root
            );
        }
    }

    /// One `HopFill` serves two graphs one after the other, of any sizes:
    /// the second is filled while the first still holds its blocks, then
    /// both are mutated — their blocks go back to the fill state — and
    /// filled again in the other order, so each writes over blocks the
    /// other held. Throughout, every pair has a held end and every held
    /// root reads its own graph's BFS row.
    #[test]
    fn fill_hops_one_fill_state_serves_two_graphs(
        (mut g, pairs, held) in arb_pair_fill(),
        (mut h, more, _) in arb_pair_fill(),
        width in 0usize..3,
    ) {
        let workers = WorkerPool::new([1, 2, 8][width]);
        let mut fill = HopFill::default();
        hold(&g, &held);
        for round in 0..2 {
            let order = if round == 0 { [(&g, &pairs), (&h, &more)] } else { [(&h, &more), (&g, &pairs)] };
            for (graph, list) in order {
                graph.fill_hops(list, &mut fill, &workers);
            }
            for (graph, list) in [(&g, &pairs), (&h, &more)] {
                let roots: BTreeSet<NodeIdx> = graph.hop_roots().collect();
                for &(a, b) in list.iter() {
                    prop_assert!(a == b || roots.contains(&a) || roots.contains(&b), "round {}", round);
                }
                rows_are_fresh(graph, &roots)?;
            }
            for graph in [&mut g, &mut h] {
                let n = graph.node_count() as NodeIdx;
                if n >= 2 && !graph.add_edge(0, n - 1) {
                    graph.remove_edge(0, n - 1);
                }
            }
        }
    }

    /// Which roots a `fill_hops` holds, and what they read, does not
    /// depend on the pool: one and two workers, on cold clones of one
    /// graph, hold the same roots with the same distances.
    #[test]
    fn fill_hops_holds_the_same_roots_at_one_and_two_threads(
        (g, pairs, held) in arb_pair_fill(),
    ) {
        let filled: Vec<Graph> = [1, 2]
            .into_iter()
            .map(|threads| {
                let copy = g.clone();
                hold(&copy, &held);
                copy.fill_hops(&pairs, &mut HopFill::default(), &WorkerPool::new(threads));
                copy
            })
            .collect();
        let roots: Vec<Vec<NodeIdx>> = filled.iter().map(|g| g.hop_roots().collect()).collect();
        prop_assert_eq!(&roots[0], &roots[1]);
        let n = g.node_count() as NodeIdx;
        for &root in &roots[0] {
            for v in 0..n {
                prop_assert_eq!(filled[0].hops(root, v), filled[1].hops(root, v));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The maintainer's flips are net changes: after every patch tick,
    /// `last_diff()` holds each flipped pair once, as `u < v`, exactly as
    /// many flips as the two snapshots differ by links — the level-0
    /// link-event count the simulator takes from it — and replaying them
    /// onto the previous snapshot reproduces the new one. Pool widths 1, 2
    /// and 3 run side by side and emit the same flip sequence on every
    /// tick; runs span rebuild ticks (no diff) and, above the maintainer's
    /// parallel floor (`large`), the pooled paths; below it every width
    /// takes the serial ones, from n = 0 up.
    #[test]
    fn maintainer_flips_are_net_link_events(
        large in any::<bool>(),
        extra in 0usize..200,
        seed in any::<u64>(),
    ) {
        let n = if large { 1024 + extra } else { extra };
        let mut rng = chlm_geom::SimRng::seed_from(seed);
        let region = chlm_geom::Disk::centered(chlm_geom::disk_radius_for_density(n.max(1), 1.0));
        let rtx = chlm_geom::rtx_for_degree(9.0, 1.0);
        let mut pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let mut ms: Vec<_> = (1..=3)
            .map(|t| chlm_graph::UnitDiskMaintainer::new(&pts, rtx).with_workers(WorkerPool::new(t)))
            .collect();
        let mut patched = 0;
        for _ in 0..30 {
            for p in pts.iter_mut() {
                let ang = rng.range_f64(0.0, std::f64::consts::TAU);
                p.x += rtx / 10.0 * ang.cos();
                p.y += rtx / 10.0 * ang.sin();
            }
            let mut prev = ms[0].graph().clone();
            for m in &mut ms {
                m.advance(&pts);
            }
            for m in &ms[1..] {
                prop_assert_eq!(m.graph(), ms[0].graph());
                prop_assert_eq!(m.last_diff(), ms[0].last_diff());
            }
            let Some(flips) = ms[0].last_diff() else { continue };
            patched += 1;
            prop_assert_eq!(flips.len(), LinkDiff::count_between(&prev, ms[0].graph()));
            let pairs: BTreeSet<_> = flips.iter().map(|f| (f.u, f.v)).collect();
            prop_assert_eq!(pairs.len(), flips.len(), "a pair flipped twice");
            for f in flips {
                prop_assert!(f.u < f.v, "flip ({}, {}) not normalized", f.u, f.v);
                if f.add {
                    prop_assert!(prev.add_edge(f.u, f.v), "stale add flip");
                } else {
                    prop_assert!(prev.remove_edge(f.u, f.v), "stale remove flip");
                }
            }
            prop_assert_eq!(&prev, ms[0].graph());
        }
        if n >= 2 {
            prop_assert!(patched > 0, "no patch tick");
            prop_assert!(ms[0].rebuild_count() > 1, "no rebuild tick");
        }
    }
}

/// The corners the random walk above may miss, by hand: the three smallest
/// graphs through every writer, one row moved to the tail four times, a
/// `reset` that shrinks and one that grows again, and the two bulk writers
/// aimed at a graph that was larger, one that was smaller and one full of
/// holes.
#[test]
fn layout_corner_cases() {
    let ok = |g: &Graph, n: usize, model: &BTreeSet<(NodeIdx, NodeIdx)>| {
        is_the_model(g, n, model).expect("graph and model disagree");
    };
    let none = BTreeSet::new();
    for n in 0..3usize {
        let mut g = Graph::with_nodes(n);
        ok(&g, n, &none);
        g.reset(n);
        ok(&g, n, &none);
        g.assign_edges(n, &mut Vec::new());
        ok(&g, n, &none);
        g.copy_from(&Graph::with_nodes(n));
        ok(&g, n, &none);
        ok(&g.clone(), n, &none);
    }
    let mut pair = Graph::with_nodes(2);
    assert!(pair.add_edge(1, 0) && pair.remove_edge(0, 1) && pair.add_edge(0, 1));
    ok(&pair, 2, &BTreeSet::from([(0, 1)]));

    // A star: the hub's row outgrows 4, 8, 16 and 32 slots, descending
    // inserts shifting the whole row each time.
    let mut g = Graph::with_nodes(40);
    let mut star = BTreeSet::new();
    for v in (1..40).rev() {
        assert!(g.add_edge(0, v));
        star.insert((0, v));
        ok(&g, 40, &star);
    }
    let holed = g.clone();

    // Shrink, refill, grow, refill: kept capacities, new rows, no leak.
    g.reset(5);
    ok(&g, 5, &none);
    g.add_edge(4, 0);
    g.add_edge(3, 4);
    ok(&g, 5, &BTreeSet::from([(0, 4), (3, 4)]));
    g.reset(60);
    ok(&g, 60, &none);
    g.add_edge(59, 4);
    g.add_edge(0, 59);
    ok(&g, 60, &BTreeSet::from([(0, 59), (4, 59)]));

    // Bulk writers into a larger graph, a smaller one and one with holes.
    let path: Vec<(NodeIdx, NodeIdx)> = (0..9).map(|i| (i + 1, i)).collect();
    let path_model: BTreeSet<_> = path.iter().map(|&(v, u)| (u, v)).collect();
    let path_graph = Graph::from_edges(10, &path);
    for dst in [g.clone(), Graph::with_nodes(3), holed.clone()] {
        let mut copied = dst.clone();
        hold(&copied, &[0]);
        copied.copy_from(&path_graph);
        assert_eq!(copied.hop_roots().count(), 0);
        ok(&copied, 10, &path_model);
        let mut assigned = dst;
        hold(&assigned, &[0]);
        assigned.assign_edges(10, &mut path.clone());
        assert_eq!(assigned.hop_roots().count(), 0);
        ok(&assigned, 10, &path_model);
        // And back out to the holed star, which packs tight on arrival.
        assigned.copy_from(&holed);
        ok(&assigned, 40, &star);
    }
}

/// Eight workers asking for overlapping roots of one graph at once — the
/// first eight jobs meet at a barrier and then all go for root 0: a third
/// of them through a lone `hops`, a third through a `fill_hops` of one
/// pair rooted at it (a one-lane batch), a third through a `fill_hops`
/// rooted at the 64-node block around it (full batches racing the lone
/// searches and one another for the same cells); every job then reads its
/// fresh BFS row, and the store ends up holding one root per distinct
/// root asked. Run on a freshly built graph and again on the same (now
/// warm) graph bulk-rewritten to a sparser edge set, whose store must have
/// been emptied for the second race to start from nothing. CI reruns this
/// under `CHLM_SHUFFLE_MERGE=1`, which permutes the order the jobs are
/// claimed in.
#[test]
fn concurrent_hop_rows_are_published_once() {
    let pts: Vec<chlm_geom::Point> = (0..240)
        .map(|i| chlm_geom::Point::new((i % 16) as f64, (i / 16) as f64 + 0.3 * (i % 3) as f64))
        .collect();
    let mut g = build_unit_disk(&pts, 1.5);
    race_for_hop_rows(&g);
    assign_from(&mut g, &build_unit_disk(&pts, 1.1));
    assert_eq!(g.hop_roots().count(), 0);
    race_for_hop_rows(&g);
}

fn race_for_hop_rows(g: &Graph) {
    const THREADS: usize = 8;
    // 64 jobs over 24 distinct roots; the first eight all want root 0.
    let roots: Vec<NodeIdx> = (0..64)
        .map(|job| {
            if job < THREADS {
                0
            } else {
                (job as NodeIdx * 7) % 24 * 10
            }
        })
        .collect();
    // What every third job fills: the four grid rows around root 0, each
    // paired with a higher node that is never a root, so that the greedy
    // cover of the pairs is the block.
    let block: Vec<NodeIdx> = (0..64).collect();
    let block_pairs: Vec<(NodeIdx, NodeIdx)> = block
        .iter()
        .zip((64..239).filter(|v| v % 10 != 0))
        .map(|(&v, partner)| (v, partner))
        .collect();
    // Never a root: a lone request for (root, 239), or a fill of that
    // pair, holds `root`.
    let far = 239;
    let fill = |pairs: &[(NodeIdx, NodeIdx)], threads| {
        g.fill_hops(pairs, &mut HopFill::default(), &WorkerPool::new(threads));
    };
    let distinct: BTreeSet<NodeIdx> = roots.iter().chain(&block).copied().collect();
    let barrier = Barrier::new(THREADS);
    let seen = WorkerPool::new(THREADS).run_indexed(roots.len(), |job| {
        if job < THREADS {
            barrier.wait();
        }
        let root = roots[job];
        match job % 3 {
            0 => {
                g.hops(root, far);
            }
            1 => fill(&[(root, far)], 1),
            _ => fill(&block_pairs, 1 + job % 4),
        }
        fill(&[(root, far)], 1);
        (0..240).map(|v| g.hops(root, v)).collect::<Vec<_>>()
    });
    for (job, row) in seen.iter().enumerate() {
        assert_eq!(row, &bfs_distances(g, roots[job]), "job {job}");
    }
    assert_eq!(g.hop_roots().count(), distinct.len());
    for &root in &block {
        for v in 0..240 {
            assert_eq!(g.hops(v, root), g.hops(root, v), "block root {root}");
        }
        assert_eq!(
            (0..240).map(|v| g.hops(root, v)).collect::<Vec<_>>(),
            bfs_distances(g, root),
            "block root {root}"
        );
    }
    assert_eq!(g.hop_roots().count(), distinct.len());
    g.check_invariants();
}

/// Pool width is invisible: the same pairs filled at 1, 2 and 8 workers
/// (and not filled at all) hold the same roots, read equal rows, in blocks
/// of the same bytes, and asking again computes nothing.
#[test]
fn filled_rows_do_not_depend_on_the_pool_width() {
    let pts: Vec<chlm_geom::Point> = (0..600)
        .map(|i| chlm_geom::Point::new((i % 30) as f64 * 0.9, (i / 30) as f64 * 0.9))
        .collect();
    let g = build_unit_disk(&pts, 1.4);
    // Every pair of 232 roots, with duplicates, out of order: the cover
    // is every root but the last, three full batches and a remainder.
    let roots: Vec<NodeIdx> = (0..230).rev().chain([5, 5, 599, 300]).collect();
    let pairs = all_pairs(&roots);
    let lazy: Vec<Vec<u32>> = roots.iter().map(|&r| bfs_distances(&g, r)).collect();
    let mut bytes = None;
    let mut held_roots = None;
    for width in [1, 2, 8] {
        let cold = g.clone();
        let mut cover = HopFill::default();
        cold.fill_hops(&pairs, &mut cover, &WorkerPool::new(width));
        assert_eq!(cold.hop_roots().count(), 231, "width {width}");
        let roots_now: Vec<NodeIdx> = cold.hop_roots().collect();
        assert_eq!(held_roots.get_or_insert(roots_now.clone()), &roots_now);
        let held = cold.hop_store_bytes();
        assert_eq!(*bytes.get_or_insert(held), held, "width {width}");
        // The rows of the held roots: a read of the one root left out
        // would search from it.
        for (&root, want) in roots.iter().zip(&lazy) {
            if roots_now.binary_search(&root).is_err() {
                continue;
            }
            let row: Vec<u32> = (0..600).map(|v| cold.hops(root, v)).collect();
            assert_eq!(&row, want, "width {width} root {root}");
        }
        cold.fill_hops(&pairs, &mut cover, &WorkerPool::new(width));
        assert_eq!(
            cold.hop_store_bytes(),
            held,
            "width {width}: a fill recomputed"
        );
        assert_eq!(cold.hop_roots().count(), 231);
    }
}
