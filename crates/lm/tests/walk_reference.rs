//! `LmAssignment::compute_with` against a walk written from the paper.
//!
//! The reference walks each subject through the public `Hierarchy` API
//! alone: start at its level-k address, take the member list of the
//! cluster it stands on, pick one with `hrw_select_weighted` (weights are
//! subtree sizes it counts itself from the addresses) or
//! `mod_successor_select`, step to the winner, until a level-0 node is
//! reached. The production walk — tree-ordered CSR columns, memoized inner
//! hashes, certified fast paths, blocks of subjects, pooled ranges — must
//! name the same host for every entry, through one recycled scratch per
//! thread count across worlds of every shape: empty, edgeless, split into
//! many components (several top-level roots), dense, depth capped anywhere
//! from 1 to 10 levels.
//!
//! `PROPTEST_CASES` sets the case count (64 by default; CI runs 512).

use chlm_cluster::{Hierarchy, HierarchyOptions};
use chlm_geom::{Disk, SimRng};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_graph::NodeIdx;
use chlm_lm::hash::{hrw_select_weighted, mod_successor_select};
use chlm_lm::server::{LmAssignment, SelectionRule, WalkScratch};
use chlm_par::WorkerPool;
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// Case count: `PROPTEST_CASES` if set, else 64.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The population from which the walk runs on a pool (the walk's own
/// serial cut-off).
const POOLED_N: usize = 2048;

/// A uniform deployment of `n` nodes at density 1 with permutation IDs,
/// at mean degree `degree` (below ~4 it falls apart into islands), its
/// hierarchy capped at `max_levels`.
fn world(n: usize, seed: u64, degree: f64, max_levels: usize) -> Hierarchy {
    let mut rng = SimRng::seed_from(seed);
    let radius = chlm_geom::disk_radius_for_density(n, 1.0).max(1.0);
    let pts = chlm_geom::region::deploy_uniform(&Disk::centered(radius), n, &mut rng);
    let ids = rng.permutation(n);
    let graph = build_unit_disk(&pts, chlm_geom::rtx_for_degree(degree, 1.0));
    let opts = HierarchyOptions {
        max_levels,
        ..HierarchyOptions::default()
    };
    Hierarchy::build(&ids, &graph, opts)
}

/// `hosts[v][k]` for every subject `v` and level `k` in `2..depth`, walked
/// one subject and one level at a time.
fn reference(h: &Hierarchy, rule: SelectionRule) -> Vec<Vec<NodeIdx>> {
    let addrs = h.addresses();
    // weight[j][p]: level-0 nodes under physical node `p` as a level-j node.
    let weight: Vec<Vec<f64>> = (0..h.depth())
        .map(|j| {
            let mut w = vec![0.0; h.node_count()];
            for a in &addrs {
                w[a[j] as usize] += 1.0;
            }
            w
        })
        .collect();
    (0..h.node_count())
        .map(|v| {
            let subject = h.ids[v];
            (2..h.depth())
                .map(|k| {
                    let mut at = addrs[v][k];
                    for j in (0..k).rev() {
                        let members = h.members(j + 1, at);
                        let salt = ((k as u64) << 32) | j as u64;
                        let pick = match rule {
                            SelectionRule::Hrw => {
                                let cands: Vec<(u64, f64)> = members
                                    .iter()
                                    .map(|&m| (h.ids[m as usize], weight[j][m as usize]))
                                    .collect();
                                hrw_select_weighted(subject, &cands, salt)
                            }
                            SelectionRule::ModSuccessor { id_space } => {
                                let cands: Vec<u64> =
                                    members.iter().map(|&m| h.ids[m as usize]).collect();
                                mod_successor_select(subject.wrapping_add(salt), &cands, id_space)
                            }
                        };
                        at = members[pick];
                    }
                    at
                })
                .collect()
        })
        .collect()
}

/// Every entry of `got` (and the absence of every non-entry) against the
/// reference.
fn check(h: &Hierarchy, got: &LmAssignment, want: &[Vec<NodeIdx>]) -> TestCaseResult {
    prop_assert_eq!(got.node_count(), h.node_count());
    prop_assert_eq!(got.depth(), h.depth());
    for (v, row) in want.iter().enumerate() {
        let v = v as NodeIdx;
        for k in 0..h.depth() + 1 {
            let expect = (k >= 2 && k < h.depth()).then(|| row[k - 2]);
            prop_assert_eq!(got.host(v, k), expect, "v={} k={}", v, k);
        }
    }
    Ok(())
}

/// A rule from a flag, with `mod_successor`'s ID space the population.
fn rule(hrw: bool, n: usize) -> SelectionRule {
    if hrw {
        SelectionRule::Hrw
    } else {
        SelectionRule::ModSuccessor {
            id_space: n.max(1) as u64,
        }
    }
}

/// Walk `worlds` in order through one scratch per thread count.
fn walk_all(worlds: &[(Hierarchy, SelectionRule)]) -> TestCaseResult {
    let mut scratches: Vec<WalkScratch> = [1, 2, 8]
        .map(|t| WalkScratch::new().with_workers(WorkerPool::new(t)))
        .into();
    for (h, rule) in worlds {
        let want = reference(h, *rule);
        for scratch in &mut scratches {
            let got = LmAssignment::compute_with(h, *rule, scratch);
            check(h, &got, &want)?;
            scratch.recycle(got);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Serial-sized worlds, several per case so the scratches are handed
    /// shapes they were not sized for.
    #[test]
    fn walk_matches_reference(
        worlds in proptest::collection::vec(
            (0usize..=600, any::<u64>(), 0.3f64..20.0, 1usize..=10, any::<bool>()),
            1..4,
        ),
    ) {
        let worlds: Vec<_> = worlds
            .into_iter()
            .map(|(n, seed, degree, levels, hrw)| (world(n, seed, degree, levels), rule(hrw, n)))
            .collect();
        walk_all(&worlds)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases().div_ceil(16)))]

    /// Worlds big enough for the pooled walk at 2 and 8 threads.
    #[test]
    fn pooled_walk_matches_reference(
        n in POOLED_N..=POOLED_N + 600,
        seed in any::<u64>(),
        degree in 2.0f64..14.0,
        levels in 1usize..=10,
        hrw in any::<bool>(),
    ) {
        walk_all(&[(world(n, seed, degree, levels), rule(hrw, n))])?;
    }
}
