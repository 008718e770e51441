//! Server-selection hash functions.
//!
//! CHLM needs a rule that, given a subject node and a candidate set (the
//! member clusters of some cluster), picks exactly one candidate such that
//! (a) anyone can recompute the choice locally (unambiguous) and (b) over
//! many subjects the load spreads evenly (equitable).
//!
//! * [`hrw_select`] — highest-random-weight (rendezvous) hashing: the
//!   candidate maximizing `h(subject, candidate)` wins. Balanced and
//!   minimally disruptive: when a candidate joins/leaves, only the subjects
//!   it wins/loses move.
//! * [`mod_successor_select`] — GLS's eq. (5): the candidate with the least
//!   ID *greater than* the subject's (circularly). Balanced over a dense ID
//!   space (GLS's situation) but, as §3.2 warns, badly skewed over the
//!   sparse ID sets of cluster members — the smallest ID in a cluster
//!   attracts a disproportionate share. Kept as the E14 ablation.

use chlm_cluster::ElectionId;
use chlm_geom::rng::splitmix64;

/// Weight of `candidate` for `subject` under `salt`; the maximizer wins.
#[inline]
pub fn hrw_weight(subject: ElectionId, candidate: ElectionId, salt: u64) -> u64 {
    splitmix64(subject ^ splitmix64(candidate ^ salt))
}

/// The weighted-rendezvous key `-w / ln(u)` of one candidate, exactly as
/// [`hrw_select_weighted`] computes it. Exposed so incremental callers can
/// score a handful of candidates against a cached winner with bit-identical
/// arithmetic; the winner is the candidate maximizing `(key, id)`
/// lexicographically.
#[inline]
pub fn hrw_key_weighted(subject: ElectionId, candidate: ElectionId, salt: u64, w: f64) -> f64 {
    hrw_key_from_raw(hrw_weight(subject, candidate, salt), w)
}

/// The weighted-rendezvous key computed from an already-hashed raw draw —
/// the tail of [`hrw_key_weighted`], split out so callers that memoize the
/// inner hash (`splitmix64(candidate ^ salt)`) can finish the scoring with
/// bit-identical arithmetic.
#[inline]
pub fn hrw_key_from_raw(raw: u64, w: f64) -> f64 {
    // Map to (0, 1) exclusive on both ends.
    let u = (raw as f64 + 0.5) / (u64::MAX as f64 + 1.0);
    -w / u.ln()
}

/// Highest-random-weight selection: index of the winning candidate.
///
/// Deterministic and total-order based, so it is unambiguous even under
/// (astronomically unlikely) weight ties, which are broken by candidate ID.
///
/// # Panics
/// If `candidates` is empty.
pub fn hrw_select(subject: ElectionId, candidates: &[ElectionId], salt: u64) -> usize {
    assert!(!candidates.is_empty(), "empty candidate set");
    let mut best = 0usize;
    let mut best_key = (hrw_weight(subject, candidates[0], salt), candidates[0]);
    for (i, &c) in candidates.iter().enumerate().skip(1) {
        let key = (hrw_weight(subject, c, salt), c);
        if key > best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// GLS's eq. (5): select the candidate minimizing
/// `(candidate - subject - 1) mod id_space` — i.e. the least ID strictly
/// greater than the subject's, wrapping around.
///
/// # Panics
/// If `candidates` is empty or `id_space == 0`.
pub fn mod_successor_select(
    subject: ElectionId,
    candidates: &[ElectionId],
    id_space: u64,
) -> usize {
    assert!(!candidates.is_empty(), "empty candidate set");
    assert!(id_space > 0);
    let mut best = 0usize;
    let mut best_gap = u64::MAX;
    let s1 = (subject + 1) % id_space;
    for (i, &c) in candidates.iter().enumerate() {
        // Circular distance from subject (exclusive) up to candidate,
        // computed in the ID space (not in u64).
        let gap = ((c % id_space) + id_space - s1) % id_space;
        if gap < best_gap {
            best_gap = gap;
            best = i;
        }
    }
    best
}

/// Weighted rendezvous hashing: the candidate maximizing
/// `-weight / ln(u)` wins, where `u ∈ (0,1)` is the candidate's hash for
/// this subject. Selection probability is proportional to `weight`.
///
/// This is the "slightly more complex hashing function" §3.2 calls for:
/// CHLM candidates are *member clusters* of very different sizes, and an
/// unweighted rule would overload small subtrees; weighting by subtree
/// node count restores the equitable per-node load GLS gets for free from
/// its uniform grid.
///
/// # Panics
/// If `candidates` is empty or any weight is not positive.
pub fn hrw_select_weighted(
    subject: ElectionId,
    candidates: &[(ElectionId, f64)],
    salt: u64,
) -> usize {
    assert!(!candidates.is_empty(), "empty candidate set");
    let mut best = 0usize;
    let mut best_key = f64::NEG_INFINITY;
    let mut best_id = 0u64;
    for (i, &(id, w)) in candidates.iter().enumerate() {
        assert!(w > 0.0 && w.is_finite(), "weights must be positive");
        let key = hrw_key_weighted(subject, id, salt, w);
        if key > best_key || (key == best_key && id > best_id) {
            best_key = key;
            best_id = id;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrw_is_deterministic_and_in_range() {
        let cands = [10u64, 20, 30, 40];
        for s in 0..100u64 {
            let a = hrw_select(s, &cands, 7);
            let b = hrw_select(s, &cands, 7);
            assert_eq!(a, b);
            assert!(a < cands.len());
        }
    }

    #[test]
    fn hrw_salt_changes_selection_sometimes() {
        let cands = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let differing = (0..200u64)
            .filter(|&s| hrw_select(s, &cands, 1) != hrw_select(s, &cands, 2))
            .count();
        assert!(differing > 50, "salts suspiciously correlated: {differing}");
    }

    #[test]
    fn hrw_minimal_disruption() {
        // Removing one candidate only moves subjects previously assigned to it.
        let cands = [5u64, 9, 13, 21, 34];
        let reduced: Vec<u64> = cands[..4].to_vec();
        for s in 0..300u64 {
            let before = hrw_select(s, &cands, 0);
            let after = hrw_select(s, &reduced, 0);
            if before < 4 {
                assert_eq!(after, before, "subject {s} moved unnecessarily");
            }
        }
    }

    /// Max over mean load when `select` assigns every subject to one of
    /// `candidates`.
    fn skew(subjects: &[u64], candidates: &[u64], select: impl Fn(u64, &[u64]) -> usize) -> f64 {
        let mut load = vec![0usize; candidates.len()];
        for &s in subjects {
            load[select(s, candidates)] += 1;
        }
        let max = load.into_iter().max().unwrap_or(0);
        max as f64 * candidates.len() as f64 / subjects.len() as f64
    }

    #[test]
    fn hrw_load_roughly_uniform() {
        let cands: Vec<u64> = (0..8).map(|i| 1000 + 37 * i).collect();
        let subjects: Vec<u64> = (0..4000).collect();
        let ratio = skew(&subjects, &cands, |s, c| hrw_select(s, c, 0));
        assert!(ratio < 1.2, "HRW skew ratio {ratio}");
    }

    #[test]
    fn mod_rule_picks_successor() {
        // id space 100; subject 42; candidates {10, 50, 90}: successor is 50.
        assert_eq!(mod_successor_select(42, &[10, 50, 90], 100), 1);
        // subject 95: wraps to 10.
        assert_eq!(mod_successor_select(95, &[10, 50, 90], 100), 0);
        // subject exactly a candidate: strictly-greater wins (50 for 50 → 90).
        assert_eq!(mod_successor_select(50, &[10, 50, 90], 100), 2);
    }

    #[test]
    fn mod_rule_skewed_on_sparse_clusters() {
        // The §3.2 scenario: candidates are a cluster's member IDs, sparse
        // in the space; every subject with ID above the max member wraps to
        // the *minimum* member, concentrating load there.
        let candidates = [45u64, 59, 68, 74, 75, 97];
        let subjects: Vec<u64> = (0..1000).collect();
        let mod_ratio = skew(&subjects, &candidates, |s, c| {
            mod_successor_select(s, c, 1000)
        });
        let hrw_ratio = skew(&subjects, &candidates, |s, c| hrw_select(s, c, 0));
        assert!(
            mod_ratio > 3.0,
            "mod rule unexpectedly balanced: {mod_ratio}"
        );
        assert!(hrw_ratio < 1.5, "hrw unexpectedly skewed: {hrw_ratio}");
        // And the hot spot is the minimum-ID candidate (45 absorbs the wrap).
        let mut load = vec![0usize; candidates.len()];
        for &s in &subjects {
            load[mod_successor_select(s, &candidates, 1000)] += 1;
        }
        let hottest = load.iter().enumerate().max_by_key(|(_, &l)| l).unwrap().0;
        assert_eq!(candidates[hottest], 45);
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panics() {
        hrw_select(1, &[], 0);
    }

    #[test]
    fn weighted_hrw_proportional_to_weight() {
        // Candidate weights 1:3 should receive load ≈ 1:3.
        let cands = [(100u64, 1.0), (200u64, 3.0)];
        let mut load = [0usize; 2];
        for s in 0..8000u64 {
            load[hrw_select_weighted(s, &cands, 5)] += 1;
        }
        let frac = load[1] as f64 / 8000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn weighted_hrw_equal_weights_balanced() {
        let cands: Vec<(u64, f64)> = (0..5).map(|i| (i * 31 + 7, 1.0)).collect();
        let mut load = vec![0usize; 5];
        for s in 0..5000u64 {
            load[hrw_select_weighted(s, &cands, 9)] += 1;
        }
        for &l in &load {
            assert!((l as f64 - 1000.0).abs() < 150.0, "load = {load:?}");
        }
    }

    #[test]
    fn weighted_hrw_deterministic_and_minimal_disruption() {
        let cands: Vec<(u64, f64)> = vec![(3, 2.0), (11, 1.0), (42, 4.0), (77, 1.5)];
        let reduced = cands[..3].to_vec();
        for s in 0..500u64 {
            assert_eq!(
                hrw_select_weighted(s, &cands, 1),
                hrw_select_weighted(s, &cands, 1)
            );
            let before = hrw_select_weighted(s, &cands, 1);
            if before < 3 {
                assert_eq!(hrw_select_weighted(s, &reduced, 1), before);
            }
        }
    }

    #[test]
    #[should_panic]
    fn weighted_hrw_rejects_nonpositive_weight() {
        hrw_select_weighted(1, &[(1, 0.0)], 0);
    }
}
