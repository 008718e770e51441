//! Location *registration* updates (the steady-state cost that accompanies
//! handoff).
//!
//! Handoff moves LM entries when the hierarchy changes; registration keeps
//! the entries *fresh* while the hierarchy stands still. Following GLS's
//! feature (c) — near servers hear often, far servers rarely — a node
//! refreshes its level-k server only after moving a distance proportional
//! to its level-k cluster radius (`Θ(h_k · R_TX)`). The paper's companion
//! work \[17\] shows this prices registration at `Θ(log |V|)` packet
//! transmissions per node per second: level-k updates happen at rate
//! `Θ(1/h_k)` and travel `Θ(h_k)` hops, so every level costs `Θ(1)` and
//! there are `Θ(log |V|)` levels. Experiment E19 verifies the claim.

use crate::server::LmAssignment;
use chlm_geom::Point;
use chlm_graph::NodeIdx;

/// Distance-triggered registration policy: refresh the level-k server
/// after moving `threshold_factor · h_k · rtx` since the last level-k
/// update, with `h_k = base_hop_estimate · sqrt(alpha)^k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdatePolicy {
    /// Transmission radius (meters).
    pub rtx: f64,
    /// Estimated mean hierarchy arity α (for the h_k ladder).
    pub alpha: f64,
    /// Fraction of the cluster radius a node may drift before refreshing.
    pub threshold_factor: f64,
}

impl UpdatePolicy {
    pub fn new(rtx: f64, alpha: f64, threshold_factor: f64) -> Self {
        assert!(rtx > 0.0 && alpha > 1.0 && threshold_factor > 0.0);
        UpdatePolicy {
            rtx,
            alpha,
            threshold_factor,
        }
    }

    /// Movement threshold that triggers a level-`k` update.
    pub fn threshold(&self, k: usize) -> f64 {
        self.threshold_factor * self.rtx * self.alpha.sqrt().powi(k as i32)
    }
}

/// Tracks per-node per-level positions-at-last-update and accumulates
/// registration packet costs.
#[derive(Debug, Clone)]
pub struct RegistrationTracker {
    policy: UpdatePolicy,
    /// Highest level tracked (inclusive); levels 2..=max_level.
    max_level: usize,
    /// Row-major `n × (max_level+1)`; positions at last update.
    last: Vec<Point>,
    n: usize,
    /// Total registration packets (entries × hops).
    pub packets: f64,
    /// Total update messages sent.
    pub updates: u64,
    pub node_seconds: f64,
    /// Per-level accumulators (index = level).
    per_level_packets: Vec<f64>,
    per_level_updates: Vec<u64>,
}

impl RegistrationTracker {
    pub fn new(policy: UpdatePolicy, positions: &[Point], max_level: usize) -> Self {
        assert!(max_level >= 2, "registration starts at level 2");
        let n = positions.len();
        let mut last = Vec::with_capacity(n * (max_level + 1));
        for &p in positions {
            for _ in 0..=max_level {
                last.push(p);
            }
        }
        RegistrationTracker {
            policy,
            max_level,
            last,
            n,
            packets: 0.0,
            updates: 0,
            node_seconds: 0.0,
            per_level_packets: vec![0.0; max_level + 1],
            per_level_updates: vec![0; max_level + 1],
        }
    }

    /// Observe one tick: check every node's drift against each level's
    /// threshold; a triggered level sends one update to the current level-k
    /// server, costing `hop(v, server)` packets.
    pub fn observe<H: FnMut(NodeIdx, NodeIdx) -> f64>(
        &mut self,
        positions: &[Point],
        assignment: &LmAssignment,
        mut hop: H,
        dt: f64,
    ) {
        assert_eq!(positions.len(), self.n);
        let depth = assignment.depth();
        for v in 0..self.n {
            for k in 2..=self.max_level.min(depth.saturating_sub(1)) {
                let slot = v * (self.max_level + 1) + k;
                if positions[v].dist(self.last[slot]) >= self.policy.threshold(k) {
                    self.last[slot] = positions[v];
                    if let Some(server) = assignment.host(v as NodeIdx, k) {
                        let cost = hop(v as NodeIdx, server);
                        self.packets += cost;
                        self.updates += 1;
                        self.per_level_packets[k] += cost;
                        self.per_level_updates[k] += 1;
                    }
                }
            }
        }
        self.node_seconds += self.n as f64 * dt;
    }

    /// Registration packets per node per second.
    pub fn overhead_per_node_per_second(&self) -> f64 {
        if self.node_seconds == 0.0 {
            0.0
        } else {
            self.packets / self.node_seconds
        }
    }

    /// Per-level registration overhead (packets per node per second).
    pub fn level_overhead(&self, k: usize) -> f64 {
        if self.node_seconds == 0.0 {
            return 0.0;
        }
        self.per_level_packets.get(k).copied().unwrap_or(0.0) / self.node_seconds
    }

    pub fn max_level(&self) -> usize {
        self.max_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SelectionRule;
    use chlm_cluster::{Hierarchy, HierarchyOptions};
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::unit_disk::build_unit_disk;

    fn setup(n: usize, seed: u64) -> (Vec<Point>, LmAssignment, usize) {
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let mut rng = SimRng::seed_from(seed);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, rtx);
        let ids = rng.permutation(n);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let depth = h.depth();
        (pts, LmAssignment::compute(&h, SelectionRule::Hrw), depth)
    }

    #[test]
    fn thresholds_grow_geometrically() {
        let p = UpdatePolicy::new(1.5, 4.0, 0.5);
        assert!((p.threshold(3) / p.threshold(2) - 2.0).abs() < 1e-12);
        assert!((p.threshold(2) - 0.5 * 1.5 * 4.0).abs() < 1e-12);
    }

    #[test]
    fn no_motion_no_updates() {
        let (pts, a, depth) = setup(150, 1);
        let policy = UpdatePolicy::new(1.5, 3.0, 0.5);
        let mut t = RegistrationTracker::new(policy, &pts, depth.saturating_sub(1).max(2));
        for _ in 0..5 {
            t.observe(&pts, &a, |_, _| 1.0, 1.0);
        }
        assert_eq!(t.updates, 0);
        assert_eq!(t.overhead_per_node_per_second(), 0.0);
        assert_eq!(t.node_seconds, 750.0);
    }

    #[test]
    fn large_jump_triggers_every_level() {
        let (mut pts, a, depth) = setup(150, 2);
        let max_level = depth.saturating_sub(1).max(2);
        let policy = UpdatePolicy::new(1.5, 3.0, 0.5);
        let mut t = RegistrationTracker::new(policy, &pts, max_level);
        // Teleport node 0 far away (but keep the same assignment snapshot —
        // registration pricing only needs the server table).
        pts[0] += Point::new(1.0e4, 0.0);
        t.observe(&pts, &a, |_, _| 2.0, 1.0);
        let expected_levels = (2..=max_level.min(a.depth() - 1)).count() as u64;
        assert_eq!(t.updates, expected_levels);
        assert!((t.packets - 2.0 * expected_levels as f64).abs() < 1e-12);
    }

    #[test]
    fn near_levels_update_more_often_than_far() {
        // A node drifting steadily triggers low levels frequently and high
        // levels rarely — feature (c).
        let (mut pts, a, depth) = setup(200, 3);
        let max_level = depth.saturating_sub(1).max(3);
        let policy = UpdatePolicy::new(1.5, 3.0, 0.5);
        let mut t = RegistrationTracker::new(policy, &pts, max_level);
        for _ in 0..400 {
            for p in pts.iter_mut() {
                *p += Point::new(0.11, 0.0); // steady drift
            }
            t.observe(&pts, &a, |_, _| 1.0, 0.1);
        }
        let low = t.per_level_updates[2];
        let high = t.per_level_updates[max_level.min(a.depth() - 1)];
        assert!(low > 0);
        assert!(
            low > high,
            "low-level updates {low} should exceed high-level updates {high}"
        );
    }
}
