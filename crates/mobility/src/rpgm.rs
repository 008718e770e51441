//! Reference-point group mobility (RPGM).
//!
//! Nodes are partitioned into groups; each group's *logical center* performs
//! a random-waypoint walk, and each member jitters around its reference
//! point (a fixed offset from the center) within a small radius. This is the
//! group-mobility pattern that motivates hierarchical protocols such as
//! HSR \[11\]: group structure makes clusters more stable than independent
//! RWP, which experiment E16 quantifies (lower reorganization rate γ).
//!
//! A member's jitter is a [`RandomDirection`] walk over the disk of radius
//! `jitter_radius` about its reference point, at `jitter_speed` with mean
//! heading epoch [`WALK_EPOCH`], reflecting off the disk's rim and starting
//! from its uniform stationary law. Like the centers, it draws headings at
//! epoch ends inside a tick, so the process does not depend on the tick
//! length.

use crate::direction::RandomDirection;
use crate::waypoint::RandomWaypoint;
use crate::{MobilityModel, WALK_EPOCH};
use chlm_geom::{Disk, Point, Region, SimRng};

/// Reference-point group mobility process.
#[derive(Debug, Clone)]
pub struct Rpgm {
    region: Disk,
    /// Group centers perform RWP.
    centers: RandomWaypoint,
    /// Per-node group index.
    group_of: Vec<u32>,
    /// Per-node fixed offset from the group center.
    offset: Vec<Point>,
    /// Per-node jitter around the reference point; `None` when the jitter
    /// radius or speed is zero.
    jitter: Option<RandomDirection>,
    positions: Vec<Point>,
}

impl Rpgm {
    /// Create `n` nodes in `groups` groups with group spread `group_radius`
    /// and local jitter up to `jitter_radius` at `jitter_speed`.
    ///
    /// # Panics
    /// If `groups == 0` or `groups > n`, or radii/speeds are not positive.
    #[allow(clippy::too_many_arguments)]
    pub fn deployed(
        region: Disk,
        n: usize,
        groups: usize,
        center_speed: f64,
        group_radius: f64,
        jitter_radius: f64,
        jitter_speed: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(groups > 0 && groups <= n, "need 1..=n groups");
        assert!(group_radius > 0.0 && jitter_radius >= 0.0);
        assert!(center_speed > 0.0 && jitter_speed >= 0.0);
        // Keep group centers away from the rim so members stay inside.
        let inner = Disk::new(
            region.center,
            (region.radius - group_radius - jitter_radius).max(region.radius * 0.1),
        );
        let center_positions = chlm_geom::region::deploy_uniform(&inner, groups, rng);
        let centers =
            RandomWaypoint::new(inner, center_positions, center_speed, rng.fork(0x6706_0001));
        let mut local = rng.fork(0x6706_0002);
        let mut group_of = Vec::with_capacity(n);
        let mut offset = Vec::with_capacity(n);
        for i in 0..n {
            let gid = (i % groups) as u32;
            group_of.push(gid);
            // Uniform offset within the group disk.
            let r = group_radius * local.unit().sqrt();
            let th = local.range_f64(0.0, std::f64::consts::TAU);
            offset.push(Point::unit(th) * r);
        }
        let jitter = (jitter_radius > 0.0 && jitter_speed > 0.0).then(|| {
            RandomDirection::deployed(
                Disk::centered(jitter_radius),
                n,
                jitter_speed,
                WALK_EPOCH,
                &mut local,
            )
        });
        let mut s = Rpgm {
            region,
            centers,
            group_of,
            offset,
            jitter,
            positions: vec![Point::ORIGIN; n],
        };
        s.refresh_positions();
        s
    }

    fn refresh_positions(&mut self) {
        let centers = self.centers.positions();
        let jitter = self.jitter.as_ref().map(|j| j.positions());
        for i in 0..self.positions.len() {
            let c = centers[self.group_of[i] as usize];
            let j = jitter.map_or(Point::ORIGIN, |j| j[i]);
            self.positions[i] = self.region.clamp(c + self.offset[i] + j);
        }
    }

    /// Group index of each node.
    pub fn groups(&self) -> &[u32] {
        &self.group_of
    }

    pub fn region(&self) -> Disk {
        self.region
    }
}

impl MobilityModel for Rpgm {
    fn len(&self) -> usize {
        self.positions.len()
    }

    fn positions(&self) -> &[Point] {
        &self.positions
    }

    fn step(&mut self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite());
        self.centers.step(dt);
        if let Some(j) = &mut self.jitter {
            j.step(dt);
        }
        self.refresh_positions();
    }

    fn speed(&self) -> f64 {
        self.centers.speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(seed: u64) -> Rpgm {
        let region = Disk::centered(60.0);
        let mut rng = SimRng::seed_from(seed);
        Rpgm::deployed(region, 120, 8, 2.0, 6.0, 1.0, 0.5, &mut rng)
    }

    #[test]
    fn stays_in_region() {
        let mut m = setup(1);
        let region = m.region();
        for _ in 0..200 {
            m.step(0.5);
            assert!(m.positions().iter().all(|&p| region.contains(p)));
        }
    }

    #[test]
    fn group_members_stay_near_each_other() {
        let mut m = setup(2);
        for _ in 0..100 {
            m.step(0.5);
        }
        // Max pairwise distance within a group is bounded by
        // 2*(group_radius + jitter_radius) = 14.
        let pos = m.positions().to_vec();
        let groups = m.groups().to_vec();
        for a in 0..pos.len() {
            for b in (a + 1)..pos.len() {
                if groups[a] == groups[b] {
                    assert!(pos[a].dist(pos[b]) <= 14.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn groups_move_coherently() {
        let mut m = setup(3);
        let before = m.positions().to_vec();
        for _ in 0..60 {
            m.step(1.0);
        }
        // Mean displacement within a group should be similar across members:
        // compute per-group displacement vectors and check low spread.
        let after = m.positions();
        let groups = m.groups();
        let n_groups = 8;
        for g in 0..n_groups as u32 {
            let disp: Vec<Point> = groups
                .iter()
                .enumerate()
                .filter(|(_, &gi)| gi == g)
                .map(|(i, _)| after[i] - before[i])
                .collect();
            let mean = disp.iter().fold(Point::ORIGIN, |a, &b| a + b) / disp.len() as f64;
            for d in &disp {
                // Individual deviation from the group mean is bounded by the
                // group + jitter geometry (and clamping near the rim), far
                // below typical center displacement.
                assert!((*d - mean).norm() <= 2.0 * (6.0 + 1.0) + 1e-6);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_groups_panics() {
        let region = Disk::centered(10.0);
        let mut rng = SimRng::seed_from(0);
        Rpgm::deployed(region, 10, 0, 1.0, 1.0, 0.1, 0.1, &mut rng);
    }
}
