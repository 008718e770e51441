//! Random-direction mobility.
//!
//! Each node travels at speed μ in a uniformly random heading for an
//! exponentially-distributed epoch, then picks a new heading; it reflects
//! specularly off the region boundary. Unlike random waypoint, the
//! stationary spatial distribution is uniform, which makes it a useful
//! cross-check in the mobility ablation (E16): the paper's Θ-results depend
//! only on fixed density and speed μ, so f₀ and φ should behave similarly.

use crate::MobilityModel;
use chlm_geom::{Disk, Point, Region, SimRng};

#[derive(Debug, Clone)]
struct Mover {
    pos: Point,
    heading: Point, // unit vector
    epoch_left: f64,
}

/// Random-direction process with boundary reflection.
#[derive(Debug, Clone)]
pub struct RandomDirection {
    region: Disk,
    speed: f64,
    mean_epoch: f64,
    movers: Vec<Mover>,
    positions: Vec<Point>,
    rng: SimRng,
}

impl RandomDirection {
    /// `mean_epoch` is the mean duration between heading changes.
    pub fn new(
        region: Disk,
        positions: Vec<Point>,
        speed: f64,
        mean_epoch: f64,
        mut rng: SimRng,
    ) -> Self {
        assert!(speed > 0.0 && speed.is_finite());
        assert!(mean_epoch > 0.0 && mean_epoch.is_finite());
        let movers = positions
            .iter()
            .map(|&pos| {
                assert!(region.contains(pos));
                Mover {
                    pos,
                    heading: Point::unit(rng.range_f64(0.0, std::f64::consts::TAU)),
                    epoch_left: sample_exp(mean_epoch, &mut rng),
                }
            })
            .collect();
        RandomDirection {
            region,
            speed,
            mean_epoch,
            positions: positions.clone(),
            movers,
            rng,
        }
    }

    /// Deploy uniformly at random.
    pub fn deployed(region: Disk, n: usize, speed: f64, mean_epoch: f64, rng: &mut SimRng) -> Self {
        let positions = chlm_geom::region::deploy_uniform(&region, n, rng);
        RandomDirection::new(region, positions, speed, mean_epoch, rng.fork(0xD14E_C710))
    }

    pub fn region(&self) -> Disk {
        self.region
    }
}

fn sample_exp(mean: f64, rng: &mut SimRng) -> f64 {
    // Inverse-CDF sampling; `1 - unit()` avoids ln(0).
    -mean * (1.0 - rng.unit()).ln()
}

impl MobilityModel for RandomDirection {
    fn len(&self) -> usize {
        self.movers.len()
    }

    fn positions(&self) -> &[Point] {
        &self.positions
    }

    fn step(&mut self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite());
        let c = self.region.center;
        let r = self.region.radius;
        let limit = ((4.0 * dt / self.mean_epoch) as usize).saturating_add(10_000);
        for (m, out) in self.movers.iter_mut().zip(self.positions.iter_mut()) {
            let mut remaining = dt;
            // Advance through heading epochs and wall bounces within the tick.
            // The guard scales with the epochs the step spans, so that a
            // long step at a short epoch is not cut short.
            let mut guard = 0;
            while remaining > 1e-12 {
                guard += 1;
                if guard > limit {
                    break; // numerical pathology: give up gracefully for this tick
                }
                let advance = remaining.min(m.epoch_left);
                let step_vec = m.heading * (self.speed * advance);
                let next = m.pos + step_vec;
                if next.dist(c) <= r {
                    m.pos = next;
                    m.epoch_left -= advance;
                    remaining -= advance;
                } else {
                    // Find the boundary crossing and reflect the heading
                    // about the rim normal there.
                    let t_hit = ray_circle_exit(m.pos, m.heading, c, r);
                    let travel = (t_hit / self.speed).min(advance);
                    m.pos = self.region.clamp(m.pos + m.heading * (self.speed * travel));
                    let normal = (m.pos - c).normalized().unwrap_or(Point::new(1.0, 0.0));
                    let d = m.heading;
                    m.heading = d - normal * (2.0 * d.dot(normal));
                    m.epoch_left -= travel;
                    remaining -= travel;
                }
                if m.epoch_left <= 1e-12 {
                    m.heading = Point::unit(self.rng.range_f64(0.0, std::f64::consts::TAU));
                    m.epoch_left = sample_exp(self.mean_epoch, &mut self.rng);
                }
            }
            *out = m.pos;
        }
    }

    fn speed(&self) -> f64 {
        self.speed
    }
}

/// Distance along ray `p + t·d` (unit `d`) to the circle of radius `r`
/// about `c`, assuming `p` is inside. Returns 0 on numerical failure.
fn ray_circle_exit(p: Point, d: Point, c: Point, r: f64) -> f64 {
    let o = p - c;
    let b = o.dot(d);
    let disc = b * b - (o.norm_sq() - r * r);
    if disc <= 0.0 {
        return 0.0;
    }
    (-b + disc.sqrt()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize, seed: u64) -> RandomDirection {
        let region = Disk::centered(40.0);
        let mut rng = SimRng::seed_from(seed);
        RandomDirection::deployed(region, n, 3.0, 10.0, &mut rng)
    }

    #[test]
    fn stays_in_region() {
        let mut m = setup(80, 1);
        let region = m.region();
        for _ in 0..300 {
            m.step(0.5);
            for &p in m.positions() {
                assert!(region.contains(p), "escaped to {p:?}");
            }
        }
    }

    #[test]
    fn displacement_bounded() {
        let mut m = setup(40, 2);
        let before = m.positions().to_vec();
        m.step(2.0);
        for (a, b) in before.iter().zip(m.positions()) {
            assert!(a.dist(*b) <= 3.0 * 2.0 + 1e-6);
        }
    }

    #[test]
    fn reflection_preserves_motion() {
        // A mover aimed at the wall should bounce, not stick.
        let region = Disk::centered(5.0);
        let rng = SimRng::seed_from(3);
        let mut m = RandomDirection::new(
            region,
            vec![Point::new(4.9, 0.0)],
            1.0,
            1e9, // effectively never re-draw heading
            rng,
        );
        // Force heading outward.
        m.movers[0].heading = Point::new(1.0, 0.0);
        m.step(2.0);
        let p = m.positions()[0];
        assert!(region.contains(p));
        // Bounced back: x must now be well below the rim.
        assert!(p.x < 4.9, "p = {p:?}");
    }

    #[test]
    fn stationary_distribution_roughly_uniform() {
        // After long mixing, the fraction of nodes within half the radius
        // should be near 1/4 (uniform), unlike RWP's center bias.
        let mut m = setup(600, 4);
        for _ in 0..400 {
            m.step(1.0);
        }
        let region = m.region();
        let inner = m
            .positions()
            .iter()
            .filter(|p| p.dist(region.center) <= region.radius / 2.0)
            .count();
        let frac = inner as f64 / 600.0;
        assert!((frac - 0.25).abs() < 0.08, "frac = {frac}");
    }

    #[test]
    fn walk_epoch_spreads_diffusively() {
        // At WALK_EPOCH the long-run mean squared displacement is
        // 2μ²τ·t (the constant's derivation), far below the ballistic
        // (μt)²: about 2μ²τ(t − τ) after t seconds from a fresh epoch.
        let region = Disk::centered(500.0);
        let rng = SimRng::seed_from(3);
        let n = 400;
        let (speed, tau, t) = (1.0, crate::WALK_EPOCH, 100.0);
        let mut m = RandomDirection::new(region, vec![Point::ORIGIN; n], speed, tau, rng);
        for _ in 0..100 {
            m.step(t / 100.0);
        }
        let msd = m.positions().iter().map(|p| p.norm_sq()).sum::<f64>() / n as f64;
        let expected = 2.0 * speed * speed * tau * (t - tau);
        assert!(
            (msd / expected - 1.0).abs() < 0.2,
            "msd {msd} vs {expected}"
        );
    }

    #[test]
    fn long_step_spans_every_epoch() {
        // One mover draws in the same order however the time is cut, so
        // one 600 s step (15 000 epochs at WALK_EPOCH) must land where
        // 600 one-second steps do.
        let region = Disk::centered(1e6);
        let walker = || {
            RandomDirection::new(
                region,
                vec![Point::ORIGIN],
                1.0,
                crate::WALK_EPOCH,
                SimRng::seed_from(5),
            )
        };
        let mut one = walker();
        one.step(600.0);
        let mut many = walker();
        for _ in 0..600 {
            many.step(1.0);
        }
        let gap = one.positions()[0].dist(many.positions()[0]);
        assert!(gap < 1e-6, "one long step ends {gap} m from 600 short ones");
    }

    #[test]
    fn ray_exit_geometry() {
        let t = ray_circle_exit(Point::ORIGIN, Point::new(1.0, 0.0), Point::ORIGIN, 2.0);
        assert!((t - 2.0).abs() < 1e-12);
        let t2 = ray_circle_exit(
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::ORIGIN,
            2.0,
        );
        assert!((t2 - 1.0).abs() < 1e-12);
    }
}
