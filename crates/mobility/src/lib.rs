//! # chlm-mobility
//!
//! Mobility models for the CHLM MANET simulator.
//!
//! The paper's analysis (§1.2) assumes the **random waypoint** model of
//! Broch et al. \[4\] with zero pause time and node speed `μ` m/s:
//! each node repeatedly picks a uniformly random destination in the
//! deployment region and travels to it in a straight line at speed `μ`.
//! [`RandomWaypoint`] implements exactly this. It deploys uniformly, which
//! is *not* the RWP stationary distribution (that one is denser in the
//! middle of the region): only a warm-up — `deployed`'s `warmup_seconds`
//! or the caller's own stepping — approaches stationarity, and early
//! measurements are biased until it has lasted a few region crossings.
//!
//! For the mobility ablation (experiment E16) the crate also provides
//! [`RandomDirection`] (exponential heading epochs with boundary
//! reflection; at a mean epoch of [`WALK_EPOCH`] it is the simulator's
//! random walk), [`Rpgm`] (reference-point group mobility, the
//! group-mobility pattern motivating HSR \[11\]), and [`StaticModel`].
//!
//! All models implement [`MobilityModel`]: the simulator owns positions and
//! asks the model to advance them by `dt` seconds per tick. Every model is a
//! continuous-time process sampled at the tick: it draws from its RNG only
//! at waypoint arrivals or heading-epoch ends, never once per tick, so its
//! law does not depend on `dt` (`tests/law_invariance.rs`).
//!
//! ## Example
//!
//! ```
//! use chlm_geom::{Disk, Region, SimRng};
//! use chlm_mobility::{MobilityModel, RandomWaypoint};
//!
//! let region = Disk::centered(20.0);
//! let mut rng = SimRng::seed_from(1);
//! let mut model = RandomWaypoint::deployed(region, 50, 2.0, 0.0, &mut rng);
//! for _ in 0..10 {
//!     model.step(0.5); // μ·dt = 1 m per tick
//! }
//! assert!(model.positions().iter().all(|&p| region.contains(p)));
//! ```

pub mod direction;
pub mod rpgm;
pub mod waypoint;

pub use direction::RandomDirection;
pub use rpgm::Rpgm;
pub use waypoint::RandomWaypoint;

use chlm_geom::Point;

/// Mean heading epoch (seconds) of the random walk: [`RandomDirection`]
/// at this epoch replaces a walk that redrew every node's heading once per
/// tick, whose diffusion constant (μ²Δt per second of mean squared
/// displacement) changed with the tick length Δt.
///
/// An exponential-epoch walk at speed μ has long-run mean squared
/// displacement 2μ²τ per second. Setting 2μ²τ = μ²Δt gives τ = Δt/2, and
/// the default tick `R_TX / (10 μ)` is 0.076–0.087 s at mean degree 9–12
/// (density 1.25), so τ = 0.04 s keeps the long-run diffusion of the walk
/// it replaces while making it one process at every tick length. RPGM's
/// member jitter uses the same epoch.
pub const WALK_EPOCH: f64 = 0.04;

/// A mobility process over `n` nodes confined to a region.
pub trait MobilityModel {
    /// Number of nodes.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current positions (length `len()`).
    fn positions(&self) -> &[Point];

    /// Advance the process by `dt` seconds.
    fn step(&mut self, dt: f64);

    /// Nominal node speed μ (m/s); 0 for static models.
    fn speed(&self) -> f64;
}

/// A node that never moves; useful for purely structural experiments
/// (hierarchy statistics, routing-table sizes).
#[derive(Debug, Clone)]
pub struct StaticModel {
    positions: Vec<Point>,
}

impl StaticModel {
    pub fn new(positions: Vec<Point>) -> Self {
        StaticModel { positions }
    }
}

impl MobilityModel for StaticModel {
    fn len(&self) -> usize {
        self.positions.len()
    }
    fn positions(&self) -> &[Point] {
        &self.positions
    }
    fn step(&mut self, _dt: f64) {}
    fn speed(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_model_never_moves() {
        let pts = vec![Point::new(1.0, 2.0), Point::new(-3.0, 0.5)];
        let mut m = StaticModel::new(pts.clone());
        m.step(100.0);
        assert_eq!(m.positions(), &pts[..]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.speed(), 0.0);
        assert!(!m.is_empty());
    }
}
