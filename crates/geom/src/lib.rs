//! # chlm-geom
//!
//! Two-dimensional geometry substrate for the CHLM MANET simulator.
//!
//! The paper (Sucec & Marsic, IPPS 2002, §1.2) assumes nodes placed by a
//! two-dimensional uniform random distribution over a **circular** area whose
//! radius grows with node count so that density stays fixed, and a
//! **unit-disk** transmission model with radius `R_TX`. This crate provides:
//!
//! * [`Point`] / vector arithmetic,
//! * deployment [`Region`]s (disk, rectangle) with uniform sampling,
//! * a spatial index ([`SpatialGrid`]) for `O(1)`-amortized radius queries
//!   used by the unit-disk graph builder, whose cell sort doubles as a
//!   spatial numbering of the points ([`CellOrder`]),
//! * deterministic, forkable random-number management ([`SimRng`]).
//!
//! All floating point is `f64`; the simulator is deterministic for a fixed
//! seed and configuration.

//!
//! ## Example
//!
//! ```
//! use chlm_geom::{Disk, Region, SimRng, SpatialGrid, disk_radius_for_density, rtx_for_degree};
//!
//! // Fixed-density deployment over a disk, paper-style.
//! let density = 1.25;
//! let region = Disk::centered(disk_radius_for_density(200, density));
//! let rtx = rtx_for_degree(9.0, density);
//! let mut rng = SimRng::seed_from(42);
//! let points = chlm_geom::region::deploy_uniform(&region, 200, &mut rng);
//!
//! // Radius queries through the spatial grid.
//! let grid = SpatialGrid::build(&points, rtx);
//! let mut neighbors = Vec::new();
//! grid.for_each_within(&points, points[0], rtx, |i| neighbors.push(i));
//! assert!(neighbors.contains(&0)); // includes the query point itself
//! ```

pub mod grid;
pub mod point;
pub mod region;
pub mod rng;

pub use grid::{CellOrder, SpatialGrid};
pub use point::Point;
pub use region::{Disk, Rect, Region};
pub use rng::SimRng;

/// Density-preserving deployment: returns the disk radius needed so that `n`
/// nodes deployed uniformly over the disk have the given `density`
/// (nodes per unit area).
///
/// The paper's scalability assumption (§1.2) is exactly this: the deployment
/// area grows proportionally to `|V|` so the mean node density is invariant.
pub fn disk_radius_for_density(n: usize, density: f64) -> f64 {
    assert!(density > 0.0, "density must be positive");
    ((n as f64) / (density * std::f64::consts::PI)).sqrt()
}

/// Transmission radius giving an expected mean degree `target_degree` at the
/// given node `density`.
///
/// Under a Poisson approximation of a uniform deployment, the expected number
/// of neighbors within `r` of a node is `density * pi * r^2`, so
/// `r = sqrt(target_degree / (density * pi))`. Kleinrock & Silvester's
/// "magic number" result motivates `target_degree ≈ 6–8` for connectivity
/// with high probability at simulation scales.
pub fn rtx_for_degree(target_degree: f64, density: f64) -> f64 {
    assert!(target_degree > 0.0 && density > 0.0);
    (target_degree / (density * std::f64::consts::PI)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_radius_matches_density() {
        let n = 1000;
        let density = 2.5;
        let r = disk_radius_for_density(n, density);
        let area = std::f64::consts::PI * r * r;
        assert!((n as f64 / area - density).abs() < 1e-9);
    }

    #[test]
    fn rtx_gives_expected_degree() {
        let density = 1.0;
        let r = rtx_for_degree(6.0, density);
        let expected = density * std::f64::consts::PI * r * r;
        assert!((expected - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_density_panics() {
        disk_radius_for_density(10, 0.0);
    }
}
