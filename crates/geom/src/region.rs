//! Deployment regions.
//!
//! The paper assumes a circular deployment area (§1.2); [`Disk`] is the
//! primary region. [`Rect`] is provided for the GLS grid hierarchy (Fig. 2),
//! which overlays a square area divided recursively into squares.

use crate::point::Point;
use crate::rng::SimRng;
use rand::Rng;

/// A closed region of the plane that nodes are deployed in and confined to.
pub trait Region {
    /// True if `p` lies in the region (boundary inclusive).
    fn contains(&self, p: Point) -> bool;

    /// Area of the region.
    fn area(&self) -> f64;

    /// Sample a point uniformly at random from the region.
    fn sample(&self, rng: &mut SimRng) -> Point;

    /// Project `p` to the nearest point of the region (identity if inside).
    /// Used to keep numerically-drifting waypoint walkers inside the area.
    fn clamp(&self, p: Point) -> Point;

    /// An axis-aligned bounding box `(min, max)` enclosing the region.
    fn bounding_box(&self) -> (Point, Point);
}

/// Circular deployment area centred at `center` with radius `radius`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disk {
    pub center: Point,
    pub radius: f64,
}

impl Disk {
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(radius > 0.0, "disk radius must be positive");
        Disk { center, radius }
    }

    /// Disk centred at the origin.
    pub fn centered(radius: f64) -> Self {
        Disk::new(Point::ORIGIN, radius)
    }
}

impl Region for Disk {
    fn contains(&self, p: Point) -> bool {
        // Small epsilon absorbs round-off from `clamp` landing on the rim.
        p.dist_sq(self.center) <= self.radius * self.radius * (1.0 + 1e-12)
    }

    fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    fn sample(&self, rng: &mut SimRng) -> Point {
        // Uniform over the disk: radius must be sqrt-distributed.
        let r = self.radius * rng.inner().gen::<f64>().sqrt();
        let theta = rng.inner().gen_range(0.0..std::f64::consts::TAU);
        self.center + Point::unit(theta) * r
    }

    fn clamp(&self, p: Point) -> Point {
        let d = p - self.center;
        let n = d.norm();
        if n <= self.radius {
            p
        } else {
            self.center + d * (self.radius / n)
        }
    }

    fn bounding_box(&self) -> (Point, Point) {
        let r = Point::new(self.radius, self.radius);
        (self.center - r, self.center + r)
    }
}

/// Axis-aligned rectangle `[min.x, max.x] x [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}

impl Rect {
    pub fn new(min: Point, max: Point) -> Self {
        assert!(min.x < max.x && min.y < max.y, "degenerate rectangle");
        Rect { min, max }
    }

    /// Square with corner at the origin and the given side length.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    pub fn center(&self) -> Point {
        self.min.lerp(self.max, 0.5)
    }
}

impl Region for Rect {
    fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    fn area(&self) -> f64 {
        self.width() * self.height()
    }

    fn sample(&self, rng: &mut SimRng) -> Point {
        let x = rng.inner().gen_range(self.min.x..=self.max.x);
        let y = rng.inner().gen_range(self.min.y..=self.max.y);
        Point::new(x, y)
    }

    fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    fn bounding_box(&self) -> (Point, Point) {
        (self.min, self.max)
    }
}

/// Deploy `n` points uniformly at random in `region`.
pub fn deploy_uniform<R: Region>(region: &R, n: usize, rng: &mut SimRng) -> Vec<Point> {
    (0..n).map(|_| region.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_contains_and_area() {
        let d = Disk::centered(2.0);
        assert!(d.contains(Point::new(1.9, 0.0)));
        assert!(!d.contains(Point::new(2.1, 0.0)));
        assert!((d.area() - std::f64::consts::PI * 4.0).abs() < 1e-12);
    }

    #[test]
    fn disk_clamp_projects_to_rim() {
        let d = Disk::centered(1.0);
        let p = d.clamp(Point::new(10.0, 0.0));
        assert!((p.x - 1.0).abs() < 1e-12 && p.y.abs() < 1e-12);
        assert!(d.contains(p));
        // inside points unchanged
        let q = Point::new(0.3, -0.4);
        assert_eq!(d.clamp(q), q);
    }

    #[test]
    fn disk_sampling_uniformity() {
        // Chi-square-ish sanity check: inner disk of half radius should get
        // about a quarter of the samples.
        let d = Disk::centered(4.0);
        let mut rng = SimRng::seed_from(42);
        let n = 20_000;
        let mut inner = 0usize;
        for _ in 0..n {
            let p = d.sample(&mut rng);
            assert!(d.contains(p));
            if p.dist(d.center) <= 2.0 {
                inner += 1;
            }
        }
        let frac = inner as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn rect_sample_contained() {
        let r = Rect::new(Point::new(-1.0, 2.0), Point::new(4.0, 3.0));
        let mut rng = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert!(r.contains(r.sample(&mut rng)));
        }
    }

    #[test]
    fn deploy_count_and_containment() {
        let d = Disk::centered(5.0);
        let mut rng = SimRng::seed_from(1);
        let pts = deploy_uniform(&d, 257, &mut rng);
        assert_eq!(pts.len(), 257);
        assert!(pts.iter().all(|&p| d.contains(p)));
    }

    #[test]
    #[should_panic]
    fn degenerate_rect_panics() {
        Rect::new(Point::new(1.0, 1.0), Point::new(1.0, 5.0));
    }
}
