//! 2-D points/vectors with the small amount of linear algebra the simulator
//! needs. `Point` doubles as a displacement vector; the distinction is not
//! worth two types here.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or displacement vector) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Unit vector at angle `theta` radians from the positive x-axis.
    #[inline]
    pub fn unit(theta: f64) -> Self {
        Point::new(theta.cos(), theta.sin())
    }

    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        (self - other).norm_sq()
    }

    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Normalized copy; returns `None` for (near-)zero vectors rather than
    /// producing NaNs.
    #[inline]
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Componentwise finite check (rejects NaN and infinities).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, o: Point) -> Point {
        Point::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, o: Point) {
        *self = *self + o;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, o: Point) -> Point {
        Point::new(self.x - o.x, self.y - o.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, o: Point) {
        *self = *self - o;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, k: f64) -> Point {
        Point::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, k: f64) -> Point {
        Point::new(self.x / k, self.y / k)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_norm() {
        let a = Point::new(3.0, 4.0);
        assert!(close(a.norm(), 5.0));
        assert!(close(a.dot(Point::new(1.0, 0.0)), 3.0));
    }

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(close(a.dist(b), 5.0));
        assert!(close(a.dist_sq(b), 25.0));
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let n = Point::new(0.0, 2.0).normalized().unwrap();
        assert!(close(n.norm(), 1.0));
        assert!(close(n.y, 1.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(2.0, 3.0));
    }

    #[test]
    fn unit_and_angle_roundtrip() {
        for &theta in &[0.0, 0.5, 1.0, -2.0, 3.0] {
            let u = Point::unit(theta);
            assert!(close(u.norm(), 1.0));
            // atan2 wraps into (-pi, pi], compare via vectors
            let back = Point::unit(u.y.atan2(u.x));
            assert!(close(back.x, u.x) && close(back.y, u.y));
        }
    }
}
