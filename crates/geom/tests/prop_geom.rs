//! Property-based tests for the geometry substrate.

use chlm_geom::{Disk, Point, Rect, Region, SimRng};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn point_add_sub_roundtrip(a in arb_point(), b in arb_point()) {
        let c = a + b - b;
        prop_assert!((c - a).norm() < 1e-9);
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
    }

    #[test]
    fn distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-12);
    }

    #[test]
    fn disk_clamp_is_idempotent_and_contained(p in arb_point(), r in 0.1f64..100.0) {
        let disk = Disk::centered(r);
        let c = disk.clamp(p);
        prop_assert!(disk.contains(c));
        let c2 = disk.clamp(c);
        prop_assert!((c2 - c).norm() < 1e-9);
    }

    #[test]
    fn disk_samples_contained(seed in 0u64..1000, r in 0.5f64..50.0) {
        let disk = Disk::centered(r);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(disk.contains(disk.sample(&mut rng)));
        }
    }

    #[test]
    fn rect_clamp_contained(p in arb_point()) {
        let r = Rect::new(Point::new(-3.0, -1.0), Point::new(2.0, 4.0));
        prop_assert!(r.contains(r.clamp(p)));
    }

    #[test]
    fn rng_fork_streams_reproducible(seed in 0u64..10_000, label in 0u64..10_000) {
        let root = SimRng::seed_from(seed);
        let mut x = root.fork(label);
        let mut y = root.fork(label);
        for _ in 0..8 {
            prop_assert_eq!(x.unit().to_bits(), y.unit().to_bits());
        }
    }

    #[test]
    fn permutation_property(seed in 0u64..10_000, n in 0usize..300) {
        let mut rng = SimRng::seed_from(seed);
        let mut p = rng.permutation(n);
        p.sort_unstable();
        prop_assert_eq!(p, (0..n as u64).collect::<Vec<_>>());
    }
}
