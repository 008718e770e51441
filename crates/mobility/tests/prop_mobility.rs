//! Property-based tests for mobility models: containment, speed bounds and
//! determinism across all models, plus the level-0 link-rate sanity link to
//! the graph crate.

use chlm_geom::{Disk, Region, SimRng};
use chlm_graph::dynamics::{LinkDiff, LinkEventRate};
use chlm_graph::unit_disk::build_unit_disk;
use chlm_mobility::{
    MobilityModel, RandomDirection, RandomWaypoint, Rpgm, StaticModel, WALK_EPOCH,
};
use proptest::prelude::*;

fn check_model<M: MobilityModel>(mut m: M, region: Disk, speed: f64, steps: usize, dt: f64) {
    for _ in 0..steps {
        let before = m.positions().to_vec();
        m.step(dt);
        for (a, b) in before.iter().zip(m.positions()) {
            assert!(region.contains(*b), "escaped region");
            // RPGM members can move slightly faster than the nominal center
            // speed because of jitter; allow 3x slack uniformly.
            assert!(a.dist(*b) <= 3.0 * speed * dt + 1e-6, "moved too far");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn waypoint_contained_and_bounded(seed in 0u64..500, n in 1usize..60, speed in 0.5f64..5.0) {
        let region = Disk::centered(25.0);
        let mut rng = SimRng::seed_from(seed);
        let m = RandomWaypoint::deployed(region, n, speed, 0.0, &mut rng);
        check_model(m, region, speed, 20, 0.7);
    }

    #[test]
    fn direction_contained_and_bounded(
        seed in 0u64..500,
        n in 1usize..60,
        speed in 0.5f64..5.0,
        walk in any::<bool>(),
    ) {
        let mean_epoch = if walk { WALK_EPOCH } else { 5.0 };
        let region = Disk::centered(25.0);
        let mut rng = SimRng::seed_from(seed);
        let m = RandomDirection::deployed(region, n, speed, mean_epoch, &mut rng);
        check_model(m, region, speed, 20, 0.7);
    }

    #[test]
    fn rpgm_contained(seed in 0u64..500, n in 4usize..60, speed in 0.5f64..3.0) {
        let region = Disk::centered(25.0);
        let mut rng = SimRng::seed_from(seed);
        let groups = (n / 4).max(1);
        let m = Rpgm::deployed(region, n, groups, speed, 2.0, 0.5, 0.5, &mut rng);
        check_model(m, region, speed + 0.5, 20, 0.7);
    }

    #[test]
    fn determinism_across_models(seed in 0u64..200) {
        let region = Disk::centered(20.0);
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let mut m = RandomWaypoint::deployed(region, 25, 2.0, 0.0, &mut rng);
            for _ in 0..15 { m.step(0.4); }
            m.positions().to_vec()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn static_model_zero_link_events(seed in 0u64..200) {
        let region = Disk::centered(15.0);
        let mut rng = SimRng::seed_from(seed);
        let pts = chlm_geom::region::deploy_uniform(&region, 40, &mut rng);
        let mut m = StaticModel::new(pts);
        let g0 = build_unit_disk(m.positions(), 3.0);
        let mut rate = LinkEventRate::default();
        for _ in 0..5 {
            m.step(1.0);
            let g1 = build_unit_disk(m.positions(), 3.0);
            rate.record(&LinkDiff::between(&g0, &g1), 40, 1.0);
        }
        prop_assert_eq!(rate.per_node_per_second(), 0.0);
    }

    #[test]
    fn faster_nodes_generate_more_link_events(seed in 0u64..50) {
        // f_0 grows with μ (eq. 4: f_0 = Θ(μ/R_TX)); check monotonicity
        // between a slow and a fast run on the same deployment.
        let region = Disk::centered(20.0);
        let measure = |speed: f64| {
            let mut rng = SimRng::seed_from(seed);
            let mut m = RandomWaypoint::deployed(region, 80, speed, 0.0, &mut rng);
            let mut prev = build_unit_disk(m.positions(), 4.0);
            let mut rate = LinkEventRate::default();
            for _ in 0..30 {
                m.step(0.5);
                let cur = build_unit_disk(m.positions(), 4.0);
                rate.record(&LinkDiff::between(&prev, &cur), 80, 0.5);
                prev = cur;
            }
            rate.per_node_per_second()
        };
        let slow = measure(0.5);
        let fast = measure(4.0);
        prop_assert!(fast > slow, "fast {} !> slow {}", fast, slow);
    }
}
