//! Every moving model is a continuous-time process sampled at the tick, so
//! its law must not depend on the tick length Δt. Each model runs at the
//! simulator's default tick Δt = R_TX / (10 μ) and at Δt/8, over `NODES`
//! nodes at the simulator's density and speed and `SEEDS` seeds, and two
//! statistics must agree between the two runs:
//!
//! - the mean squared displacement over the first second, within
//!   `MSD_TOLERANCE`;
//! - a `BINS`-bin radial density histogram after `HIST_AT` seconds, within
//!   `HIST_L1` in L1 distance.
//!
//! The same seed gives both runs the same deployment, but not the same
//! trajectories: a model's draws interleave differently across nodes at a
//! different tick length. The bounds are therefore sampling bounds. The
//! MSD of `NODES · SEEDS` near-independent displacements has a relative
//! standard error of ~1.1 % (squared displacements spread about like an
//! exponential), so ±10 % is about six standard errors of the difference.
//! Two independent histograms of that many samples sit ~0.04 apart in L1
//! with a spread of ~0.01, so 0.08 is four spreads above the mean. A walk
//! that redraws its heading once per tick has an MSD of μ²Δt per second
//! and fails the MSD check with a ratio of about 8.
//!
//! RPGM is checked twice over: once on absolute displacement (dominated by
//! the group centers' waypoint motion) and once on each member's
//! displacement relative to its group's mean, which isolates the jitter.

use chlm_geom::{Disk, Point, SimRng};
use chlm_mobility::{MobilityModel, RandomDirection, RandomWaypoint, Rpgm, WALK_EPOCH};

const NODES: usize = 2048;
const SEEDS: [u64; 4] = [3, 17, 29, 41];
const DENSITY: f64 = 1.25;
const SPEED: f64 = 2.0;
const BINS: usize = 10;
const MSD_AT: f64 = 1.0;
const HIST_AT: f64 = 8.0;
const MSD_TOLERANCE: f64 = 0.10;
const HIST_L1: f64 = 0.08;

/// The simulator's default tick at mean degree 9: `R_TX / (10 μ)`.
fn default_tick() -> f64 {
    chlm_geom::rtx_for_degree(9.0, DENSITY) / (10.0 * SPEED)
}

fn region() -> Disk {
    Disk::centered(chlm_geom::disk_radius_for_density(NODES, DENSITY))
}

#[derive(Clone, Copy, Debug)]
enum Model {
    Waypoint,
    Direction(f64),
    Rpgm,
}

fn build(model: Model, seed: u64) -> Box<dyn MobilityModel> {
    let mut rng = SimRng::seed_from(seed);
    match model {
        Model::Waypoint => Box::new(RandomWaypoint::deployed(
            region(),
            NODES,
            SPEED,
            0.0,
            &mut rng,
        )),
        Model::Direction(mean_epoch) => Box::new(RandomDirection::deployed(
            region(),
            NODES,
            SPEED,
            mean_epoch,
            &mut rng,
        )),
        // E16's configuration: groups of 32.
        Model::Rpgm => Box::new(Rpgm::deployed(
            region(),
            NODES,
            NODES / 32,
            SPEED,
            4.0,
            0.8,
            0.5,
            &mut rng,
        )),
    }
}

/// Advance `m` by exactly `seconds` in ticks of `dt` (the last one short).
fn advance(m: &mut dyn MobilityModel, seconds: f64, dt: f64) {
    let mut left = seconds;
    while left > 1e-12 {
        let h = dt.min(left);
        m.step(h);
        left -= h;
    }
}

/// What one run of a model measures, pooled over `SEEDS`.
struct Law {
    /// Mean squared displacement over `MSD_AT` seconds.
    msd: f64,
    /// The same, relative to the group's mean displacement (RPGM only).
    msd_in_group: Option<f64>,
    /// Fraction of nodes per equal-area ring after `HIST_AT` seconds.
    hist: [f64; BINS],
}

fn measure(model: Model, dt: f64) -> Law {
    let r = region().radius;
    let (mut sq, mut sq_in_group, mut hist) = (0.0, 0.0, [0.0; BINS]);
    for seed in SEEDS {
        let mut m = build(model, seed);
        let start = m.positions().to_vec();
        advance(m.as_mut(), MSD_AT, dt);
        let disp: Vec<Point> = m
            .positions()
            .iter()
            .zip(&start)
            .map(|(b, a)| *b - *a)
            .collect();
        sq += disp.iter().map(|d| d.norm_sq()).sum::<f64>();
        if let Model::Rpgm = model {
            // Members are dealt to groups round-robin: node i is in group
            // i % groups.
            let groups = NODES / 32;
            let mut mean = vec![(Point::ORIGIN, 0usize); groups];
            for (i, d) in disp.iter().enumerate() {
                mean[i % groups].0 += *d;
                mean[i % groups].1 += 1;
            }
            sq_in_group += disp
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let (sum, count) = mean[i % groups];
                    (*d - sum / count as f64).norm_sq()
                })
                .sum::<f64>();
        }
        advance(m.as_mut(), HIST_AT - MSD_AT, dt);
        for p in m.positions() {
            let bin = ((p.norm_sq() / (r * r)) * BINS as f64) as usize;
            hist[bin.min(BINS - 1)] += 1.0;
        }
    }
    let samples = (NODES * SEEDS.len()) as f64;
    Law {
        msd: sq / samples,
        msd_in_group: matches!(model, Model::Rpgm).then_some(sq_in_group / samples),
        hist: hist.map(|h| h / samples),
    }
}

fn assert_law_invariant(model: Model) {
    let dt = default_tick();
    let coarse = measure(model, dt);
    let fine = measure(model, dt / 8.0);
    let ratio = coarse.msd / fine.msd;
    assert!(
        (ratio - 1.0).abs() <= MSD_TOLERANCE,
        "{model:?}: MSD over {MSD_AT} s is {:.4} at dt = {dt:.4} and {:.4} at dt/8 (ratio {ratio:.3})",
        coarse.msd,
        fine.msd
    );
    if let (Some(c), Some(f)) = (coarse.msd_in_group, fine.msd_in_group) {
        let ratio = c / f;
        assert!(
            (ratio - 1.0).abs() <= MSD_TOLERANCE,
            "{model:?}: in-group MSD over {MSD_AT} s is {c:.5} at dt and {f:.5} at dt/8 (ratio {ratio:.3})"
        );
    }
    let l1: f64 = coarse
        .hist
        .iter()
        .zip(&fine.hist)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(
        l1 <= HIST_L1,
        "{model:?}: radial histograms after {HIST_AT} s differ by L1 {l1:.4} between dt and dt/8 \
         ({:?} vs {:?})",
        coarse.hist,
        fine.hist
    );
}

#[test]
fn waypoint_law_is_tick_invariant() {
    assert_law_invariant(Model::Waypoint);
}

#[test]
fn direction_law_is_tick_invariant() {
    assert_law_invariant(Model::Direction(20.0));
}

#[test]
fn walk_law_is_tick_invariant() {
    assert_law_invariant(Model::Direction(WALK_EPOCH));
}

#[test]
fn rpgm_law_is_tick_invariant() {
    assert_law_invariant(Model::Rpgm);
}
