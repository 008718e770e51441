//! Tier-1 pin: the topology maintainer's warm ticks run without the
//! allocator.
//!
//! `UnitDiskMaintainer` keeps every buffer it writes — the rank columns,
//! the candidate CSR, the rebuild's edge list, the per-part scan and flip
//! buffers of the pooled paths, the graph's arena — and its pool keeps its
//! worker parked between ticks. Once the buffers have grown to a world's
//! steady size, a patch tick and a rebuild tick make no allocator call at
//! all, at pool width 1 and at width 2 (n = 4096 and 16384).
//!
//! One `#[test]` in its own binary. The counter is process-wide, because
//! the pooled scans run on the pool's worker too; nothing else runs beside
//! the test.

use chlm_geom::{Disk, Point, SimRng};
use chlm_graph::UnitDiskMaintainer;
use chlm_par::WorkerPool;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// A world at density 1 and degree 9: `n` uniform points on a disk, each
/// moving `R_TX / 10` a tick on a fixed heading that turns back whenever
/// it leaves the disk, so the density stays put.
struct World {
    pts: Vec<Point>,
    heading: Vec<Point>,
    radius: f64,
    rtx: f64,
}

impl World {
    fn new(n: usize) -> Self {
        let mut rng = SimRng::seed_from(17);
        let radius = chlm_geom::disk_radius_for_density(n, 1.0);
        let pts = chlm_geom::region::deploy_uniform(&Disk::centered(radius), n, &mut rng);
        let rtx = chlm_geom::rtx_for_degree(9.0, 1.0);
        let heading = (0..n)
            .map(|_| {
                let ang = rng.range_f64(0.0, std::f64::consts::TAU);
                Point::new(rtx / 10.0 * ang.cos(), rtx / 10.0 * ang.sin())
            })
            .collect();
        World {
            pts,
            heading,
            radius,
            rtx,
        }
    }

    fn step(&mut self) {
        for (p, h) in self.pts.iter_mut().zip(&mut self.heading) {
            p.x += h.x;
            p.y += h.y;
            if p.x.hypot(p.y) > self.radius {
                *h = Point::new(-h.x, -h.y);
            }
        }
    }
}

/// Allocator calls of `ticks` further ticks of a maintainer warmed for
/// 60, split into (patch ticks, rebuild ticks) and their calls.
fn measure(n: usize, threads: usize, ticks: usize) -> [(u64, u64); 2] {
    let mut world = World::new(n);
    let mut m =
        UnitDiskMaintainer::new(&world.pts, world.rtx).with_workers(WorkerPool::new(threads));
    for _ in 0..60 {
        world.step();
        m.advance(&world.pts);
    }
    let mut seen = [(0u64, 0u64); 2];
    for _ in 0..ticks {
        world.step();
        let before = counting_alloc::process_calls();
        let rebuilt = m.advance(&world.pts);
        let calls = counting_alloc::process_calls() - before;
        let slot = &mut seen[usize::from(rebuilt)];
        slot.0 += 1;
        slot.1 += calls;
    }
    seen
}

#[test]
fn warm_topology_ticks_do_not_allocate() {
    // The schedule fuzz permutes a collected copy of each fan-out's parts,
    // so it allocates by design; this pins the production path.
    std::env::remove_var(chlm_par::SHUFFLE_ENV);
    for (n, threads) in [(4096, 1), (4096, 2), (16384, 2)] {
        let [patch, rebuild] = measure(n, threads, 30);
        assert!(patch.0 > 0 && rebuild.0 > 0, "ticks {patch:?} {rebuild:?}");
        assert_eq!(
            patch.1, 0,
            "n = {n}, width {threads}: {} calls over {} patch ticks",
            patch.1, patch.0
        );
        assert_eq!(
            rebuild.1, 0,
            "n = {n}, width {threads}: {} calls over {} rebuild ticks",
            rebuild.1, rebuild.0
        );
    }
}
