//! `cargo xtask audit-determinism` — run every standard configuration
//! twice with the same seed and compare canonical digests of the full
//! [`chlm_sim::SimReport`] and of the final hierarchy. Any nondeterminism — a
//! hasher-ordered iteration, wall-clock leakage, an uninitialized buffer —
//! flips at least one bit somewhere and fails the comparison.

use chlm_cluster::hierarchy_digest;
use chlm_sim::{MobilityKind, SimConfig, Simulation};

/// Digest pair from one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    pub report: u64,
    pub hierarchy: u64,
}

/// Outcome of the twice-run comparison for one configuration.
#[derive(Debug)]
pub struct DetResult {
    pub name: String,
    pub first: RunDigest,
    pub second: RunDigest,
}

impl DetResult {
    pub fn ok(&self) -> bool {
        self.first == self.second
    }
}

/// The standard verification matrix: one config per mobility family, all
/// at `|V| = n` (the acceptance bar is n ≥ 256).
pub fn standard_configs(n: usize) -> Vec<(String, SimConfig)> {
    let mobilities = [
        ("random-walk", MobilityKind::walk()),
        ("waypoint", MobilityKind::Waypoint),
        (
            "rpgm",
            MobilityKind::Rpgm {
                groups: 16,
                group_radius: 4.0,
                jitter_radius: 0.8,
                jitter_speed: 0.5,
            },
        ),
    ];
    mobilities
        .into_iter()
        .map(|(name, m)| {
            let cfg = SimConfig::builder(n)
                .mobility(m)
                .duration(2.0)
                .warmup(0.5)
                .seed(0xD5EE)
                .build();
            (name.to_string(), cfg)
        })
        .collect()
}

/// One full run; digests taken over the final report *and* the final
/// hierarchy (the report alone could miss structural divergence that
/// happens to cancel in the aggregates).
pub fn run_once(cfg: &SimConfig) -> RunDigest {
    let mut sim = Simulation::new(cfg.clone());
    for _ in 0..cfg.tick_count() {
        sim.step();
    }
    let hierarchy = hierarchy_digest(sim.hierarchy());
    let report = sim.finish().digest();
    RunDigest { report, hierarchy }
}

/// Run each named config twice and compare.
pub fn verify(configs: &[(String, SimConfig)]) -> Vec<DetResult> {
    configs
        .iter()
        .map(|(name, cfg)| DetResult {
            name: name.clone(),
            first: run_once(cfg),
            second: run_once(cfg),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_deterministic() {
        let cfg = SimConfig::builder(40)
            .duration(0.5)
            .warmup(0.1)
            .seed(3)
            .build();
        let a = run_once(&cfg);
        let b = run_once(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            let cfg = SimConfig::builder(40)
                .duration(0.5)
                .warmup(0.1)
                .seed(seed)
                .build();
            run_once(&cfg)
        };
        assert_ne!(mk(1), mk(2));
    }
}
