//! The four workloads, built through the `chlm_sim` facade only.
//!
//! Nothing here (or anywhere else the end-to-end binary reaches) may name
//! a stage, observer or cost-model type: a refactor of those internals
//! must not be able to stop the end-to-end benchmark compiling. The
//! per-layer replica, which does need them, lives in the trace binary.

use chlm_sim::{
    build_engine, Backend, Engine, HopMetric, LmScheme, MultiplexSim, SimConfig, SimReport,
    VariantSpec,
};

/// Seed used when none is given. Seed 23 is held out: never used while
/// the benchmark was tuned, and a claimed gain must also hold there.
pub const DEFAULT_SEED: u64 = 11;

/// The world seed of repetition `repetition` of a run with `--seed seed`.
/// Each repetition simulates its own world, so that a run's medians do
/// not hang on how one world's heavy ticks happened to fall (README:
/// noise protocol); the mapping is fixed, so a seed still names its inputs.
pub fn world_seed(seed: u64, repetition: usize) -> u64 {
    seed.wrapping_mul(100).wrapping_add(repetition as u64)
}

/// Measured ticks of a `--smoke` repetition, after [`SMOKE_WARM_TICKS`].
pub const SMOKE_TICKS: usize = 8;
pub const SMOKE_WARM_TICKS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One CHLM bank, Euclidean pricing, analytic, via `build_engine`.
    World,
    /// 3 schemes × {Euclidean, HierRouting}, analytic, update path only.
    GridE24,
    /// 3 schemes × {analytic, lossless packet}, BFS pricing, lookups on.
    GridE27,
}

/// One named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    /// Node count (full size, `--smoke` size).
    n: (usize, usize),
    pub threads: usize,
    /// Unmeasured ticks after construction, then measured ticks, of one
    /// full-size repetition. The warm-up is as long as the start-up
    /// transient was seen to last: a 65k world allocates 30-50 MB a tick
    /// for up to 14 ticks (Verlet lists, the LM cache and the observers'
    /// double buffers growing to their steady capacities) before it
    /// settles at 20 MB, and a window that straddled that edge made
    /// `alloc_kb_per_tick` swing by 18% from seed to seed. The grids
    /// show no transient.
    warm_ticks: usize,
    ticks: usize,
    kind: Kind,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "world-65k",
        why: "paper-scale world, one CHLM bank: the four stages do ~95% of the tick (assignment ~2/3), pricing almost none",
        n: (65536, 512),
        threads: 1,
        warm_ticks: 16,
        ticks: 14,
        kind: Kind::World,
    },
    Workload {
        name: "world-65k-t2",
        why: "same world through the chlm-par pooled paths (threads=2): the only workload where intra-tick parallelism can pay",
        n: (65536, 512),
        threads: 2,
        warm_ticks: 16,
        ticks: 14,
        kind: Kind::World,
    },
    Workload {
        name: "grid-e24",
        why: "E24/E25 sweep shape, 3 schemes x {Euclidean, HierRouting} on one world: cost models and scheme accounting dominate, world <5%",
        n: (2048, 256),
        threads: 1,
        warm_ticks: 3,
        ticks: 14,
        kind: Kind::GridE24,
    },
    Workload {
        name: "grid-e27",
        why: "E27 shape, 3 schemes x {analytic, packet} with BFS pricing and lookups at rate 2: packet execution and the query plane dominate",
        n: (1024, 128),
        threads: 1,
        warm_ticks: 3,
        ticks: 14,
        kind: Kind::GridE27,
    },
];

/// The system under test, stepped in a closed loop: the world-scale
/// workloads are one engine, the grids one multiplexer.
pub enum Sim {
    Single(Box<dyn Engine>),
    Multi(Box<MultiplexSim>),
}

impl Sim {
    pub fn step(&mut self) {
        match self {
            Sim::Single(e) => e.step(),
            Sim::Multi(m) => m.step(),
        }
    }

    /// One report per bank, in bank order.
    pub fn finish(self) -> Vec<SimReport> {
        match self {
            Sim::Single(e) => vec![e.finish_boxed()],
            Sim::Multi(m) => m.finish(),
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// [`Workload::by_name`] for a name from the command line.
    pub fn named(name: &str) -> Result<Workload, String> {
        Workload::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }

    /// The same inputs at `threads` = 1, if this workload uses more: the
    /// reference of check (b).
    pub fn serial_twin(&self) -> Option<Workload> {
        let twin = |w: &Workload| w.threads == 1 && w.kind == self.kind && w.n == self.n;
        WORKLOADS.into_iter().find(|w| self.threads > 1 && twin(w))
    }

    /// Arguments of the child process (of either binary) that runs
    /// repetition `repetition` of a run with `--seed seed`.
    pub fn child_args(&self, seed: u64, repetition: usize, smoke: bool) -> Vec<String> {
        let world = world_seed(seed, repetition).to_string();
        let mut args = vec!["child", "--workload", self.name, "--seed", &world];
        if smoke {
            args.push("--smoke");
        }
        args.into_iter().map(String::from).collect()
    }

    pub fn n(&self, smoke: bool) -> usize {
        if smoke {
            self.n.1
        } else {
            self.n.0
        }
    }

    pub fn warm_ticks(&self, smoke: bool) -> usize {
        if smoke {
            SMOKE_WARM_TICKS
        } else {
            self.warm_ticks
        }
    }

    pub fn ticks(&self, smoke: bool) -> usize {
        if smoke {
            SMOKE_TICKS
        } else {
            self.ticks
        }
    }

    pub fn query_rate(&self) -> f64 {
        match self.kind {
            Kind::GridE27 => 2.0,
            Kind::World | Kind::GridE24 => 0.0,
        }
    }

    /// Whether the analytic and packet banks of one scheme must agree
    /// (check (c)); true of the E27 shape only.
    pub fn has_backend_pairs(&self) -> bool {
        self.kind == Kind::GridE27
    }

    /// The world config. Everything not set is the builder default
    /// (waypoint, degree 9, density 1.25, speed 2, HRW); `world_seed` is
    /// the only source of randomness.
    pub fn config(&self, world_seed: u64, smoke: bool) -> SimConfig {
        let mut b = SimConfig::builder(self.n(smoke))
            .warmup(2.0)
            .seed(world_seed)
            .threads(self.threads)
            .query_rate(self.query_rate());
        if self.kind == Kind::GridE27 {
            b = b.hop_metric(HopMetric::Bfs);
            if smoke {
                // Dense enough to stay connected at n=128, as in
                // crates/sim/tests/query_parity.rs, so the smoke can
                // demand full analytic-vs-packet equality.
                b = b.target_degree(12.0);
            }
        }
        b.build()
    }

    /// The observer banks, in report order. Labels name the per-layer
    /// spans (`sim.scheme.<label>.handoff`), so they are part of the
    /// metric names in `BENCHMARK.json`.
    pub fn variants(&self) -> Vec<VariantSpec> {
        let schemes = [
            ("chlm", LmScheme::Chlm),
            ("gls", LmScheme::Gls),
            ("home", LmScheme::HomeAgent),
        ];
        let mut v = Vec::new();
        match self.kind {
            Kind::World => v.push(VariantSpec::new(
                "chlm-eucl",
                LmScheme::Chlm,
                HopMetric::EuclideanCalibrated,
                Backend::Analytic,
            )),
            Kind::GridE24 => {
                for (metric_name, metric) in [
                    ("eucl", HopMetric::EuclideanCalibrated),
                    ("hier", HopMetric::HierRouting),
                ] {
                    for (scheme_name, scheme) in schemes {
                        v.push(VariantSpec::new(
                            format!("{scheme_name}-{metric_name}"),
                            scheme,
                            metric,
                            Backend::Analytic,
                        ));
                    }
                }
            }
            // Exactly `exp_query_crossover`'s six banks.
            Kind::GridE27 => {
                for (scheme_name, scheme) in schemes {
                    for (backend_name, backend) in [
                        ("analytic", Backend::Analytic),
                        ("packet", Backend::packet()),
                    ] {
                        v.push(VariantSpec::new(
                            format!("{scheme_name}-{backend_name}"),
                            scheme,
                            HopMetric::Bfs,
                            backend,
                        ));
                    }
                }
            }
        }
        v
    }

    /// Construct the system under test (deploy, mobility warm-up, initial
    /// hierarchy and assignment, calibration) — what `setup_s` times.
    pub fn build(&self, cfg: &SimConfig) -> Sim {
        match self.kind {
            Kind::World => Sim::Single(build_engine(&self.variants()[0].apply(cfg))),
            Kind::GridE24 | Kind::GridE27 => {
                Sim::Multi(Box::new(MultiplexSim::new(cfg, &self.variants())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn no_workload_needs_more_than_two_threads() {
        assert!(WORKLOADS.iter().all(|w| w.threads <= 2));
    }

    #[test]
    fn only_the_pooled_world_has_a_serial_twin() {
        let twins: Vec<(&str, Option<&str>)> = WORKLOADS
            .iter()
            .map(|w| (w.name, w.serial_twin().map(|t| t.name)))
            .collect();
        assert_eq!(
            twins,
            [
                ("world-65k", None),
                ("world-65k-t2", Some("world-65k")),
                ("grid-e24", None),
                ("grid-e27", None)
            ]
        );
    }

    #[test]
    fn child_arguments_carry_the_world_seed_of_the_repetition() {
        let w = WORKLOADS[3];
        assert_eq!(
            w.child_args(11, 2, true),
            [
                "child",
                "--workload",
                "grid-e27",
                "--seed",
                "1102",
                "--smoke"
            ]
        );
        assert_eq!(w.child_args(11, 0, false).len(), 5);
        assert!(Workload::named("nope").is_err());
    }

    #[test]
    fn bank_counts_and_labels_match_the_issue() {
        let labels = |name: &str| -> Vec<String> {
            Workload::by_name(name)
                .map(|w| w.variants().into_iter().map(|v| v.label).collect())
                .unwrap_or_default()
        };
        assert_eq!(labels("world-65k"), ["chlm-eucl"]);
        assert_eq!(labels("world-65k"), labels("world-65k-t2"));
        assert_eq!(
            labels("grid-e24"),
            [
                "chlm-eucl",
                "gls-eucl",
                "home-eucl",
                "chlm-hier",
                "gls-hier",
                "home-hier"
            ]
        );
        assert_eq!(
            labels("grid-e27"),
            [
                "chlm-analytic",
                "chlm-packet",
                "gls-analytic",
                "gls-packet",
                "home-analytic",
                "home-packet"
            ]
        );
    }
}
