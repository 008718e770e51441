//! Simulation configuration.

/// Which mobility process drives the nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityKind {
    /// Random waypoint, zero pause (the paper's model, §1.2).
    Waypoint,
    /// Random direction with exponential heading epochs of mean
    /// `mean_epoch` seconds, reflecting off the rim. At
    /// [`chlm_mobility::WALK_EPOCH`] it is the random walk
    /// ([`MobilityKind::walk`], the CLI's and the experiments' "walk").
    Direction { mean_epoch: f64 },
    /// Reference-point group mobility: group centers move as random
    /// waypoint at the config's speed; each member jitters about its
    /// reference point as random direction at [`chlm_mobility::WALK_EPOCH`]
    /// within `jitter_radius` at `jitter_speed` (no jitter when either is 0).
    Rpgm {
        groups: usize,
        group_radius: f64,
        jitter_radius: f64,
        jitter_speed: f64,
    },
    /// No movement (structural experiments).
    Static,
}

impl MobilityKind {
    /// The random walk: random direction at a mean heading epoch of
    /// [`chlm_mobility::WALK_EPOCH`] seconds, the long-run diffusion of a
    /// walk that redraws its heading once per default tick, but one
    /// process at every tick length.
    pub const fn walk() -> Self {
        MobilityKind::Direction {
            mean_epoch: chlm_mobility::WALK_EPOCH,
        }
    }
}

/// How hop distances are priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HopMetric {
    /// Exact BFS on the level-0 graph: `Graph::hops`, one search per
    /// distinct root per topology snapshot, shared by every bank and
    /// packet network. Near every node is a root each tick, so a tick
    /// costs Θ(n) whole-graph BFS, 64 at a time; E27 prices it at
    /// n = 4096.
    Bfs,
    /// `euclidean distance / R_TX × calibration`, with the calibration
    /// ratio measured against BFS once at startup. Linear-time; used for
    /// the largest sweeps (validated in `tests/`).
    EuclideanCalibrated,
    /// Euclidean with a fixed calibration factor.
    Euclidean(f64),
    /// Strict hierarchical forwarding over `chlm_routing::NextHopTable`:
    /// pairs are priced by walking the actual per-node routing tables, so
    /// hierarchical stretch is measured instead of assumed away. Rebuilds
    /// the tables each tick, in place, in `O(n · L · α · deg)` — the order
    /// of their size, with no whole-graph search — so it is a few times
    /// the cost of the Euclidean proxy per tick, not a different size
    /// class.
    HierRouting,
}

/// Lossy-link model for the packet backend: each transmission is lost
/// independently with probability `prob` and retried up to `max_retries`
/// times (simple ARQ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpec {
    /// Per-transmission loss probability in `[0, 1)`.
    pub prob: f64,
    /// Retransmission attempts before a hop gives up.
    pub max_retries: u32,
    /// Base seed for the loss stream (combined with the tick index, so
    /// every tick draws from an independent deterministic stream).
    pub seed: u64,
}

/// Which location-management scheme fills the engine's handoff-accounting
/// slot.
///
/// Every scheme observes the *same* mobility/topology/hierarchy trace: the
/// pipeline stages never consult this value, so switching schemes changes
/// only which location servers are maintained and what their upkeep costs —
/// never which world is simulated (`tests/scheme_trace.rs` pins that).
/// Costs are priced by the active [`HopMetric`] on the analytic backend and
/// executed as packets on the packet backend, for every scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LmScheme {
    /// The paper's clustered-hierarchy scheme: per-level servers selected
    /// by walking the cluster hierarchy (`chlm_lm::server`). The default.
    #[default]
    Chlm,
    /// Per-band GLS-style servers on the recursive grid (`chlm_lm::gls`),
    /// selected by HRW hashing; distance-triggered updates plus
    /// server-churn transfers.
    Gls,
    /// Static home-agent baseline: one HRW-chosen rendezvous node per
    /// mobile, fixed for the whole run; every level-1 cluster change pays
    /// a subject to home-agent update.
    HomeAgent,
}

/// Which engine executes the handoff workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Backend {
    /// Price handoffs with the hop pricer (the paper's analytic model).
    #[default]
    Analytic,
    /// Execute handoffs as packets through `chlm_proto`'s packet network
    /// on the tick's real topology.
    Packet {
        /// Per-hop forwarding delay (seconds).
        hop_delay: f64,
        /// Optional loss + ARQ model; `None` = lossless links.
        loss: Option<LossSpec>,
    },
}

impl Backend {
    /// Default per-hop delay used when a packet backend is requested
    /// without one.
    pub const DEFAULT_HOP_DELAY: f64 = 0.01;

    /// Lossless packet backend with the default hop delay.
    pub fn packet() -> Self {
        Backend::Packet {
            hop_delay: Backend::DEFAULT_HOP_DELAY,
            loss: None,
        }
    }
}

/// Nodes per unit area of every deployment, held fixed across sizes
/// (§1.2): the region grows with `n`, the radio range does not.
pub const DENSITY: f64 = 1.25;

/// Full experiment configuration. Construct with [`SimConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Node count `|V|`.
    pub n: usize,
    /// Target mean degree; sets `R_TX` via the Poisson approximation.
    pub target_degree: f64,
    /// Node speed μ (m/s).
    pub speed: f64,
    /// Simulated duration in seconds (after warmup).
    pub duration: f64,
    /// Mobility warmup discarded before measurement starts (seconds).
    pub warmup: f64,
    /// Tick length; `None` derives `R_TX / (10 · μ)`.
    pub dt: Option<f64>,
    pub seed: u64,
    pub mobility: MobilityKind,
    pub hop_metric: HopMetric,
    /// Which location-management scheme the handoff accounting runs; see
    /// [`LmScheme`]. The trace itself is scheme-independent.
    pub lm_scheme: LmScheme,
    /// Cap on hierarchy levels (`usize::MAX` = until convergence).
    pub max_levels: usize,
    /// Stop adding hierarchy levels when a level shrinks the node count by
    /// less than this factor. Kills the degenerate near-unit-arity tail
    /// that disconnected fringe components otherwise produce under
    /// mobility (the paper assumes a connected graph with α_k = Θ(1) > 1).
    pub min_reduction: f64,
    /// Location-query arrival rate in lookups per node per second (the
    /// call-to-mobility knob, E27). Each tick, `⌊(t+1)·e⌋ − ⌊t·e⌋` lookups
    /// with `e = query_rate · n · dt` arrive at deterministic
    /// per-(seed, tick) requester/target pairs and are resolved through the
    /// active scheme's lookup path on the active backend. `0` (the default)
    /// disables the query plane entirely — reports and digests are
    /// bit-identical to builds that predate it.
    pub query_rate: f64,
    /// Run the tick-level invariant auditor alongside the simulation
    /// (structural hierarchy checks, AddressBook/LmAssignment consistency,
    /// counter conservation). Costs roughly one extra assignment
    /// recomputation per tick; see `chlm_sim::audit`.
    pub audit: bool,
    /// Which engine executes the handoff workload (analytic pricing vs
    /// packet-level execution); see [`Backend`].
    pub backend: Backend,
    /// Intra-tick worker threads (batched BFS rows, topology
    /// maintenance, packet shards). Defaults to the workspace thread
    /// budget (`CHLM_THREADS`, else available parallelism); `1` runs the
    /// exact serial code paths. Reports are bit-identical for every value
    /// — the thread-invariance suite enforces that.
    pub threads: usize,
}

impl SimConfig {
    /// Builder with the standard experiment defaults for `n` nodes.
    pub fn builder(n: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig {
                n,
                target_degree: 9.0,
                speed: 2.0,
                duration: 30.0,
                warmup: 20.0,
                dt: None,
                seed: 1,
                mobility: MobilityKind::Waypoint,
                hop_metric: HopMetric::EuclideanCalibrated,
                lm_scheme: LmScheme::Chlm,
                max_levels: usize::MAX,
                min_reduction: 1.25,
                query_rate: 0.0,
                audit: false,
                backend: Backend::Analytic,
                threads: chlm_par::thread_budget(),
            },
        }
    }

    /// Transmission radius implied by [`DENSITY`] and the target degree.
    pub fn rtx(&self) -> f64 {
        chlm_geom::rtx_for_degree(self.target_degree, DENSITY)
    }

    /// Deployment-disk radius implied by `n` at [`DENSITY`].
    pub fn region_radius(&self) -> f64 {
        chlm_geom::disk_radius_for_density(self.n, DENSITY)
    }

    /// Effective tick length.
    pub fn tick(&self) -> f64 {
        match self.dt {
            Some(dt) => dt,
            None => {
                if self.speed > 0.0 {
                    self.rtx() / (10.0 * self.speed)
                } else {
                    // Static runs: one tick per simulated second.
                    1.0
                }
            }
        }
    }

    /// Number of measured ticks.
    pub fn tick_count(&self) -> usize {
        (self.duration / self.tick()).ceil().max(1.0) as usize
    }

    fn validate(&self) {
        // Every float can arrive from argv, where `inf` and `NaN` parse:
        // an infinite duration or warmup saturates the tick loops to
        // `usize::MAX` iterations, an infinite speed zeroes the tick.
        let finite = |value: f64, field: &str| {
            assert!(value.is_finite(), "{field} must be finite, got {value}");
        };
        assert!(self.n >= 1, "need at least one node");
        finite(self.target_degree, "target_degree");
        assert!(self.target_degree > 0.0);
        finite(self.speed, "speed");
        assert!(self.speed >= 0.0);
        finite(self.duration, "duration");
        assert!(self.duration > 0.0);
        finite(self.warmup, "warmup");
        assert!(self.warmup >= 0.0);
        if let Some(dt) = self.dt {
            finite(dt, "dt");
            assert!(dt > 0.0);
        }
        finite(self.min_reduction, "min_reduction");
        // Reject here every value a model constructor would assert on
        // later, inside `Simulation::new`.
        match self.mobility {
            MobilityKind::Direction { mean_epoch } => {
                finite(mean_epoch, "mean_epoch");
                assert!(mean_epoch > 0.0, "mean_epoch must be positive");
            }
            MobilityKind::Rpgm {
                groups,
                group_radius,
                jitter_radius,
                jitter_speed,
            } => {
                assert!(groups >= 1 && groups <= self.n);
                finite(group_radius, "group_radius");
                assert!(group_radius > 0.0, "group_radius must be positive");
                finite(jitter_radius, "jitter_radius");
                assert!(jitter_radius >= 0.0, "jitter_radius must be non-negative");
                finite(jitter_speed, "jitter_speed");
                assert!(jitter_speed >= 0.0, "jitter_speed must be non-negative");
            }
            MobilityKind::Waypoint | MobilityKind::Static => {}
        }
        assert!(
            self.speed > 0.0 || matches!(self.mobility, MobilityKind::Static),
            "moving models need positive speed"
        );
        assert!(self.threads >= 1, "need at least one worker thread");
        assert!(
            self.query_rate >= 0.0 && self.query_rate.is_finite(),
            "query_rate must be finite and non-negative"
        );
        if let Backend::Packet { hop_delay, loss } = self.backend {
            assert!(hop_delay > 0.0 && hop_delay.is_finite());
            if let Some(l) = loss {
                assert!((0.0..1.0).contains(&l.prob), "loss prob must be in [0, 1)");
            }
        }
    }
}

/// Fluent builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    pub fn target_degree(mut self, d: f64) -> Self {
        self.cfg.target_degree = d;
        self
    }
    pub fn speed(mut self, s: f64) -> Self {
        self.cfg.speed = s;
        self
    }
    pub fn duration(mut self, secs: f64) -> Self {
        self.cfg.duration = secs;
        self
    }
    pub fn warmup(mut self, secs: f64) -> Self {
        self.cfg.warmup = secs;
        self
    }
    pub fn dt(mut self, dt: f64) -> Self {
        self.cfg.dt = Some(dt);
        self
    }
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }
    pub fn mobility(mut self, m: MobilityKind) -> Self {
        self.cfg.mobility = m;
        if matches!(m, MobilityKind::Static) {
            self.cfg.speed = 0.0;
        }
        self
    }
    pub fn hop_metric(mut self, h: HopMetric) -> Self {
        self.cfg.hop_metric = h;
        self
    }
    /// See [`SimConfig::lm_scheme`].
    pub fn lm_scheme(mut self, s: LmScheme) -> Self {
        self.cfg.lm_scheme = s;
        self
    }
    pub fn max_levels(mut self, l: usize) -> Self {
        self.cfg.max_levels = l;
        self
    }
    /// See [`SimConfig::min_reduction`]; set to 1.0 for the faithful
    /// unbounded LCA recursion.
    pub fn min_reduction(mut self, r: f64) -> Self {
        assert!(r >= 1.0);
        self.cfg.min_reduction = r;
        self
    }
    /// See [`SimConfig::query_rate`].
    pub fn query_rate(mut self, q: f64) -> Self {
        self.cfg.query_rate = q;
        self
    }
    /// See [`SimConfig::audit`].
    pub fn audit(mut self, yes: bool) -> Self {
        self.cfg.audit = yes;
        self
    }
    /// See [`SimConfig::backend`].
    pub fn backend(mut self, b: Backend) -> Self {
        self.cfg.backend = b;
        self
    }
    /// See [`SimConfig::threads`].
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.threads = t;
        self
    }

    /// Finalize; panics on invalid combinations.
    pub fn build(self) -> SimConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cfg = SimConfig::builder(256).build();
        assert_eq!(cfg.n, 256);
        assert!(cfg.rtx() > 0.0);
        assert!(cfg.region_radius() > cfg.rtx());
        assert!(cfg.tick() > 0.0);
        assert!(cfg.tick_count() >= 1);
        // Default tick: node moves R_TX/10 per tick.
        let per_tick = cfg.speed * cfg.tick();
        assert!((per_tick - cfg.rtx() / 10.0).abs() < 1e-12);
    }

    #[test]
    fn density_preserved_across_sizes() {
        let a = SimConfig::builder(256).build();
        let b = SimConfig::builder(1024).build();
        // Region area scales with n; R_TX fixed.
        assert!((b.region_radius() / a.region_radius() - 2.0).abs() < 1e-9);
        assert_eq!(a.rtx(), b.rtx());
    }

    #[test]
    fn lm_scheme_defaults_to_chlm_and_is_settable() {
        assert_eq!(SimConfig::builder(16).build().lm_scheme, LmScheme::Chlm);
        let cfg = SimConfig::builder(16).lm_scheme(LmScheme::Gls).build();
        assert_eq!(cfg.lm_scheme, LmScheme::Gls);
        let cfg = SimConfig::builder(16)
            .lm_scheme(LmScheme::HomeAgent)
            .build();
        assert_eq!(cfg.lm_scheme, LmScheme::HomeAgent);
    }

    #[test]
    fn static_mobility_forces_zero_speed() {
        let cfg = SimConfig::builder(10)
            .mobility(MobilityKind::Static)
            .build();
        assert_eq!(cfg.speed, 0.0);
        assert_eq!(cfg.tick(), 1.0);
    }

    #[test]
    fn query_rate_defaults_off_and_is_settable() {
        assert_eq!(SimConfig::builder(16).build().query_rate, 0.0);
        let cfg = SimConfig::builder(16).query_rate(2.5).build();
        assert_eq!(cfg.query_rate, 2.5);
    }

    #[test]
    #[should_panic]
    fn negative_query_rate_rejected() {
        SimConfig::builder(16).query_rate(-0.1).build();
    }

    #[test]
    #[should_panic(expected = "target_degree must be finite")]
    fn non_finite_target_degree_rejected() {
        SimConfig::builder(16).target_degree(f64::NAN).build();
    }

    #[test]
    #[should_panic(expected = "speed must be finite")]
    fn non_finite_speed_rejected() {
        SimConfig::builder(16).speed(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "duration must be finite")]
    fn non_finite_duration_rejected() {
        SimConfig::builder(16).duration(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "warmup must be finite")]
    fn non_finite_warmup_rejected() {
        SimConfig::builder(16).warmup(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "dt must be finite")]
    fn non_finite_dt_rejected() {
        SimConfig::builder(16).dt(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "min_reduction must be finite")]
    fn non_finite_min_reduction_rejected() {
        SimConfig::builder(16).min_reduction(f64::INFINITY).build();
    }

    fn rpgm(group_radius: f64, jitter_radius: f64, jitter_speed: f64) -> SimConfig {
        SimConfig::builder(16)
            .mobility(MobilityKind::Rpgm {
                groups: 2,
                group_radius,
                jitter_radius,
                jitter_speed,
            })
            .build()
    }

    #[test]
    #[should_panic(expected = "group_radius must be finite")]
    fn non_finite_rpgm_group_radius_rejected() {
        rpgm(f64::INFINITY, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "jitter_radius must be finite")]
    fn non_finite_rpgm_jitter_radius_rejected() {
        rpgm(2.0, f64::NAN, 0.5);
    }

    #[test]
    #[should_panic(expected = "jitter_speed must be finite")]
    fn non_finite_rpgm_jitter_speed_rejected() {
        rpgm(2.0, 0.5, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "group_radius must be positive")]
    fn zero_rpgm_group_radius_rejected() {
        rpgm(0.0, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "jitter_radius must be non-negative")]
    fn negative_rpgm_jitter_radius_rejected() {
        rpgm(2.0, -0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "jitter_speed must be non-negative")]
    fn negative_rpgm_jitter_speed_rejected() {
        rpgm(2.0, 0.5, -0.5);
    }

    #[test]
    fn rpgm_without_jitter_accepted() {
        rpgm(2.0, 0.0, 0.5);
        rpgm(2.0, 0.5, 0.0);
    }

    fn direction(mean_epoch: f64) -> SimConfig {
        SimConfig::builder(16)
            .mobility(MobilityKind::Direction { mean_epoch })
            .build()
    }

    #[test]
    #[should_panic(expected = "mean_epoch must be finite")]
    fn non_finite_direction_epoch_rejected() {
        direction(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "mean_epoch must be positive")]
    fn zero_direction_epoch_rejected() {
        direction(0.0);
    }

    #[test]
    #[should_panic]
    fn zero_duration_rejected() {
        let mut b = SimConfig::builder(10);
        b = b.duration(0.0);
        b.build();
    }

    #[test]
    #[should_panic]
    fn rpgm_groups_bounds_checked() {
        SimConfig::builder(4)
            .mobility(MobilityKind::Rpgm {
                groups: 9,
                group_radius: 1.0,
                jitter_radius: 0.1,
                jitter_speed: 0.1,
            })
            .build();
    }
}
