//! # chlm-sim
//!
//! The discrete-time simulation engine behind every CHLM experiment.
//!
//! Each tick the engine: advances mobility by `Δt`, patches the unit-disk
//! graph, repairs the LCA hierarchy around the link changes, reassigns LM
//! servers, diffs addresses / LM server assignments / level-k topologies
//! against the previous tick, and feeds the diffs to the measurement
//! counters:
//!
//! * the [`chlm_lm::HandoffLedger`] (packet transmissions → φ_k, γ_k),
//! * per-level migration counters (→ f_k, eq. 8),
//! * per-level cluster-link churn counters (→ g_k and g'_k, eq. 14),
//! * the reorganization-event taxonomy counts (events (i)–(vii), §5.2),
//! * the ALCA state tracker (Fig. 3, p_j, q₁).
//!
//! `Δt` is chosen so a node moves `R_TX / 10` per tick, small enough that
//! diff-based event extraction matches what an asynchronous protocol would
//! observe (see DESIGN.md). All runs are deterministic in `(config, seed)`.
//!
//! There is one tick loop, [`MultiplexSim::step`]: one world fanned out
//! to any number of (scheme × hop metric × backend) accounting banks.
//! [`Simulation`] is its one-bank case and [`run_simulation`] the
//! one-call entry point; [`runner::run_sweep`] fans whole runs out
//! across threads, and [`runner::run_grid`] / [`runner::run_cells`] lay
//! a (config × seed) experiment grid out over it.
//!
//! Every packet a bank books is priced by one [`cost::Pricing`] per hop
//! metric — exact BFS rows, the hierarchical routing walk, or the
//! Euclidean estimate of [`oracle`], which also prices the pairs the
//! exact rules cannot — or executed on the packet backend's network.

//!
//! ## Example
//!
//! ```
//! use chlm_sim::{run_simulation, SimConfig};
//!
//! let cfg = SimConfig::builder(64)
//!     .duration(1.0)
//!     .warmup(0.2)
//!     .seed(7)
//!     .build();
//! let report = run_simulation(&cfg);
//! assert_eq!(report.n, 64);
//! assert!(report.f0 > 0.0);
//! ```

pub mod audit;
pub mod config;
pub mod cost;
pub mod engine;
pub mod multiplex;
pub mod observe;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod scheme;
pub mod stage;
pub mod transport;

pub use audit::{AuditViolation, Auditor};
pub use config::{
    Backend, HopMetric, LmScheme, LossSpec, MobilityKind, SimConfig, SimConfigBuilder,
};
pub use cost::{CostInputs, CostModel, HopPricer};
pub use engine::{build_engine, Engine, Simulation};
pub use multiplex::{run_multiplexed, MultiplexSim, VariantSpec};
pub use observe::{HandoffAccounting, Observer, QueryAccounting};
pub use report::{LevelRates, QueryStats, SimReport, StateSummary};
pub use runner::{budget_split, run_cells, run_grid, run_sweep, SweepJob};
pub use scheme::{
    make_accounting, make_query_accounting, make_scheme, ChlmScheme, GlsScheme, HandoffObserver,
    HomeAgentScheme, LookupLeg, LookupWorld, MsgKind, QueryObserver, Scheme, SchemeLookup,
    SchemeMsg, SchemeWorkload,
};
pub use stage::TickCtx;
pub use transport::{PacketTotals, Transport};

/// Run one simulation to completion and return its report — the simplest
/// entry point (see the crate quickstart example). Respects
/// `cfg.backend`: analytic pricing or packet-level execution.
pub fn run_simulation(cfg: &SimConfig) -> SimReport {
    Simulation::new(cfg.clone()).run()
}
