//! # chlm
//!
//! Clustered-Hierarchy Location Management (CHLM) for mobile ad hoc
//! networks: a full Rust reproduction of
//! *Sucec & Marsic, "Location Management Handoff Overhead in Hierarchically
//! Organized Mobile Ad hoc Networks", IPPS 2002*.
//!
//! This facade crate re-exports the whole workspace. See the individual
//! subsystem crates for details:
//!
//! * [`geom`] — geometry, deployment regions, spatial indexes
//! * [`graph`] — unit-disk graphs, traversal, link dynamics
//! * [`mobility`] — random waypoint and friends
//! * [`cluster`] — ALCA clustering and the multi-level hierarchy
//! * [`lm`] — CHLM location management and the GLS baseline
//! * [`routing`] — strict hierarchical routing
//! * [`proto`] — packet-level protocol execution (validation of the accounting)
//! * [`sim`] — the discrete-time simulation engine
//! * [`analysis`] — statistics, Θ-class fitting and the paper's formulas
//!
//! ## Quickstart
//!
//! ```
//! use chlm::prelude::*;
//!
//! let cfg = SimConfig::builder(256).seed(7).duration(5.0).build();
//! let report = run_simulation(&cfg);
//! assert!(report.phi_total() >= 0.0);
//! ```

pub use chlm_analysis as analysis;
pub use chlm_cluster as cluster;
pub use chlm_geom as geom;
pub use chlm_graph as graph;
pub use chlm_lm as lm;
pub use chlm_mobility as mobility;
pub use chlm_proto as proto;
pub use chlm_routing as routing;
pub use chlm_sim as sim;

/// Everything a downstream user typically needs.
pub mod prelude {
    pub use chlm_analysis::regression::{best_fit, class_is_competitive, ModelClass};
    pub use chlm_analysis::stats::Summary;
    pub use chlm_cluster::{Hierarchy, HierarchyOptions};
    pub use chlm_graph::unit_disk::build_unit_disk;
    pub use chlm_graph::Graph;
    pub use chlm_lm::server::{LmAssignment, SelectionRule};
    pub use chlm_mobility::MobilityModel;
    pub use chlm_sim::runner::seed_range;
    pub use chlm_sim::{
        run_cells, run_grid, run_simulation, HopMetric, MobilityKind, SimConfig, SimReport,
        Simulation,
    };
}
