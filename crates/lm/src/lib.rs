//! # chlm-lm
//!
//! Location management for clustered hierarchical MANETs — the paper's
//! primary contribution (§3.2, *CHLM*), plus the Grid Location Service
//! (GLS, §3.1) baseline it adapts.
//!
//! ## CHLM in one paragraph
//!
//! Every node `v` keeps its location discoverable by registering with one
//! **location server per hierarchy level**: for each level `k ≥ 2`, a
//! hashing function walks down `v`'s level-k cluster — pick a member
//! level-(k-1) cluster, then a member of that, … — until it lands on a
//! level-0 node, the *level-k LM server of v*. Level 1 needs no servers
//! because complete topology is known inside a level-1 cluster. With
//! `L = Θ(log |V|)` levels each node serves `Θ(log |V|)` peers on average,
//! which is the paper's key quantity: a node handing off must move
//! `Θ(log |V|)` LM entries.
//!
//! The paper deliberately leaves the hashing function open ("the specific
//! implementation is not crucial", §3.2) but requires (a) unambiguous
//! selection and (b) equitable server load — and warns that GLS's mod rule
//! (eq. 5) violates (b) here. We use highest-random-weight (rendezvous)
//! hashing ([`hash::hrw_select`]) and keep the mod rule
//! ([`hash::mod_successor_select`]) for the E14 ablation that demonstrates
//! the inequity.
//!
//! ## Modules
//!
//! * [`hash`] — server-selection hash functions and load-skew metrics,
//! * [`server`] — the full server-assignment table and its diff,
//! * [`handoff`] — packet-transmission accounting for handoff (the φ_k and
//!   γ_k of §§4–5),
//! * [`query`] — location query resolution: the [`query::Route`] a lookup
//!   takes, which the simulator's query plane prices,
//! * [`churn`] — node birth/death handoff pricing (the paper's excluded
//!   case, evaluated as an extension in E21),
//! * [`update`] — distance-triggered registration refresh (the Θ(log n)
//!   steady-state cost of \[17\], experiment E19),
//! * [`gls`] — the GLS baseline on a grid hierarchy (Fig. 2).

//!
//! ## Example
//!
//! ```
//! use chlm_cluster::{Hierarchy, HierarchyOptions};
//! use chlm_geom::{Disk, SimRng};
//! use chlm_graph::unit_disk::build_unit_disk;
//! use chlm_lm::server::{LmAssignment, SelectionRule};
//! use chlm_lm::query::resolve_route;
//!
//! let region = Disk::centered(10.0);
//! let mut rng = SimRng::seed_from(5);
//! let points = chlm_geom::region::deploy_uniform(&region, 120, &mut rng);
//! let graph = build_unit_disk(&points, 2.2);
//! let ids = rng.permutation(120);
//! let h = Hierarchy::build(&ids, &graph, HierarchyOptions::default());
//!
//! // One LM server per node per level ≥ 2, placed by weighted rendezvous
//! // hashing inside the node's cluster.
//! let assignment = LmAssignment::compute(&h, SelectionRule::Hrw);
//! // Route a location query through the lowest common cluster: the level
//! // it resolves at, and the server to ask there (none at levels ≤ 1).
//! let _route = resolve_route(&h, &assignment, 0, 119);
//! ```

pub mod audit;
pub mod churn;
pub mod gls;
pub mod handoff;
pub mod hash;
pub mod query;
pub mod server;
pub mod update;

pub use audit::{audit_assignment, LmViolation};
pub use handoff::{HandoffLedger, LevelCost};
pub use server::LmAssignment;
