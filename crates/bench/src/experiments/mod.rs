//! The experiment registry: one [`Experiment`] record per reproduced table
//! or figure, each run by `chlm-exp <id> [--smoke]` (`src/bin/chlm-exp.rs`).
//!
//! A record's code is the function named after it, in the module of its
//! family. DESIGN.md §3 has one row per record (same id, paper anchor and
//! name) and EXPERIMENTS.md's Reproducing block runs every id;
//! `tests/run_every_binary.rs` holds both documents to this table and runs
//! every record at a tiny scale.

mod ablations;
mod levels;
mod packets;
mod scaling;
mod structure;

use crate::{lm_compare, query_crossover};

/// One experiment: what it reproduces and the code that prints it.
#[derive(Debug)]
pub struct Experiment {
    /// `E1` … `E27`, the row of DESIGN.md §3's index. `E25` is retired
    /// (its HierRouting tables are E24's second half) and never reused.
    pub id: &'static str,
    /// The function that runs it, and the `results/<name>.txt` it writes.
    pub name: &'static str,
    /// The paper anchor, exactly as DESIGN.md §3's "Paper anchor" cell.
    pub paper_ref: &'static str,
    /// One line on what it measures, as the registry listing shows it.
    pub title: &'static str,
    /// Whether the record has a bounded CI spec that `--smoke` selects (the
    /// records whose full grid starts above CI scale).
    pub smoke: bool,
    /// Print the experiment's report to stdout; the argument is `--smoke`.
    pub run: fn(bool),
}

/// `id module::name "paper_ref" "title" [smoke];` — one record per line,
/// calling `module::name(smoke)` where the line ends in `smoke` and
/// `module::name()` elsewhere.
macro_rules! registry {
    ($($id:ident $module:ident::$name:ident $paper_ref:literal $title:literal $($smoke:ident)?;)*) => {
        /// Every experiment, in id order.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            id: stringify!($id),
            name: stringify!($name),
            paper_ref: $paper_ref,
            title: $title,
            smoke: registry!(@smoke $($smoke)?),
            run: registry!(@run $module::$name $($smoke)?),
        }),*];
    };
    (@smoke) => { false };
    (@smoke smoke) => { true };
    (@run $module:ident::$name:ident) => { |_| $module::$name() };
    (@run $module:ident::$name:ident smoke) => { $module::$name };
}

registry! {
    E1  structure::exp_fig1_hierarchy       "Fig. 1"  "LCA clustered hierarchy structure";
    E2  structure::exp_fig2_gls             "Fig. 2"  "GLS grid hierarchy: server geometry and load";
    E3  levels::exp_fig3_states             "Fig. 3"  "ALCA state occupancy vs birth-death prediction";
    E4  structure::exp_eq3_hopcount         "eq. (3)"  "intra-cluster hop count vs sqrt aggregation";
    E5  scaling::exp_eq4_linkrate           "eq. (4)"  "level-0 link-change frequency f0 vs n";
    E6  levels::exp_eq9_fk                  "eqs. (7)–(9)"  "level-k migration frequency decay";
    E7  scaling::exp_phi_migration          "§4, eq. (6)"  "migration handoff overhead phi";
    E8  levels::exp_eq14_gk                 "eq. (14), §5.3.1"  "per-cluster-link state-change frequency g'_k";
    E9  scaling::exp_gamma_reorg            "§5, eqs. (10)–(24)"  "reorganization handoff overhead gamma";
    E10 levels::exp_events_breakdown        "§5.2 events (i)–(vii)"  "event classes (i)-(vii) frequency breakdown";
    E11 scaling::exp_q1_future_work         "eq. (22), §5.3.2"  "q1 quantification (the paper's future work)";
    E12 scaling::exp_total_overhead         "§6 conclusion"  "total LM handoff overhead phi + gamma";
    E13 ablations::exp_chlm_vs_gls          "§3.1 vs §3.2"  "CHLM vs GLS LM maintenance overhead";
    E14 structure::exp_hash_ablation        "§3.2 ablation"  "server-selection hash ablation: HRW vs eq. (5)";
    E15 ablations::exp_cluster_ablation     "§2.2 ablation"  "clustering ablation: LCA vs max-min d-hop";
    E16 ablations::exp_mobility_ablation    "§1.2 ablation"  "mobility ablation at n = CHLM_MOBILITY_N";
    E17 structure::exp_routing_tables       "§2.1 / [7]"  "hierarchical vs flat routing state, and stretch";
    E18 packets::exp_proto_validation       "methodology"  "packet-level validation of the handoff accounting";
    E19 scaling::exp_registration           "§6 / [17]"  "location-registration overhead vs n";
    E20 structure::exp_maintenance          "§6 / [16]"  "cluster-maintenance beaconing overhead vs n";
    E21 structure::exp_churn                "§1's excluded case (extension)"  "single node birth/death handoff cost";
    E22 structure::exp_dalca                "§2.2 / methodology"  "distributed ALCA: convergence + message locality";
    E23 packets::exp_lossy_links            "robustness extension"  "handoff transmissions under per-hop loss";
    E24 lm_compare::exp_lm_compare          "§3.1 vs §3.2 vs flat baseline, §2.1 stretch (extension)"  "LM scheme comparison (chlm vs gls vs home agent) under two hop metrics" smoke;
    E26 scaling::exp_scale16k               "§6 at scale (extension)"  "polylog extrapolation to n = CHLM_SCALE_N";
    E27 query_crossover::exp_query_crossover "§6 query-vs-update crossover (extension)"  "update-vs-query crossover (chlm vs gls vs home agent)" smoke;
}
