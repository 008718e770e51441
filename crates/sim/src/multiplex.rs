//! The tick loop: one world fanned out to one or more accounting banks.
//!
//! The world pipeline (mobility → topology → hierarchy → LM assignment)
//! never consults the location-management scheme, the hop metric, or the
//! backend — `tests/scheme_trace.rs` pins byte-identical per-tick world
//! traces across all of them. So [`MultiplexSim`] runs the world stages
//! **once** per `(world config, seed)` and hands each completed `TickCtx`
//! to every requested [`VariantSpec`] as an independent observer bank,
//! each producing the exact [`SimReport`] a run of its config alone would
//! (`tests/multiplex_equivalence.rs` pins the bank independence, for every
//! scheme × backend × loss config). [`MultiplexSim::step`] is the only
//! tick loop in the crate: [`crate::Simulation`] is this type with one
//! bank, and an E24-style comparison sweep is this type with many.
//!
//! Sharing happens at four layers. The world runs once per tick and
//! accounts for itself: its stages, its own account
//! ([`crate::observe::WorldObservers`]: link rate, address churn, level
//! churn, taxonomy, ALCA, degree) and, when auditing, the checks that read
//! only the world, whose findings every bank records. The world half of
//! every report is built once, by [`MultiplexSim::finish`], and each bank
//! adds only its ledger and query stats. Scheme planes are shared per
//! scheme: each distinct [`LmScheme`] among the variants gets one
//! `SchemePlane` (`crate::scheme`), run once per tick
//! before any pricer scope opens, which advances the scheme's server table
//! (GLS's grid table, the home agents), emits its maintenance messages and
//! routes `ctx.query_arrivals`; every bank of that scheme carries and
//! books the plane's slices in place, so E27's six banks do the scheme
//! work of three. Pricing is shared per hop metric: banks whose
//! variants price with the same [`HopMetric`] observe inside one
//! `with_pricer` scope, so the hierarchical-routing table is built once
//! per tick instead of once per variant. And exact shortest-path
//! distances are shared by everything that holds the tick's graph: the
//! BFS pricer and every packet transport read
//! [`chlm_graph::Graph::hops`] off `ctx.graph`, so a root is searched at
//! most once per tick across banks, planes, packet shards and metric
//! groups alike. Since the planes run before any bank, the multiplexer
//! knows every pair the tick will read before the first is read, and
//! fills them in one call ([`chlm_graph::Graph::fill_hops`], rule 4 of
//! [`crate::transport`]), rooted at a vertex cover of the pairs of every
//! plane a BFS-reading bank books. All of this is sound because every
//! plane, pricer and distance is a pure function of the tick snapshot —
//! sharing, caches and table builds only affect speed, never values.
//!
//! The query plane multiplexes for free: lookup arrivals are part of the
//! shared world trace (`TickCtx::query_arrivals`, drawn from the world
//! config's per-(seed, tick) stream), so one world's arrivals fan out to
//! every scheme plane, whose routes every cost-model bank of the scheme
//! then prices with its own transport — E27 compares lookup costs across
//! schemes on byte-identical call traces this way.
//!
//! Determinism: banks are driven in variant order inside each group, and
//! groups in first-appearance order of their metric, every tick. Packet
//! variants replay the same world trace through their own
//! [`crate::transport::Transport`]s, whose per-(seed, tick, shard) loss
//! streams depend on nothing but the variant's own config, so lossy
//! reports multiplex bit-for-bit too.

use crate::audit::AuditViolation;
use crate::config::{Backend, HopMetric, LmScheme, SimConfig};
use crate::cost::{CostInputs, CostModel, Pricing};
use crate::engine::{ObserverBank, World};
use crate::observe::Observers;
use crate::report::SimReport;
use crate::scheme::{make_scheme, SchemePlane};
use crate::stage::{default_stages, StageSet};
use crate::transport::{reads_hops, PairWarmer};
use chlm_mobility::MobilityModel;
use chlm_par::WorkerPool;

/// One requested variant of a shared world: the three config axes the
/// world pipeline never consults. Everything else (size, mobility,
/// duration, seed, …) comes from the base [`SimConfig`] the multiplexer
/// was built with.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Display label for tables and diagnostics.
    pub label: String,
    /// Which location-management scheme fills the handoff slot.
    pub lm_scheme: LmScheme,
    /// How this variant prices hop distances.
    pub hop_metric: HopMetric,
    /// Analytic pricing vs packet execution (with optional loss).
    pub backend: Backend,
}

impl VariantSpec {
    /// A variant from explicit axes.
    pub fn new(
        label: impl Into<String>,
        lm_scheme: LmScheme,
        hop_metric: HopMetric,
        backend: Backend,
    ) -> Self {
        VariantSpec {
            label: label.into(),
            lm_scheme,
            hop_metric,
            backend,
        }
    }

    /// The variant axes of an existing config — `run_multiplexed(&cfg,
    /// &[VariantSpec::from_config("x", &cfg)])` is `run_simulation(&cfg)`.
    pub fn from_config(label: impl Into<String>, cfg: &SimConfig) -> Self {
        VariantSpec::new(label, cfg.lm_scheme, cfg.hop_metric, cfg.backend)
    }

    /// The full config this variant runs under, over `base`'s world.
    pub fn apply(&self, base: &SimConfig) -> SimConfig {
        let mut cfg = base.clone();
        cfg.lm_scheme = self.lm_scheme;
        cfg.hop_metric = self.hop_metric;
        cfg.backend = self.backend;
        cfg
    }
}

/// The banks sharing one `Pricing`: every variant pricing with the same
/// [`HopMetric`] (`Euclidean(c)` groups by the value of `c`).
struct MetricGroup {
    metric: HopMetric,
    cost: Pricing,
    members: Vec<usize>,
}

/// One shared `World` fanned out to many observer banks. Construct with
/// [`MultiplexSim::new`], drive with [`MultiplexSim::step`] or run to
/// completion with [`MultiplexSim::run`]; [`MultiplexSim::finish`] yields
/// one [`SimReport`] per variant, in variant order.
pub struct MultiplexSim {
    /// The world: its stages, snapshots and its own account, stepped,
    /// booked and audited once a tick for every bank.
    pub(crate) world: World,
    /// One plane per distinct scheme among the variants, in
    /// first-appearance order, run once per tick before any bank: a
    /// fan-out of `v` variants over `s` schemes produces messages, lookup
    /// routes and server tables `s` times, not `v` times.
    planes: Vec<SchemePlane>,
    /// Per plane, whether a bank booking it reads BFS distances.
    plane_reads_hops: Vec<bool>,
    /// Rule 4 of [`crate::transport`]: warms the pairs of those planes
    /// once a tick; `None` when no bank reads BFS distances.
    warmer: Option<PairWarmer>,
    groups: Vec<MetricGroup>,
    pub(crate) banks: Vec<ObserverBank>,
    labels: Vec<String>,
}

impl MultiplexSim {
    /// Build one world from `base` and one observer bank per variant.
    /// `base`'s own scheme/metric/backend axes are ignored — only the
    /// variants are accounted.
    pub fn new(base: &SimConfig, variants: &[VariantSpec]) -> Self {
        MultiplexSim::with_stages(base, variants, default_stages)
    }

    /// [`MultiplexSim::new`] over the stage set `make_stages` builds — the
    /// crate-side half of [`crate::Simulation::with_stages`].
    pub(crate) fn with_stages(
        base: &SimConfig,
        variants: &[VariantSpec],
        make_stages: impl FnOnce(&SimConfig, Box<dyn MobilityModel>) -> StageSet,
    ) -> Self {
        assert!(
            !variants.is_empty(),
            "multiplexer needs at least one variant"
        );
        let world = World::new(base.clone(), make_stages);
        // The banks' packet shards and the tick's one fill run one after
        // the other, so they share one pool.
        let workers = WorkerPool::new(base.threads);
        let mut planes: Vec<SchemePlane> = Vec::new();
        let mut plane_schemes: Vec<LmScheme> = Vec::new();
        let mut plane_reads_hops: Vec<bool> = Vec::new();
        let mut groups: Vec<MetricGroup> = Vec::new();
        let mut banks = Vec::with_capacity(variants.len());
        let mut labels = Vec::with_capacity(variants.len());
        for variant in variants {
            let cfg = variant.apply(base);
            let gi = match groups.iter().position(|g| g.metric == cfg.hop_metric) {
                Some(gi) => gi,
                None => {
                    groups.push(MetricGroup {
                        metric: cfg.hop_metric,
                        cost: Pricing::new(cfg.hop_metric, world.calibration()),
                        members: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let plane = match plane_schemes.iter().position(|&s| s == cfg.lm_scheme) {
                Some(pi) => pi,
                None => {
                    // Every bank books the update half; the query half
                    // runs with the world's query plane.
                    planes.push(SchemePlane::new(
                        make_scheme(&cfg),
                        true,
                        cfg.query_rate > 0.0,
                    ));
                    plane_schemes.push(cfg.lm_scheme);
                    plane_reads_hops.push(false);
                    planes.len() - 1
                }
            };
            plane_reads_hops[plane] |= reads_hops(&cfg);
            let bank = ObserverBank::new(&cfg, plane, &workers);
            groups[gi].members.push(banks.len());
            banks.push(bank);
            labels.push(variant.label.clone());
        }
        let warmer = plane_reads_hops
            .contains(&true)
            .then(|| PairWarmer::new(workers));
        MultiplexSim {
            world,
            planes,
            plane_reads_hops,
            warmer,
            groups,
            banks,
            labels,
        }
    }

    /// The base configuration the shared world runs under.
    pub fn config(&self) -> &SimConfig {
        self.world.cfg()
    }

    /// Variant labels, in variant (= report) order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of variants fanned out.
    pub fn variant_count(&self) -> usize {
        self.banks.len()
    }

    /// One variant's own observer set — the multiplexed counterpart of
    /// [`crate::Simulation::observers`].
    pub fn observers(&self, variant: usize) -> &Observers {
        &self.banks[variant].observers
    }

    /// Invariant violations found so far for one variant (empty unless the
    /// base config sets `audit`).
    pub fn audit_violations(&self, variant: usize) -> &[AuditViolation] {
        self.banks[variant].violations()
    }

    /// How many ticks the world audit has checked: one per audited tick,
    /// however many banks record its findings (0 unless auditing).
    pub fn world_audits(&self) -> u64 {
        self.world.auditor().map_or(0, |a| a.ticks_audited())
    }

    /// The `(src, dst)` pairs the last [`MultiplexSim::step`] handed to its
    /// one fill of BFS distances (none when no bank reads them). For tests
    /// only: filling them on a cold clone of the tick's graph replays the
    /// tick's fill.
    #[doc(hidden)]
    pub fn warmed_pairs(&self) -> &[(chlm_graph::NodeIdx, chlm_graph::NodeIdx)] {
        self.warmer.as_ref().map_or(&[], PairWarmer::pairs)
    }

    /// Attach an extra observer to one variant's bank — the multiplexed
    /// counterpart of [`crate::Simulation::add_observer`], used by the
    /// trace-identity tests to digest what each bank sees.
    pub fn add_observer(&mut self, variant: usize, obs: Box<dyn crate::observe::Observer>) {
        self.banks[variant].observers.extra.push(obs);
    }

    /// Advance the shared world one tick (which books and audits its own
    /// account), run every scheme plane over the completed `TickCtx`,
    /// drive every bank over both, one metric group at a time, and record
    /// the tick's audit in every bank.
    pub fn step(&mut self) {
        let planes = &mut self.planes;
        let plane_reads_hops = &self.plane_reads_hops;
        let warmer = &mut self.warmer;
        let groups = &mut self.groups;
        let banks = &mut self.banks;
        self.world.step_with(&mut |ctx| {
            // The scheme planes first (no pricer involved), once per tick
            // for all banks; then one fill of every BFS distance the banks
            // will read; then each metric group's banks inside one pricer
            // scope.
            for plane in planes.iter_mut() {
                plane.run(ctx);
            }
            if let Some(warmer) = warmer {
                let read = planes.iter().zip(plane_reads_hops).filter(|(_, &r)| r);
                warmer.warm(ctx.graph, read.flat_map(|(plane, _)| plane.pairs()));
            }
            let inputs = CostInputs {
                graph: ctx.graph,
                positions: ctx.positions,
                hierarchy: ctx.new_hierarchy,
                rtx: ctx.rtx,
                sources: &[],
            };
            for MetricGroup { cost, members, .. } in groups.iter_mut() {
                cost.with_pricer(&inputs, &mut |pricer| {
                    for &bank in members.iter() {
                        let bank = &mut banks[bank];
                        bank.observers.on_tick(ctx, &planes[bank.plane], pricer);
                    }
                });
            }
        });
        for bank in &mut self.banks {
            bank.audit(&self.world);
        }
    }

    /// Run the configured number of ticks and finish.
    pub fn run(mut self) -> Vec<SimReport> {
        let ticks = self.config().tick_count();
        for _ in 0..ticks {
            self.step();
        }
        self.finish()
    }

    /// Produce one report per variant (variant order) from whatever has
    /// been simulated so far: the world half is built once, and each bank
    /// adds its ledger and query stats to it.
    pub fn finish(self) -> Vec<SimReport> {
        let world = self.world.into_report();
        self.banks
            .into_iter()
            .map(|bank| bank.finish(&world))
            .collect()
    }
}

/// Run every variant against one shared world and return their reports in
/// variant order — the multiplexed counterpart of
/// [`crate::run_simulation`].
pub fn run_multiplexed(base: &SimConfig, variants: &[VariantSpec]) -> Vec<SimReport> {
    MultiplexSim::new(base, variants).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_simulation;

    fn base_cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::builder(n)
            .duration(1.5)
            .warmup(0.3)
            .seed(seed)
            .query_rate(1.0)
            .threads(1)
            .build()
    }

    #[test]
    fn single_variant_matches_run_simulation() {
        let cfg = base_cfg(90, 21);
        let solo = run_simulation(&cfg);
        let multi = run_multiplexed(&cfg, &[VariantSpec::from_config("only", &cfg)]);
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0], solo);
    }

    #[test]
    fn three_schemes_share_one_world() {
        let cfg = base_cfg(90, 22);
        let variants: Vec<VariantSpec> = [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent]
            .into_iter()
            .map(|s| VariantSpec::new(format!("{s:?}"), s, cfg.hop_metric, cfg.backend))
            .collect();
        let multi = run_multiplexed(&cfg, &variants);
        for (report, variant) in multi.iter().zip(&variants) {
            let solo = run_simulation(&variant.apply(&cfg));
            assert_eq!(report, &solo, "variant {} diverged", variant.label);
        }
    }

    #[test]
    fn mixed_metrics_group_correctly() {
        let cfg = base_cfg(80, 23);
        let variants = vec![
            VariantSpec::new(
                "eucl",
                LmScheme::Chlm,
                HopMetric::EuclideanCalibrated,
                cfg.backend,
            ),
            VariantSpec::new("hier", LmScheme::Chlm, HopMetric::HierRouting, cfg.backend),
            VariantSpec::new(
                "eucl2",
                LmScheme::Gls,
                HopMetric::EuclideanCalibrated,
                cfg.backend,
            ),
        ];
        let mx = MultiplexSim::new(&cfg, &variants);
        // Two distinct metrics → two groups; the shared one has 2 members.
        assert_eq!(mx.groups.len(), 2);
        assert_eq!(mx.groups[0].members, vec![0, 2]);
        assert_eq!(mx.groups[1].members, vec![1]);
        let multi = mx.run();
        for (report, variant) in multi.iter().zip(&variants) {
            let solo = run_simulation(&variant.apply(&cfg));
            assert_eq!(report, &solo, "variant {} diverged", variant.label);
        }
    }

    #[test]
    fn fixed_euclidean_calibrations_do_not_share_a_group() {
        let cfg = base_cfg(60, 24);
        let variants = vec![
            VariantSpec::new("c1", LmScheme::Chlm, HopMetric::Euclidean(1.0), cfg.backend),
            VariantSpec::new(
                "c2",
                LmScheme::Chlm,
                HopMetric::Euclidean(50.0),
                cfg.backend,
            ),
        ];
        let mx = MultiplexSim::new(&cfg, &variants);
        assert_eq!(mx.groups.len(), 2);
        let multi = mx.run();
        let total =
            |r: &SimReport| -> f64 { r.ledger.per_level.iter().map(|l| l.total_packets()).sum() };
        let t1 = total(&multi[0]);
        let t2 = total(&multi[1]);
        assert!(t1 > 0.0);
        assert!(t2 > 10.0 * t1, "t1 {t1} t2 {t2}");
    }

    #[test]
    fn one_plane_per_scheme_advances_once_per_tick() {
        // E27's fan-out: 3 schemes x {analytic, packet}, BFS, lookups on.
        let cfg = base_cfg(80, 25);
        let variants: Vec<VariantSpec> = [LmScheme::Chlm, LmScheme::Gls, LmScheme::HomeAgent]
            .into_iter()
            .flat_map(|s| {
                [Backend::Analytic, Backend::packet()].map(|backend| {
                    VariantSpec::new(format!("{s:?}-{backend:?}"), s, HopMetric::Bfs, backend)
                })
            })
            .collect();
        let mut mx = MultiplexSim::new(&cfg, &variants);
        assert_eq!(mx.planes.len(), 3);
        let plane_of: Vec<usize> = mx.banks.iter().map(|b| b.plane).collect();
        assert_eq!(plane_of, [0, 0, 1, 1, 2, 2]);
        let ticks = 5;
        for _ in 0..ticks {
            mx.step();
        }
        // Every plane -- GLS's server table included -- advanced once a
        // tick, although two banks read each.
        for plane in &mx.planes {
            assert_eq!(plane.advances, ticks);
        }
        // Whatever the bank count: four GLS banks, one table advance.
        let gls: Vec<VariantSpec> = (0..4)
            .map(|i| {
                VariantSpec::new(
                    format!("gls{i}"),
                    LmScheme::Gls,
                    cfg.hop_metric,
                    cfg.backend,
                )
            })
            .collect();
        let mut mx = MultiplexSim::new(&cfg, &gls);
        assert_eq!(mx.planes.len(), 1);
        for _ in 0..ticks {
            mx.step();
        }
        assert_eq!(mx.planes[0].advances, ticks);
    }

    #[test]
    #[should_panic]
    fn empty_variant_list_rejected() {
        let cfg = base_cfg(16, 1);
        let _ = MultiplexSim::new(&cfg, &[]);
    }
}
