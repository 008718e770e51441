//! Measurement report produced by one simulation run.

use chlm_cluster::digest::Digest;
use chlm_cluster::events::EventCounts;
use chlm_cluster::metrics::LevelStats;
use chlm_cluster::StateTracker;
use chlm_lm::handoff::HandoffLedger;

/// Per-level event-rate counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelRates {
    /// Migration address changes at each level (index = level k).
    pub migration_events: Vec<u64>,
    /// Reorganization (inherited) address changes at each level.
    pub reorg_events: Vec<u64>,
    /// Level-k cluster-link state change events (all causes).
    pub link_events: Vec<u64>,
    /// Level-k link changes whose endpoints both persist at level k across
    /// the tick — the drift-driven churn eq. (14) models, excluding
    /// election relabeling.
    pub persisting_link_events: Vec<u64>,
    /// Accumulated `|E_k| · dt` exposure per level.
    pub link_seconds: Vec<f64>,
    /// Accumulated `|V_k| · dt` exposure per level (level-k node-seconds).
    pub level_node_seconds: Vec<f64>,
    /// Total node-seconds (level 0).
    pub node_seconds: f64,
}

impl LevelRates {
    fn grow(&mut self, levels: usize) {
        if self.migration_events.len() < levels {
            self.migration_events.resize(levels, 0);
            self.reorg_events.resize(levels, 0);
            self.link_events.resize(levels, 0);
            self.persisting_link_events.resize(levels, 0);
            self.link_seconds.resize(levels, 0.0);
            self.level_node_seconds.resize(levels, 0.0);
        }
    }

    pub(crate) fn add_migration(&mut self, level: usize, count: u64) {
        self.grow(level + 1);
        self.migration_events[level] += count;
    }

    pub(crate) fn add_reorg(&mut self, level: usize, count: u64) {
        self.grow(level + 1);
        self.reorg_events[level] += count;
    }

    pub(crate) fn add_link_events(&mut self, level: usize, count: u64, persisting: u64) {
        self.grow(level + 1);
        self.link_events[level] += count;
        self.persisting_link_events[level] += persisting;
    }

    pub(crate) fn add_exposure(&mut self, level: usize, edges: usize, nodes: usize, dt: f64) {
        self.grow(level + 1);
        self.link_seconds[level] += edges as f64 * dt;
        self.level_node_seconds[level] += nodes as f64 * dt;
    }

    /// `f_k` — level-k migration events per (level-0) node per second.
    pub fn f_k(&self, k: usize) -> f64 {
        if self.node_seconds <= 0.0 {
            return 0.0;
        }
        self.migration_events.get(k).copied().unwrap_or(0) as f64 / self.node_seconds
    }

    /// `g_k` — level-k cluster-link state changes per node per second.
    pub fn g_k(&self, k: usize) -> f64 {
        if self.node_seconds <= 0.0 {
            return 0.0;
        }
        self.link_events.get(k).copied().unwrap_or(0) as f64 / self.node_seconds
    }

    /// `g'_k` — state changes per level-k cluster link per second
    /// (all causes).
    pub fn g_prime_k(&self, k: usize) -> f64 {
        let ls = self.link_seconds.get(k).copied().unwrap_or(0.0);
        if ls <= 0.0 {
            return 0.0;
        }
        self.link_events.get(k).copied().unwrap_or(0) as f64 / ls
    }

    /// Drift-driven `g'_k`: changes per level-k link per second counting
    /// only links whose endpoints persist at level k across the tick —
    /// eq. (14)'s quantity, free of election-relabeling churn.
    pub fn g_prime_persisting_k(&self, k: usize) -> f64 {
        let ls = self.link_seconds.get(k).copied().unwrap_or(0.0);
        if ls <= 0.0 {
            return 0.0;
        }
        self.persisting_link_events.get(k).copied().unwrap_or(0) as f64 / ls
    }

    /// Highest level with any accumulators.
    pub fn max_level(&self) -> usize {
        self.migration_events.len().saturating_sub(1)
    }

    pub fn merge(&mut self, other: &LevelRates) {
        self.grow(other.migration_events.len());
        for (i, v) in other.migration_events.iter().enumerate() {
            self.migration_events[i] += v;
        }
        for (i, v) in other.reorg_events.iter().enumerate() {
            self.reorg_events[i] += v;
        }
        for (i, v) in other.link_events.iter().enumerate() {
            self.link_events[i] += v;
        }
        for (i, v) in other.persisting_link_events.iter().enumerate() {
            self.persisting_link_events[i] += v;
        }
        for (i, v) in other.link_seconds.iter().enumerate() {
            self.link_seconds[i] += v;
        }
        for (i, v) in other.level_node_seconds.iter().enumerate() {
            self.level_node_seconds[i] += v;
        }
        self.node_seconds += other.node_seconds;
    }
}

/// Query-plane accounting for one run: every location lookup injected by
/// [`crate::config::SimConfig::query_rate`], priced through the active
/// scheme's lookup path (CHLM lowest-common-cluster descent, GLS band
/// walk, or the home-agent detour) on the active backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Lookup arrivals injected over the measured window.
    pub arrivals: u64,
    /// Arrivals the scheme resolved (found a route to an answer).
    pub resolved: u64,
    /// Arrivals with no route (e.g. disconnected components under CHLM).
    pub unresolved: u64,
    /// Resolved lookups by resolution level (CHLM common-cluster level,
    /// GLS shared grid order, home-agent: 0 = self, 1 = detour).
    pub level_lookups: Vec<u64>,
    /// Query packets spent by resolution level (same indexing).
    pub level_packets: Vec<f64>,
    /// Query packets spent per measured tick (analytic: priced hops;
    /// packet backend: real transmissions including ARQ retries).
    pub per_tick_packets: Vec<f64>,
    /// Accumulated `n · dt` exposure, for per-node-per-second rates.
    pub node_seconds: f64,
}

impl QueryStats {
    pub(crate) fn record(&mut self, level: usize, packets: f64) {
        self.resolved += 1;
        if self.level_lookups.len() <= level {
            self.level_lookups.resize(level + 1, 0);
            self.level_packets.resize(level + 1, 0.0);
        }
        self.level_lookups[level] += 1;
        self.level_packets[level] += packets;
    }

    /// Total query packets over the run.
    pub fn total_packets(&self) -> f64 {
        // Folded from +0.0: `Iterator::sum::<f64>()` starts at -0.0, which
        // is what a plane that resolved nothing would then report.
        self.level_packets.iter().fold(0.0, |sum, p| sum + p)
    }

    /// Query overhead in packets per node per second.
    pub fn overhead_per_node_per_second(&self) -> f64 {
        if self.node_seconds <= 0.0 {
            return 0.0;
        }
        self.total_packets() / self.node_seconds
    }

    /// Mean packets per resolved lookup.
    pub fn mean_packets_per_lookup(&self) -> Option<f64> {
        if self.resolved == 0 {
            return None;
        }
        Some(self.total_packets() / self.resolved as f64)
    }
}

/// Plain-data extract of the ALCA state tracker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateSummary {
    /// Per level: empirical state distribution (index = state).
    pub distributions: Vec<Vec<f64>>,
    /// Per level: P(state == 1) — the paper's `p_j`.
    pub p1: Vec<Option<f64>>,
    /// Per level: fraction of per-tick state changes jumping ≥ 2 states.
    pub multi_jump_fraction: Vec<Option<f64>>,
}

impl StateSummary {
    /// The extract of `tracker`, one entry per level it has seen.
    pub(crate) fn of(tracker: &StateTracker) -> Self {
        let mut state = StateSummary::default();
        for k in 0..tracker.level_count() {
            state
                .distributions
                .push(tracker.distribution(k).unwrap_or_default());
            state.p1.push(tracker.p_state1(k));
            state
                .multi_jump_fraction
                .push(tracker.multi_jump_fraction(k));
        }
        state
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    pub n: usize,
    pub seed: u64,
    pub dt: f64,
    pub rtx: f64,
    pub speed: f64,
    /// Mean level-0 degree averaged over ticks.
    pub mean_degree: f64,
    /// Maximum hierarchy depth observed.
    pub depth: usize,
    /// Level statistics captured at the final tick.
    pub final_levels: Vec<LevelStats>,
    /// Handoff packet accounting (φ_k, γ_k).
    pub ledger: HandoffLedger,
    /// Level-0 link events per node per second (eq. 4's f₀).
    pub f0: f64,
    /// Per-level migration / link-churn rates.
    pub rates: LevelRates,
    /// Reorganization-event taxonomy counts.
    pub events: EventCounts,
    /// ALCA state machine summary.
    pub state: StateSummary,
    /// Live query-plane accounting, when `query_rate > 0`.
    pub query: Option<QueryStats>,
    /// Mean LM entries hosted per node at the final tick (Θ(log n) claim).
    pub mean_entries_hosted: f64,
}

impl SimReport {
    /// φ — total migration handoff overhead (packets/node/s).
    pub fn phi_total(&self) -> f64 {
        self.ledger.phi_total()
    }

    /// γ — total reorganization handoff overhead (packets/node/s).
    pub fn gamma_total(&self) -> f64 {
        self.ledger.gamma_total()
    }

    /// φ + γ — total LM handoff overhead.
    pub fn total_overhead(&self) -> f64 {
        self.phi_total() + self.gamma_total()
    }

    /// Canonical digest over every measured field, for the determinism
    /// verifier (`cargo xtask audit-determinism`): two runs of the same
    /// `(config, seed)` must produce bit-identical reports, so any
    /// divergence — down to a single float bit — changes this value.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new(2);
        d.usize(self.n).word(self.seed);
        d.f64(self.dt)
            .f64(self.rtx)
            .f64(self.speed)
            .f64(self.mean_degree);
        d.usize(self.depth);
        d.usize(self.final_levels.len());
        for ls in &self.final_levels {
            d.usize(ls.level).usize(ls.nodes).usize(ls.edges);
            d.f64(ls.arity).f64(ls.aggregation).f64(ls.mean_degree);
            d.opt_f64(ls.intra_cluster_hops);
        }
        d.usize(self.ledger.per_level.len());
        for c in &self.ledger.per_level {
            d.f64(c.migration_packets).f64(c.reorg_packets);
            d.word(c.migration_events).word(c.reorg_events);
        }
        d.f64(self.ledger.node_seconds);
        d.f64(self.f0);
        for v in [
            &self.rates.migration_events,
            &self.rates.reorg_events,
            &self.rates.link_events,
            &self.rates.persisting_link_events,
        ] {
            d.usize(v.len());
            for &x in v {
                d.word(x);
            }
        }
        for v in [&self.rates.link_seconds, &self.rates.level_node_seconds] {
            d.usize(v.len());
            for &x in v {
                d.f64(x);
            }
        }
        d.f64(self.rates.node_seconds);
        d.usize(self.events.counts.len());
        for row in &self.events.counts {
            for &c in row {
                d.word(c);
            }
        }
        for &c in &self.events.converse_vii {
            d.word(c);
        }
        d.usize(self.state.distributions.len());
        for dist in &self.state.distributions {
            d.usize(dist.len());
            for &p in dist {
                d.f64(p);
            }
        }
        for &p in &self.state.p1 {
            d.opt_f64(p);
        }
        for &m in &self.state.multi_jump_fraction {
            d.opt_f64(m);
        }
        // Two `None` tags: the layout slots of the removed end-of-run query
        // and GLS-tracker probes, kept so every pinned digest stays valid.
        d.word(0).word(0);
        d.f64(self.mean_entries_hosted);
        // Query-plane stats are hashed only when present so every
        // `query_rate = 0` digest (including the 20 pinned CHLM goldens)
        // is bit-identical to builds that predate the query plane.
        if let Some(q) = &self.query {
            d.word(q.arrivals).word(q.resolved).word(q.unresolved);
            d.usize(q.level_lookups.len());
            for &c in &q.level_lookups {
                d.word(c);
            }
            for &p in &q.level_packets {
                d.f64(p);
            }
            d.usize(q.per_tick_packets.len());
            for &p in &q.per_tick_packets {
                d.f64(p);
            }
            d.f64(q.node_seconds);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_normalization() {
        let mut r = LevelRates::default();
        r.add_migration(2, 10);
        r.add_link_events(1, 4, 2);
        r.add_exposure(1, 8, 4, 0.5);
        r.node_seconds = 20.0;
        assert!((r.f_k(2) - 0.5).abs() < 1e-12);
        assert!((r.g_k(1) - 0.2).abs() < 1e-12);
        assert!((r.g_prime_k(1) - 1.0).abs() < 1e-12);
        assert!((r.g_prime_persisting_k(1) - 0.5).abs() < 1e-12);
        assert_eq!(r.f_k(5), 0.0);
        assert_eq!(r.g_prime_k(9), 0.0);
    }

    #[test]
    fn query_stats_accumulate_and_normalize() {
        let mut q = QueryStats::default();
        q.record(0, 0.0);
        q.record(3, 6.0);
        q.record(3, 4.0);
        q.node_seconds = 5.0;
        assert_eq!(q.resolved, 3);
        assert_eq!(q.level_lookups, vec![1, 0, 0, 2]);
        assert_eq!(q.total_packets(), 10.0);
        assert!((q.overhead_per_node_per_second() - 2.0).abs() < 1e-12);
        assert!((q.mean_packets_per_lookup().unwrap() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(QueryStats::default().mean_packets_per_lookup(), None);
        // A plane that resolved nothing reports +0.0, not the summing
        // identity -0.0.
        let idle = QueryStats {
            arrivals: 4,
            unresolved: 4,
            node_seconds: 5.0,
            ..QueryStats::default()
        };
        assert_eq!(idle.total_packets().to_bits(), 0.0f64.to_bits());
        assert_eq!(
            idle.overhead_per_node_per_second().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn rates_merge_adds() {
        let mut a = LevelRates::default();
        a.add_migration(1, 3);
        a.node_seconds = 10.0;
        let mut b = LevelRates::default();
        b.add_migration(3, 7);
        b.add_link_events(1, 2, 1);
        b.node_seconds = 10.0;
        a.merge(&b);
        assert_eq!(a.migration_events[1], 3);
        assert_eq!(a.migration_events[3], 7);
        assert_eq!(a.link_events[1], 2);
        assert_eq!(a.node_seconds, 20.0);
        assert_eq!(a.max_level(), 3);
    }
}
